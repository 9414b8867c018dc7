import contextlib
import importlib
import io
import itertools
import json
import math
import os
import platform
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pdcpurify
import pdcpurify.analysis as analysis_module
import pdcpurify.fock as fock_module
import pdcpurify.source as source_module
from helpers import called_names, compensated_sum, run_direct
from pdcpurify import (
    ProtocolKind,
    ProtocolResult,
    SourceParams,
    bbpssw_fidelity,
    linear_grid,
    run_four_photon,
    spatially_entangled_state,
)
from pdcpurify import cli
from pdcpurify.cli import CSV_HEADER, main


def run_cli(argv, capsys):
    status = main(argv)
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def test_run_four_photon_ideal(capsys):
    status, out, _ = run_cli(
        ["run", "--protocol", "four-photon", "--r", "1", "--phi", "0", "--s", "1"],
        capsys,
    )
    assert status == 0
    payload = json.loads(out)
    assert payload["p_success"] == pytest.approx(0.4, abs=1e-12)
    assert payload["f_upper"] == pytest.approx(1.0, abs=1e-12)
    assert payload["params"]["protocol"] == "four-photon"


def test_run_independent_pairs(capsys):
    status, out, _ = run_cli(
        ["run", "--protocol", "independent-pairs", "--s", "1"], capsys
    )
    assert status == 0
    payload = json.loads(out)
    assert payload["p_success"] == pytest.approx(0.5, abs=1e-12)
    assert payload["f_lower"] is None


def test_run_rejects_out_of_range_r(capsys):
    status, out, err = run_cli(
        ["run", "--protocol", "four-photon", "--r", "2", "--phi", "0", "--s", "1"],
        capsys,
    )
    assert status == 2
    assert out == ""
    assert "--r" in err


def test_run_rejects_phi_and_cos_phi_together(capsys):
    status, _, err = run_cli(
        [
            "run", "--protocol", "two-photon", "--s", "1",
            "--phi", "0", "--cos-phi", "1",
        ],
        capsys,
    )
    assert status == 2
    assert "cos-phi" in err


@pytest.mark.parametrize("kind", list(ProtocolKind))
def test_run_matches_direct_call(kind, capsys):
    status, out, _ = run_cli(
        [
            "run", "--protocol", kind.value, "--r", "0.9", "--phi", "0.45",
            "--s", "0.6",
        ],
        capsys,
    )
    assert status == 0
    expected = run_direct(kind, 0.9, 0.45, 0.6).as_dict()
    assert json.loads(out) == json.loads(json.dumps(expected))


RUN = ["run", "--protocol", "four-photon", "--s", "1"]
SWEEP = ["sweep", "--protocol", "two-photon", "--out", "ignored.csv"]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "command,flag",
    [
        (["run", "--protocol", "independent-pairs", "--s", "1"], "--phi"),
        (RUN, "--phi"),
        (SWEEP, "--phi"),
        (["state", "--pairs", "2"], "--phi"),
        (RUN, "--r"),
        (["run", "--protocol", "two-photon"], "--s"),
        (SWEEP, "--s-min"),
        (SWEEP, "--s-max"),
        (RUN, "--cos-phi"),
    ],
    ids=[
        "run-independent-pairs",
        "run-four-photon",
        "sweep",
        "state",
        "run-r",
        "run-s",
        "sweep-s-min",
        "sweep-s-max",
        "run-cos-phi",
    ],
)
def test_non_finite_phi_exits_2(command, flag, value, tmp_path, monkeypatch, capsys):
    """Non-finite phase, ratio and survival values are rejected, naming the flag."""
    monkeypatch.chdir(tmp_path)
    status, out, err = run_cli(command + [f"{flag}={value}"], capsys)
    assert status == 2
    assert out == ""
    assert err.startswith("error: ")
    assert flag in err
    assert not (tmp_path / "ignored.csv").exists()


@pytest.mark.parametrize(
    "flag,value,err",
    [
        ("phi", "-5e-1", ""),
        ("phi", "-1e308", ""),
        ("cos-phi", "-5e-1", ""),
        ("r", "-1e-3", "error: --r must be in [0, 1], got -0.001\n"),
        ("s", "-1e-3", "error: --s must be in [0, 1], got -0.001\n"),
        ("phi", "-inf", "error: --phi must be finite, got -inf\n"),
    ],
    ids=["phi", "phi-huge", "cos-phi", "r-error", "s-error", "phi-error"],
)
def test_negative_value_after_a_space_is_the_flags_value(flag, value, err, capsys):
    """argparse alone takes ``-5e-1`` or ``-inf`` after a flag for an option;
    ``--flag -5e-1`` reads as ``--flag=-5e-1`` does."""
    command = ["run", "--protocol", "two-photon"] + ([] if flag == "s" else ["--s", "0.5"])
    spaced = run_cli(command + [f"--{flag}", value], capsys)
    assert spaced == run_cli(command + [f"--{flag}={value}"], capsys)
    assert spaced[0] == (2 if err else 0)
    assert spaced[2] == err


def test_flag_followed_by_a_flag_still_lacks_its_value(capsys):
    assert main(["sweep", "--out", "--format"]) == 2
    assert "argument --out: expected one argument" in capsys.readouterr().err


def test_value_after_a_space_may_start_with_one_dash(tmp_path, monkeypatch, capsys):
    """Any token after a value flag is its value unless it starts with ``--``."""
    monkeypatch.chdir(tmp_path)
    sweep = ["sweep", "--protocol", "two-photon", "--steps", "3"]
    assert run_cli(sweep + ["--out", "-lead.csv"], capsys) == (0, "", "")
    assert run_cli(sweep + ["--out=lead.csv"], capsys) == (0, "", "")
    assert (tmp_path / "-lead.csv").read_bytes() == (tmp_path / "lead.csv").read_bytes()


#: a command that takes each typed flag, and that flag given a non-number
NON_NUMBERS = {
    f"non-number-{flag}": (
        {"run": RUN, "sweep": SWEEP, "state": ["state"]}[row[0][-1]]
        + [f"--{flag}", "abc"],
        f"argument --{flag}: invalid {row[2]['type'].__name__} value: 'abc'",
    )
    for flag, row in cli._FLAGS.items()
    if "type" in row[2]
}
REFUSALS = {
    **NON_NUMBERS,
    "prefix-of-cos-phi": (["state", "--cos", "-5e-1"], "--cos"),
    "prefix-of-s-min": (SWEEP + ["--s", "0.5"], "--s 0.5"),
    "prefix-of-protocol": (["run", "--prot", "two-photon", "--s", "1"], "--prot"),
    "unknown-flag": (RUN + ["--bogus"], "--bogus"),
    "control-in-flag": (RUN + ["--x\x1cy"], "unrecognized arguments: --x\\x1cy"),
    "flag-of-another-command": (RUN + ["--pairs", "2"], "--pairs"),
    "bad-protocol": (["run", "--protocol", "bogus", "--s", "1"], "argument --protocol"),
    "bad-format": (SWEEP + ["--format", "xml"], "argument --format"),
    "missing-value": (SWEEP[:-1], "argument --out: expected one argument"),
    "missing-subcommand": ([], "command"),
    "unknown-subcommand": (["plot"], "'plot'"),
}


@pytest.mark.parametrize("argv,named", REFUSALS.values(), ids=REFUSALS.keys())
def test_each_refusal_is_one_error_line(argv, named, tmp_path, monkeypatch, capsys):
    """argparse's own refusals read as the package's: ``main`` returns 2
    after one ``error:`` line, with no usage block, and writes nothing."""
    monkeypatch.chdir(tmp_path)
    status, out, err = run_cli(argv, capsys)
    assert (status, out) == (2, "")
    (line,) = err.splitlines()
    assert line.startswith("error: ") and named in line, line
    assert list(tmp_path.iterdir()) == []


#: each line that names a path given with a control character: the config
#: file's ``path:line:`` prefix (exit 2) and a sweep file under a missing
#: directory (exit 1); the path is shown escaped, so the line stays one line
CONTROL_IN_PATH = {
    "config-path": (["state", "--config", "c\x1cd.cfg"], 2,
                    "error: c\\x1cd.cfg:1: unknown config key 'bogus'"),
    "out-path": (SWEEP[:-1] + ["no\x1cdir/c.csv"], 1,
                 "error: cannot write 'no\\x1cdir/c.csv': "),
}


@pytest.mark.parametrize(
    "argv,expected,named", CONTROL_IN_PATH.values(), ids=CONTROL_IN_PATH.keys()
)
def test_control_characters_in_paths_are_escaped(
    argv, expected, named, tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "c\x1cd.cfg").write_text("bogus = 1\n")
    status, out, err = run_cli(argv, capsys)
    assert (status, out) == (expected, "")
    (line,) = err.splitlines()
    assert line.startswith(named), line
    assert [path.name for path in tmp_path.iterdir()] == ["c\x1cd.cfg"]


#: the flags whose ``_FLAGS`` row carries a rule
RULED_FLAGS = [flag for flag, row in cli._FLAGS.items() if row[3] is not None]

#: each subcommand's required and speed-setting flags; a sweep writes JSON
VALID_FLAGS = {
    "run": {"protocol": "two-photon", "s": 0.5},
    "sweep": {"protocol": "two-photon", "steps": 2, "format": "json", "out": "c.json"},
    "state": {},
}

#: a valid value for every flag; ``empty.cfg`` is written by the test
ONCE_VALUES = {"config": "empty.cfg", "r": "0.5", "phi": "0.45", "cos-phi": "0.9",
               "protocol": "two-photon", "s": "0.5", "s-min": "0.1", "s-max": "0.9",
               "steps": "3", "out": "c.json", "format": "json", "pairs": "2"}
#: every flag with each subcommand that takes it
FLAG_USES = [(command, flag) for flag, row in cli._FLAGS.items() for command in row[0]]


@pytest.mark.parametrize("command, flag", FLAG_USES, ids=[f"{c}-{f}" for c, f in FLAG_USES])
def test_a_flag_given_twice_exits_2_naming_it(command, flag, tmp_path, monkeypatch, capsys):
    """A flag given twice, spaced or joined with ``=``, even with one value,
    is refused with one ``error:`` line, as a config key set twice is: no run
    quietly takes the last value.  The same command with the flag once runs."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "empty.cfg").write_text("")
    command = [command] + [
        f"--{name}={value}" for name, value in VALID_FLAGS[command].items() if name != flag
    ]
    value = ONCE_VALUES[flag]
    for twice in ([f"--{flag}", value, f"--{flag}", value],
                  [f"--{flag}={value}", f"--{flag}", value]):
        status, out, err = run_cli(command + twice, capsys)
        assert (status, out) == (2, "")
        assert err == f"error: argument --{flag}: given twice; give it once\n"
        assert [path.name for path in tmp_path.iterdir()] == ["empty.cfg"]
    assert run_cli(command + [f"--{flag}", value], capsys)[0] == 0


#: digit groups, drawn from atoms that include each rule's bounds, joined
#: by single underscores as Python number literals allow
DIGITS = st.sampled_from(["0", "1", "2", "5", "01", "10", "999"])
DIGIT_GROUPS = st.lists(DIGITS, min_size=1, max_size=2).map("_".join)
#: a sign, a mantissa of int, point-float or exponent form, and an exponent
NUMBER_SPELLINGS = st.tuples(
    st.sampled_from(["", "+", "-"]),
    st.one_of(
        DIGIT_GROUPS,
        st.tuples(DIGIT_GROUPS, DIGIT_GROUPS).map(".".join),
        DIGIT_GROUPS.map(".{}".format),
        DIGIT_GROUPS.map("{}.".format),
    ),
    st.one_of(st.just(""), st.tuples(
        st.sampled_from("eE"), st.sampled_from(["", "+", "-"]), DIGITS).map("".join)),
).map("".join)
#: each bound a rule uses and the floats on either side of it, the ints
#: around 1 or 2, the non-finite spellings, and an int past 4300 digits
EDGE_SPELLINGS = [
    repr(x)
    for bound in (-1.0, 0.0, 1.0)
    for x in (math.nextafter(bound, -math.inf), bound, math.nextafter(bound, math.inf))
] + ["-1", "0", "1", "2", "3", "-0", "-0.0", "nan", "-nan", "inf", "-inf",
     "+Infinity", "1" + "0" * 4300]


def _library_output(command, values):
    """What the command prints, or writes, for merged flag values, computed
    with the library's own calls."""
    if values["cos-phi"] is not None:
        phi = math.acos(values["cos-phi"])
    else:
        phi = 0.0 if values["phi"] is None else values["phi"]
    if command == "state":
        state = spatially_entangled_state(SourceParams(values["r"], phi, values["pairs"]))
        return {
            "terms": [{"occupations": list(occ), "amplitude": [amp.real, amp.imag]}
                      for occ, amp in state.terms()],
            "params": {"r": values["r"], "phi": phi, "pairs": values["pairs"]},
        }
    kind = ProtocolKind(values["protocol"])
    if command == "run":
        return run_direct(kind, values["r"], phi, values["s"]).as_dict()
    grid = linear_grid(values["s-min"], values["s-max"], values["steps"])
    return [run_direct(kind, values["r"], phi, s).as_dict() for s in grid]


def _main_outcome(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main(argv)
    return status, out.getvalue(), err.getvalue()


def _every_edge(test):
    """``test`` with each edge spelling as an explicit example; ``pick``
    cycles through the subcommands."""
    for pick, text in enumerate(EDGE_SPELLINGS):
        test = example(text=text, pick=pick)(test)
    return test


@pytest.mark.parametrize("flag", RULED_FLAGS)
@settings(max_examples=10, derandomize=True, deadline=None)
@_every_edge
@given(text=NUMBER_SPELLINGS, pick=st.integers(0, 2))
def test_ruled_flag_values_exit_0_or_2_naming_the_flag(flag, text, pick):
    """Each ruled flag gets number spellings as ``--flag v``, ``--flag=v`` and
    a config key, with a subcommand that takes it. The status is 0 or 2; a 2
    prints one ``error:`` line naming the flag (the config key when the text
    does not convert) and writes no file; a 0 prints or writes what the
    library computes."""
    names, _, options, _ = cli._FLAGS[flag]
    command = names[pick % len(names)]
    flag_named = rf"--{flag}(?![\w-])"
    try:
        value = options["type"](text)
    except ValueError:  # a text that does not convert always exits 2
        value, config_named = None, rf"config value for '{flag}'"
    else:
        config_named = flag_named
    given_flags = {key: v for key, v in VALID_FLAGS[command].items() if key != flag}
    values = {key: row[1] for key, row in cli._FLAGS.items() if command in row[0]}
    values.update(given_flags)
    values[flag] = value
    with tempfile.TemporaryDirectory() as tmp:
        config = os.path.join(tmp, "flag.cfg")
        with open(config, "w", encoding="utf-8") as handle:
            handle.write(f"{flag} = {text}\n")
        out_file = os.path.join(tmp, "c.json")
        argv = [command]
        for key, v in given_flags.items():
            argv += [f"--{key}", out_file if key == "out" else str(v)]
        for way, named in [(["--config", config], config_named),
                           ([f"--{flag}", text], flag_named),
                           ([f"--{flag}={text}"], flag_named)]:
            status, out, err = _main_outcome(argv + way)
            assert status in (0, 2), (way, err)
            assert "Traceback" not in err
            if status == 2:
                assert out == ""
                (line,) = err.splitlines()
                assert line.startswith("error: ")
                assert re.search(named, line), line
                assert os.listdir(tmp) == ["flag.cfg"]
                continue
            assert err == ""
            if command == "sweep":
                assert out == ""
                with open(out_file, encoding="utf-8") as handle:
                    out = handle.read()
                os.remove(out_file)
            assert os.listdir(tmp) == ["flag.cfg"]
            printed = json.loads(out)
            expected = json.loads(json.dumps(_library_output(command, values)))
            if command == "state":
                printed = {key: printed[key] for key in expected}
            assert printed == expected


#: config file texts that are no number spellings, each with the status it
#: gives and what a status-2 line names (``{path}`` is the file's path)
CONFIG_TEXTS = {
    "byte-order-mark": (b"\xef\xbb\xbfr = 0.5\n", 0, None),
    "byte-order-mark-on-line-2": (
        b"r = 0.5\n\xef\xbb\xbfpairs = 1\n", 2, "{path}:2: unknown config key"),
    "nul-in-value": (b"r = 0.5\x00\n", 2, "config value for 'r'"),
    "nul-in-key": (b"r\x00 = 0.5\n", 2, "{path}:1: unknown config key"),
    "nul-line": (b"\x00\n", 2, "{path}:1: expected 'key = value'"),
    "invalid-utf-8": (b"r = 0.5\npairs = \xff\n", 2, "{path}:2: byte 9 is not UTF-8"),
    "repeated-key": (b"r = 0.5\nr = 0.5\n", 2, "{path}:2: config key 'r'"),
    # a control character that str.splitlines breaks at is shown escaped
    "control-in-key": (b"r\x1cx = 1\n", 2, "{path}:1: unknown config key 'r\\x1cx'"),
    "control-in-choice": (
        b"format = c\x1csv\n", 2,
        "config value for 'format' is invalid: 'c\\x1csv' is not one of csv, json"),
    "directory": (None, 2, "{path}"),
}


@pytest.mark.parametrize("command", sorted(VALID_FLAGS))
@pytest.mark.parametrize(
    "data,expected,named", CONFIG_TEXTS.values(), ids=CONFIG_TEXTS.keys()
)
def test_config_texts_exit_0_or_2_naming_the_file_or_key(
    command, data, expected, named, tmp_path, monkeypatch, capsys
):
    """A config text exits 0, or exits 2 with one ``error:`` line naming the
    file or the key and writes nothing; a directory is no config file."""
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "given.cfg"
    if data is None:
        path.mkdir()
    else:
        path.write_bytes(data)
    argv = [command]
    for key, value in VALID_FLAGS[command].items():
        argv += [f"--{key}", str(value)]
    status, out, err = run_cli(argv + ["--config", str(path)], capsys)
    assert status == expected, err
    if status == 0:
        assert err == ""
        return
    assert out == ""
    (line,) = err.splitlines()
    assert line.startswith("error: ") and named.format(path=path) in line, line
    assert list(tmp_path.iterdir()) == [path]


def test_config_with_phi_and_cos_phi_exits_2(tmp_path, capsys):
    config = tmp_path / "both.cfg"
    config.write_text("protocol = two-photon\ns = 1\nphi = 0.3\ncos-phi = 0.9\n")
    status, out, err = run_cli(["run", "--config", str(config)], capsys)
    assert status == 2
    assert out == ""
    assert "cos-phi" in err


@pytest.mark.parametrize(
    "config_line,flag,expected_phi",
    [
        ("phi = 0.3", ["--cos-phi", "0.9"], math.acos(0.9)),
        ("cos-phi = 0.9", ["--phi", "0.3"], 0.3),
    ],
)
def test_phase_flag_overrides_either_config_key(
    config_line, flag, expected_phi, tmp_path, capsys
):
    config = tmp_path / "one.cfg"
    config.write_text(f"protocol = two-photon\ns = 1\n{config_line}\n")
    status, out, _ = run_cli(["run", "--config", str(config)] + flag, capsys)
    assert status == 0
    assert json.loads(out)["params"]["phi"] == expected_phi


def test_unknown_protocol_exits_2(capsys):
    assert main(["run", "--protocol", "bogus", "--s", "1"]) == 2


def test_sweep_csv_schema_and_roundtrip(tmp_path, capsys):
    out_file = tmp_path / "curve.csv"
    status, _, _ = run_cli(
        [
            "sweep", "--protocol", "four-photon", "--r", "1", "--phi", "0",
            "--s-min", "0", "--s-max", "1", "--steps", "21",
            "--out", str(out_file),
        ],
        capsys,
    )
    assert status == 0
    lines = out_file.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 22
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[1]) == 0.25
    for line in lines[1:]:
        s, f_in, p, f_up, f_low = (float(x) for x in line.split(","))
        assert f_in == pytest.approx((1 + 3 * s) / 4, abs=1e-10)
        reference = run_four_photon(1.0, 0.0, s)
        assert p == pytest.approx(reference.p_success, abs=1e-10)
        assert f_up == pytest.approx(reference.f_upper, abs=1e-10)
        assert f_low == pytest.approx(reference.f_lower, abs=1e-10)


#: the README's curve sweeps, by the file each writes; ``tests/data`` holds
#: the files as written before f_lower was read off the upper pair
README_SWEEPS = {
    "curve_r100.csv": ["--protocol", "four-photon", "--r", "1", "--cos-phi", "1"],
    "curve_r095.csv": ["--protocol", "four-photon", "--r", "0.95", "--cos-phi", "0.95"],
    "curve_r090.csv": ["--protocol", "four-photon", "--r", "0.9", "--cos-phi", "0.9"],
    "curve_single_pair.csv": ["--protocol", "independent-pairs"],
}


@pytest.mark.parametrize("name", list(README_SWEEPS))
def test_readme_sweeps_reproduce_the_committed_files(name, tmp_path, capsys):
    """Empty cells match exactly and numbers agree within 1e-12."""
    out_file = tmp_path / name
    argv = ["sweep", *README_SWEEPS[name], "--steps", "21", "--out", str(out_file)]
    assert run_cli(argv, capsys)[0] == 0
    expected = (Path(__file__).parent / "data" / name).read_text().splitlines()
    lines = out_file.read_text().splitlines()
    assert lines[0] == expected[0] == CSV_HEADER
    assert len(lines) == len(expected) == 22
    for line, reference in zip(lines[1:], expected[1:]):
        cells, reference_cells = line.split(","), reference.split(",")
        assert len(cells) == len(reference_cells)
        for cell, want in zip(cells, reference_cells):
            if "" in (cell, want):
                assert cell == want
            else:
                assert abs(float(cell) - float(want)) <= 1e-12


README = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")


def test_readme_version_note_quotes_what_run_prints(capsys):
    """The README's determinism example quotes a command, the p_success it
    prints and the Python version that was measured; on that version the
    command prints exactly that text."""
    note = re.search(
        r"`pdcpurify (run [^`]+)`\s+prints `(\"p_success\": [^`]+)` under Python "
        r"(\d+\.\d+\.\d+)",
        README,
    )
    assert note, "the README no longer quotes a run and its p_success"
    command, printed, version = note.groups()
    if platform.python_version() != version:
        pytest.skip(f"the README quotes what Python {version} prints")
    status, out, _ = run_cli(command.split(), capsys)
    assert status == 0
    assert f"  {printed}," in out.splitlines()


def library_table():
    """The README's library table: each module with the public names its row
    lists."""
    table = README.split("## Library layout", 1)[1].split("\n\n")[1]
    rows = {}
    for line in table.splitlines()[2:]:
        module, names, _ = line.strip("|").split(" | ", 2)
        rows[module.strip(" `")] = re.findall(r"`(\w+)`", names)
    return rows


def test_readme_library_table_names_the_exported_names():
    """``__all__`` and the README list the same public names, each in the row
    of the module that defines it."""
    rows = library_table()
    listed = [name for names in rows.values() for name in names]
    assert sorted(listed) == sorted(pdcpurify.__all__)
    for module, names in rows.items():
        home = importlib.import_module(f"pdcpurify.{module}")
        for name in names:
            assert getattr(home, name) is getattr(pdcpurify, name), (module, name)


def test_sweep_output_is_byte_stable(tmp_path, capsys):
    args = [
        "sweep", "--protocol", "two-photon", "--r", "0.9",
        "--cos-phi", "0.9", "--steps", "7",
    ]
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    assert run_cli(args + ["--out", str(first)], capsys)[0] == 0
    assert run_cli(args + ["--out", str(second)], capsys)[0] == 0
    assert first.read_bytes() == second.read_bytes()


def test_sweep_json_format(tmp_path, capsys):
    out_file = tmp_path / "curve.json"
    status, _, _ = run_cli(
        [
            "sweep", "--protocol", "independent-pairs", "--steps", "5",
            "--out", str(out_file), "--format", "json",
        ],
        capsys,
    )
    assert status == 0
    payload = json.loads(out_file.read_text())
    assert len(payload) == 5
    assert {"s", "f_in", "p_success", "f_upper", "f_lower", "params"} <= set(payload[0])
    last = payload[-1]
    assert last["f_upper"] == pytest.approx(bbpssw_fidelity(last["f_in"]), abs=1e-9)


def test_sweep_rejects_bad_grid(capsys):
    status, _, err = run_cli(
        [
            "sweep", "--protocol", "four-photon", "--steps", "1",
            "--out", "ignored.csv",
        ],
        capsys,
    )
    assert status == 2
    assert "steps" in err


def test_sweep_s_range_names_both_flags(tmp_path, capsys):
    out_file = tmp_path / "never.csv"
    status, out, err = run_cli(
        [
            "sweep", "--protocol", "four-photon", "--s-min", "0.5",
            "--s-max", "0.2", "--out", str(out_file),
        ],
        capsys,
    )
    assert status == 2
    assert out == ""
    assert err.startswith("error: ")
    assert "--s-min" in err and "--s-max" in err
    assert not out_file.exists()


NAN_RESULT = ProtocolResult("four-photon", 1.0, 0.0, 0.0, math.nan, math.nan, None)


@pytest.mark.parametrize(
    "command",
    [
        ["run", "--protocol", "four-photon", "--s", "0"],
        ["sweep", "--protocol", "four-photon", "--steps", "3", "--out", "out.csv"],
        ["sweep", "--protocol", "four-photon", "--steps", "3", "--out", "out.json",
         "--format", "json"],
        ["state", "--pairs", "1"],
    ],
    ids=["run", "sweep-csv", "sweep-json", "state"],
)
def test_non_finite_result_exits_2_and_writes_nothing(
    command, tmp_path, monkeypatch, capsys
):
    """A NaN that reaches the output is an error, not a non-standard 'NaN'."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "sweep", lambda spec: [NAN_RESULT] * len(spec.s_values))
    monkeypatch.setattr(cli, "schmidt", lambda *args: ([math.nan], math.nan))
    status, out, err = run_cli(command, capsys)
    assert status == 2
    assert out == ""
    assert err.startswith("error: ")
    assert list(tmp_path.iterdir()) == []


def test_sweep_grid_ends_exactly_at_s_max(tmp_path, capsys):
    out_file = tmp_path / "curve.csv"
    status, _, err = run_cli(
        [
            "sweep", "--protocol", "four-photon", "--s-min", "0.1",
            "--s-max", "1", "--steps", "8", "--out", str(out_file),
        ],
        capsys,
    )
    assert status == 0, err
    rows = out_file.read_text().splitlines()
    assert len(rows) == 9
    assert rows[-1].split(",")[0] == "1"


def test_sweep_steps_beyond_cap_exits_2(tmp_path, capsys):
    out_file = tmp_path / "never.csv"
    status, out, err = run_cli(
        [
            "sweep", "--protocol", "four-photon", "--steps", "100000000000",
            "--out", str(out_file),
        ],
        capsys,
    )
    assert status == 2
    assert out == ""
    assert "steps" in err
    assert not out_file.exists()


def test_sweep_range_too_narrow_for_steps_exits_2(tmp_path, capsys):
    """[0.5, 0.5000000000000001] holds two floats, so three steps would repeat
    one; the message names the flag to change, not the grid it would make."""
    out_file = tmp_path / "never.csv"
    status, out, err = run_cli(
        [
            "sweep", "--protocol", "two-photon", "--s-min", "0.5",
            "--s-max", "0.5000000000000001", "--steps", "3", "--out", str(out_file),
        ],
        capsys,
    )
    assert status == 2
    assert out == ""
    assert err.startswith("error: ") and "steps" in err
    assert not out_file.exists()


def test_sweep_unwritable_path_exits_1(capsys):
    status, _, err = run_cli(
        [
            "sweep", "--protocol", "four-photon", "--steps", "2",
            "--out", "/nonexistent-dir/curve.csv",
        ],
        capsys,
    )
    assert status == 1
    assert "cannot write" in err


def test_config_file_supplies_defaults_cli_wins(tmp_path, capsys):
    config = tmp_path / "defaults.cfg"
    config.write_text("protocol = four-photon\nr = 0.95\ncos-phi = 0.95\ns = 1\n")
    status, out, _ = run_cli(["run", "--config", str(config)], capsys)
    assert status == 0
    expected = run_four_photon(0.95, math.acos(0.95), 1.0)
    assert json.loads(out)["f_upper"] == pytest.approx(expected.f_upper, abs=1e-12)

    # command-line value overrides the config file
    status, out, _ = run_cli(["run", "--config", str(config), "--r", "1"], capsys)
    assert status == 0
    assert json.loads(out)["f_upper"] < 1.0  # cos-phi 0.95 still from config


def test_config_file_is_read_up_to_its_bound(tmp_path, capsys):
    """A config file of ``CONFIG_BYTES`` runs; one byte more, or an endless
    file such as ``/dev/zero``, exits 2 naming the path instead of reading
    until memory runs out."""
    argv = ["run", "--protocol", "four-photon", "--s", "0.5", "--config"]
    line = b"#" * 63 + b"\n"
    at_bound = tmp_path / "at-bound.cfg"
    at_bound.write_bytes(line * (cli.CONFIG_BYTES // len(line)))
    assert at_bound.stat().st_size == cli.CONFIG_BYTES
    status, out, err = run_cli(argv + [str(at_bound)], capsys)
    assert (status, err) == (0, "")
    assert json.loads(out)["s"] == 0.5
    over = tmp_path / "over.cfg"
    over.write_bytes(at_bound.read_bytes() + b"#")
    paths = [str(over)]
    if os.path.exists("/dev/zero"):
        paths.append("/dev/zero")
    for path in paths:
        status, out, err = run_cli(argv + [path], capsys)
        assert (status, out) == (2, "")
        (message,) = err.splitlines()
        assert message == (
            f"error: {path}: config file holds more than {cli.CONFIG_BYTES} bytes"
        )


@pytest.mark.parametrize("command", [["run"], ["sweep", "--out", "x.csv"], ["state"]])
def test_unknown_config_key_exits_2(command, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    config = tmp_path / "typo.cfg"
    config.write_text("protocol = two-photon\ns = 1\ncosphi = 0.9\n")
    status, out, err = run_cli(command + ["--config", str(config)], capsys)
    assert status == 2
    assert out == ""
    assert "cosphi" in err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("command", [["run"], ["sweep", "--out", "x.csv"], ["state"]])
def test_duplicate_config_key_exits_2(command, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    config = tmp_path / "twice.cfg"
    config.write_text("protocol = two-photon\ns = 1\nr = 0.5\n# again\nr = 0.9\n")
    status, out, err = run_cli(command + ["--config", str(config)], capsys)
    assert status == 2
    assert out == ""
    assert "'r'" in err
    assert ":5:" in err and "line 3" in err
    assert not (tmp_path / "x.csv").exists()



@pytest.mark.parametrize(
    "command,line,key",
    [
        (["run", "--protocol", "two-photon", "--s", "1"], "r = abc", "r"),
        (["sweep", "--protocol", "two-photon", "--out", "x.csv"], "steps = 2.5", "steps"),
        (["state"], "pairs = two", "pairs"),
        # every key is checked, whether or not the subcommand reads it or a
        # flag overrides it
        (["state"], "steps = abc", "steps"),
        (["state"], "format = xml", "format"),
        (["run", "--protocol", "two-photon", "--s", "1"], "pairs = two", "pairs"),
        (["sweep", "--protocol", "two-photon", "--out", "x.csv"], "s = abc", "s"),
        (["run", "--protocol", "two-photon", "--s", "1", "--r", "1"], "r = abc", "r"),
        # a byte-order mark is no part of the first key
        (["run", "--protocol", "two-photon", "--s", "1"], "\ufeffr = abc", "r"),
    ],
    ids=["run", "sweep", "state", "state-steps", "state-format", "run-pairs",
         "sweep-s", "overridden-r", "byte-order-mark"],
)
def test_unconvertible_config_value_exits_2(
    command, line, key, tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)
    config = tmp_path / "bad.cfg"
    config.write_text(line + "\n", encoding="utf-8")
    status, out, err = run_cli(command + ["--config", str(config)], capsys)
    assert status == 2
    assert out == ""
    assert err.startswith("error: ")
    assert f"config value for '{key}' is invalid" in err
    assert list(tmp_path.iterdir()) == [config]

def test_config_key_naming_a_config_file_exits_2(tmp_path, capsys):
    config = tmp_path / "nested.cfg"
    config.write_text("protocol = two-photon\ns = 1\nconfig = /nonexistent.cfg\n")
    status, out, err = run_cli(["run", "--config", str(config)], capsys)
    assert status == 2
    assert out == ""
    assert "unknown config key 'config'" in err


def test_config_keys_of_other_subcommands_are_accepted(tmp_path, capsys):
    config = tmp_path / "shared.cfg"
    config.write_text(
        "protocol = two-photon\ns = 1\npairs = 2\nsteps = 3\nformat = json\n"
    )
    status, out, _ = run_cli(["state", "--config", str(config)], capsys)
    assert status == 0
    assert json.loads(out)["params"]["pairs"] == 2
    status, out, _ = run_cli(["run", "--config", str(config)], capsys)
    assert status == 0
    assert json.loads(out)["params"]["protocol"] == "two-photon"


@pytest.mark.parametrize(
    "command,config_line,names",
    [
        (["run", "--s", "1"], "protocol = bogus", ["protocol", "bogus"]),
        (
            ["sweep", "--protocol", "two-photon", "--out", "x.csv"],
            "format = xml",
            ["format", "xml"],
        ),
        (["state", "--pairs", "3"], None, ["--pairs"]),
        (["state"], "pairs = 3", ["--pairs"]),
        (["run", "--s", "1"], None, ["--protocol"]),
        (["sweep", "--out", "x.csv"], None, ["--protocol"]),
        (["run", "--protocol", "two-photon"], None, ["--s"]),
        (["sweep", "--protocol", "two-photon"], None, ["--out"]),
        (
            ["sweep", "--protocol", "two-photon", "--out", "x.csv",
             "--config", "missing.cfg"],
            None,
            ["missing.cfg"],
        ),
        (["run", "--protocol", "two-photon", "--s", "1", "--config", ""], None, ["''"]),
        (
            ["sweep", "--protocol", "two-photon", "--out", "x.csv", "--config", ""],
            None,
            ["''"],
        ),
        (["state", "--config", ""], None, ["''"]),
        (
            ["sweep", "--protocol", "two-photon", "--out", "x.csv"],
            "r 0.5",
            ["bad.cfg:1: expected 'key = value'"],
        ),
        (["state"], b"\xffr = 1", ["bad.cfg:1: byte 1 is not UTF-8"]),
        (
            ["state"],
            b"\xef\xbb\xbfr = 1\r\npairs = \xe9",
            ["bad.cfg:2: byte 9 is not UTF-8"],
        ),
    ],
    ids=[
        "config-protocol",
        "config-format",
        "pairs-flag",
        "config-pairs",
        "run-no-protocol",
        "sweep-no-protocol",
        "run-no-s",
        "sweep-no-out",
        "missing-config-file",
        "run-empty-config",
        "sweep-empty-config",
        "state-empty-config",
        "config-line-without-equals",
        "config-not-utf-8",
        "config-not-utf-8-on-line-2",
    ],
)
def test_bad_or_missing_value_exits_2_naming_it(
    command, config_line, names, tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)
    if config_line is not None:
        if isinstance(config_line, str):
            config_line = config_line.encode()
        (tmp_path / "bad.cfg").write_bytes(config_line + b"\n")
        command = command + ["--config", "bad.cfg"]
    status, out, err = run_cli(command, capsys)
    assert status == 2
    assert out == ""
    assert err.startswith("error: ")
    for name in names:
        assert name in err
    assert not (tmp_path / "x.csv").exists()


def test_state_diagnostics(capsys):
    status, out, _ = run_cli(
        ["state", "--pairs", "2", "--r", "1", "--phi", "0"], capsys
    )
    assert status == 0
    payload = json.loads(out)
    assert payload["mode_order"] == [
        "a1H", "a1V", "a2H", "a2V", "b1H", "b1V", "b2H", "b2V"
    ]
    assert payload["entropy_ebits"] == pytest.approx(math.log2(10), abs=1e-9)
    assert len(payload["terms"]) == 10
    assert len(payload["schmidt_coefficients"]) == 10
    # the ten kets have equal weights, and so do the ten Schmidt terms, to
    # the last bit
    assert {tuple(term["amplitude"]) for term in payload["terms"]} == {(0.31622776601683794, 0.0)}
    assert payload["schmidt_coefficients"] == [0.31622776601683794] * 10

    status, out, _ = run_cli(["state", "--pairs", "1"], capsys)
    payload = json.loads(out)
    assert payload["entropy_ebits"] == pytest.approx(2.0, abs=1e-9)
    assert [term["amplitude"] for term in payload["terms"]] == [[0.5, 0.0]] * 4

    status, out, _ = run_cli(["state", "--pairs", "1", "--r", "0"], capsys)
    assert json.loads(out)["entropy_ebits"] == pytest.approx(1.0, abs=1e-9)


def test_state_shows_every_term_of_the_source(capsys):
    """At r = 1e-9 the two-pair state shows all ten kets: the three with two
    lower pairs have amplitude r^2 / sqrt(N(r)), N = 3 + 4 r^2 + 3 r^4, about
    5.8e-19, which a 1e-14 storage tolerance used to drop.  The Schmidt
    coefficients and the entropy stay those of the seven larger kets."""
    r = 1e-9
    status, out, _ = run_cli(["state", "--pairs", "2", "--r", repr(r), "--phi", "0"], capsys)
    assert status == 0
    payload = json.loads(out)
    assert len(payload["terms"]) == 10
    smallest = [
        term["amplitude"] for term in payload["terms"]
        if term["occupations"][2] + term["occupations"][3] == 2
    ]
    assert len(smallest) == 3
    expected = r * r / math.sqrt(3 + 4 * r * r + 3 * r**4)
    for real, imag in smallest:
        assert abs(real - expected) <= 1e-30 and imag == 0.0
    assert payload["schmidt_coefficients"] == (
        [0.5773502691896258] * 3 + [5.773502691896259e-10] * 4
    )
    assert payload["entropy_ebits"] == 1.584962500721156


#: pairs, r and phi of the ``state`` runs whose output may not depend on how
#: the builtin ``sum`` rounds
STATE_SUM_GRID = tuple(itertools.product(
    (1, 2), (0, 1e-9, 0.3, 0.7, 0.9, 0.95, 1), (0, 0.45, 2, 3.1)
))


def _state_outputs(capsys):
    return [
        run_cli(["state", "--pairs", str(pairs), "--r", repr(r), "--phi", repr(phi)], capsys)[1]
        for pairs, r, phi in STATE_SUM_GRID
    ]


def test_no_state_output_depends_on_how_sum_rounds(monkeypatch, capsys):
    """With a compensated ``sum`` in ``fock``, ``analysis`` and ``source``,
    each of the 56 ``state`` outputs on the grid is the same, byte for byte:
    the source norm, the Jacobi inner products and the entropy are
    fixed-order loops.  (``PureState.norm`` still calls ``sum``, but only
    for ``schmidt``'s 1e-9 normalization check.)"""
    expected = _state_outputs(capsys)
    assert len(expected) == 56
    for module in (fock_module, analysis_module, source_module):
        monkeypatch.setattr(module, "sum", compensated_sum, raising=False)
    assert _state_outputs(capsys) == expected


@pytest.mark.parametrize("module, names", [
    (source_module, ("spatially_entangled_state",)),
    (analysis_module, ("_singular_values", "schmidt")),
])
def test_state_calls_no_builtin_sum(module, names):
    """The functions behind ``state``'s numbers call no builtin ``sum``,
    which compensates from Python 3.12 on and so could move an output bit."""
    for name in names:
        assert "sum" not in called_names(module, name), name


#: runs each command in one interpreter; prints its exit status, whether numpy
#: is loaded, and which of the heavy stdlib modules (``dataclasses`` pulls in
#: the rest) the package has added to those of a bare interpreter
NUMPY_PROBE = """
import sys
bare = set(sys.modules)
import json
from pdcpurify.cli import main
heavy = {"dataclasses", "inspect", "ast", "dis", "tokenize", "fractions", "decimal"}
for argv in json.loads(sys.argv[1]):
    status = main(argv)
    print(status, "numpy" in sys.modules, *sorted(heavy & set(sys.modules) - bare),
          file=sys.stderr)
"""


def test_no_command_imports_numpy(tmp_path):
    """Every command works in one fresh interpreter without loading numpy,
    ``dataclasses`` and what it imports, or ``fractions`` and ``decimal`` (a
    row is built in integers): ``run`` per protocol, both sweeps and ``state``
    for one and for two pairs, whose Schmidt decomposition is pure Python."""
    commands = [["run", "--protocol", kind.value, "--s", "0.5"] for kind in ProtocolKind]
    commands += [
        ["sweep", "--protocol", "four-photon", "--steps", "3", "--out", "c.csv"],
        ["sweep", "--protocol", "two-photon", "--steps", "3", "--format", "json",
         "--out", "c.json"],
        ["state", "--pairs", "1"],
        ["state", "--pairs", "2"],
    ]
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run(
        [sys.executable, "-c", NUMPY_PROBE, json.dumps(commands)],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stderr.splitlines() == ["0 False"] * len(commands)
    assert (tmp_path / "c.csv").is_file() and (tmp_path / "c.json").is_file()
    assert done.stdout.count('"p_success"') == 3
    assert done.stdout.count('"schmidt_coefficients"') == 2


def test_outputs_are_the_same_under_every_hash_seed(tmp_path):
    """Each command prints and writes the same bytes under two hash seeds, so
    no output follows the order of a ``str``-hashed ``set`` or ``dict``:
    ``run`` per protocol, a JSON ``sweep`` to a file and ``state --pairs 2``,
    each seed in its own interpreter and directory."""
    commands = [
        ["run", "--protocol", kind.value, "--r", "0.9", "--phi", "0.45", "--s", "0.5"]
        for kind in ProtocolKind
    ]
    commands += [
        ["sweep", "--protocol", "four-photon", "--r", "0.9", "--phi", "0.45",
         "--steps", "5", "--format", "json", "--out", "c.json"],
        ["state", "--pairs", "2"],
    ]
    src = Path(__file__).resolve().parent.parent / "src"
    outputs = []
    for seed in ("0", "12345"):
        cwd = tmp_path / seed
        cwd.mkdir()
        done = subprocess.run(
            [sys.executable, "-c", NUMPY_PROBE, json.dumps(commands)],
            cwd=cwd,
            env={**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": seed},
            capture_output=True,
            timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert done.stderr.splitlines() == [b"0 False"] * len(commands)
        outputs.append((done.stdout, (cwd / "c.json").read_bytes()))
    assert outputs[0] == outputs[1]
    stdout, written = outputs[0]
    assert stdout.count(b'"p_success"') == 3 and b'"schmidt_coefficients"' in stdout
    assert written.count(b'"p_success"') == 5


def test_module_entry_point_exit_status(tmp_path):
    """``python -m pdcpurify.cli`` turns ``main``'s return value into the exit
    status: 0 on success, 2 on a bad input, 1 on an unwritable ``--out``."""
    src = Path(__file__).resolve().parent.parent / "src"

    def cli_process(*argv):
        return subprocess.run(
            [sys.executable, "-m", "pdcpurify.cli", *argv],
            cwd=tmp_path,
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
            timeout=60,
        )

    done = cli_process("run", "--protocol", "two-photon", "--s", "1")
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["params"]["protocol"] == "two-photon"

    done = cli_process("state", "--config", "missing.cfg")
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr.startswith("error: ")

    done = cli_process(
        "sweep", "--protocol", "two-photon", "--steps", "2",
        "--out", str(tmp_path / "no-such-dir" / "curve.csv"),
    )
    assert done.returncode == 1
    assert "cannot write" in done.stderr


def _run_r(out, path):
    return json.loads(out)["params"]["r"]


def _sweep_rows(out, path):
    return len((path / "c.csv").read_text().splitlines()) - 1


def _state_pairs(out, path):
    return json.loads(out)["params"]["pairs"]


@pytest.mark.parametrize(
    "command,key,read,layers",
    [
        (["run", "--protocol", "two-photon", "--s", "1"], "r", _run_r,
         (1.0, "0.5", "0.25")),
        (["sweep", "--protocol", "two-photon", "--out", "c.csv"], "steps", _sweep_rows,
         (21, "3", "4")),
        (["state"], "pairs", _state_pairs, (1, "2", "1")),
    ],
    ids=["run", "sweep", "state"],
)
def test_flag_beats_config_beats_builtin_default(
    command, key, read, layers, tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)
    default, config_value, flag_value = layers
    (tmp_path / "layer.cfg").write_text(f"{key} = {config_value}\n")
    config = ["--config", "layer.cfg"]
    for argv, expected in [
        (command, default),
        (command + config, type(default)(config_value)),
        (command + config + [f"--{key}", flag_value], type(default)(flag_value)),
    ]:
        status, out, err = run_cli(argv, capsys)
        assert status == 0, err
        assert read(out, tmp_path) == expected


#: the flags that each subcommand takes, besides --help
OWN_FLAGS = {
    "run": {"--config", "--r", "--phi", "--cos-phi", "--protocol", "--s"},
    "sweep": {"--config", "--r", "--phi", "--cos-phi", "--protocol", "--s-min",
              "--s-max", "--steps", "--out", "--format"},
    "state": {"--config", "--r", "--phi", "--cos-phi", "--pairs"},
}


@pytest.mark.parametrize("command", sorted(OWN_FLAGS))
def test_help_names_exactly_the_subcommands_own_flags(command, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--help"])
    assert exit_info.value.code == 0
    out = capsys.readouterr().out
    assert set(re.findall(r"--[a-z][a-z-]*", out)) == OWN_FLAGS[command] | {"--help"}


@pytest.mark.parametrize(
    "command",
    [
        ["run", "--protocol", "two-photon", "--s", "1"],
        ["sweep", "--protocol", "two-photon", "--out", "x.csv"],
        ["state"],
    ],
    ids=["run", "sweep", "state"],
)
def test_main_dispatches_through_the_module_attribute(command, monkeypatch):
    """A function installed as ``cli._cmd_<command>`` after import is the one
    that ``main`` calls; wrappers that patch the module rely on this."""
    calls = []
    monkeypatch.setattr(cli, f"_cmd_{command[0]}", lambda args: calls.append(args) or 7)
    assert main(command + ["--r", "0.5"]) == 7
    (args,) = calls
    assert args.r == 0.5

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import run_direct
from pdcpurify import ProtocolKind, ProtocolResult, bbpssw_fidelity, run_four_photon
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
    with pytest.raises(SystemExit) as excinfo:
        main(["run", "--protocol", "bogus", "--s", "1"])
    assert excinfo.value.code == 2


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
    ],
    ids=["run", "sweep", "state", "state-steps", "state-format", "run-pairs",
         "sweep-s", "overridden-r"],
)
def test_unconvertible_config_value_exits_2(
    command, line, key, tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)
    config = tmp_path / "bad.cfg"
    config.write_text(line + "\n")
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
    ],
)
def test_bad_or_missing_value_exits_2_naming_it(
    command, config_line, names, tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)
    if config_line is not None:
        (tmp_path / "bad.cfg").write_text(config_line + "\n")
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

    status, out, _ = run_cli(["state", "--pairs", "1"], capsys)
    assert json.loads(out)["entropy_ebits"] == pytest.approx(2.0, abs=1e-9)

    status, out, _ = run_cli(["state", "--pairs", "1", "--r", "0"], capsys)
    assert json.loads(out)["entropy_ebits"] == pytest.approx(1.0, abs=1e-9)


#: runs each command in one interpreter; prints its exit status, whether numpy
#: is loaded, and which of the heavy stdlib modules (``dataclasses`` pulls in
#: the rest) the package has added to those of a bare interpreter
NUMPY_PROBE = """
import sys
bare = set(sys.modules)
import json
from pdcpurify.cli import main
heavy = {"dataclasses", "inspect", "ast", "dis", "tokenize"}
for argv in json.loads(sys.argv[1]):
    status = main(argv)
    print(status, "numpy" in sys.modules, *sorted(heavy & set(sys.modules) - bare),
          file=sys.stderr)
"""


def test_only_state_imports_numpy(tmp_path):
    """``run`` and ``sweep`` work in a fresh interpreter without loading numpy
    or ``dataclasses`` and what it imports; ``state``, which needs numpy for the
    Schmidt decomposition, still works and loads no ``dataclasses`` either."""
    commands = [["run", "--protocol", kind.value, "--s", "0.5"] for kind in ProtocolKind]
    commands += [
        ["sweep", "--protocol", "four-photon", "--steps", "3", "--out", "c.csv"],
        ["sweep", "--protocol", "two-photon", "--steps", "3", "--format", "json",
         "--out", "c.json"],
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
    *lines, state_line = done.stderr.splitlines()
    assert lines == ["0 False"] * 5
    # numpy itself imports inspect, ast, dis and tokenize, but not dataclasses
    assert state_line.startswith("0 True") and "dataclasses" not in state_line
    assert (tmp_path / "c.csv").is_file() and (tmp_path / "c.json").is_file()
    assert done.stdout.count('"p_success"') == 3
    assert '"schmidt_coefficients"' in done.stdout


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

import json
import math

import pytest

from helpers import run_direct
from pdcpurify import ProtocolKind, bbpssw_fidelity, run_four_photon
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


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "command",
    [
        ["run", "--protocol", "independent-pairs", "--s", "1"],
        ["run", "--protocol", "four-photon", "--s", "1"],
        ["sweep", "--protocol", "two-photon", "--out", "ignored.csv"],
        ["state", "--pairs", "2"],
    ],
    ids=["run-independent-pairs", "run-four-photon", "sweep", "state"],
)
def test_non_finite_phi_exits_2(command, value, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    status, out, err = run_cli(command + [f"--phi={value}"], capsys)
    assert status == 2
    assert out == ""
    assert "--phi" in err
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


def test_state_diagnostics(capsys):
    status, out, _ = run_cli(
        ["state", "--pairs", "2", "--r", "1", "--phi", "0"], capsys
    )
    assert status == 0
    payload = json.loads(out)
    assert payload["entropy_ebits"] == pytest.approx(math.log2(10), abs=1e-9)
    assert len(payload["terms"]) == 10
    assert len(payload["schmidt_coefficients"]) == 10

    status, out, _ = run_cli(["state", "--pairs", "1"], capsys)
    assert json.loads(out)["entropy_ebits"] == pytest.approx(2.0, abs=1e-9)

    status, out, _ = run_cli(["state", "--pairs", "1", "--r", "0"], capsys)
    assert json.loads(out)["entropy_ebits"] == pytest.approx(1.0, abs=1e-9)

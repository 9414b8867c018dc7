"""Command-line interface: single runs, fidelity-curve sweeps and state
diagnostics, with machine-readable output."""

from __future__ import annotations

import argparse
import json
import math
import sys

from .analysis import schmidt
from .fock import MODES, Mode
from .protocol import ProtocolKind, ProtocolResult, SweepSpec, linear_grid, sweep
from .source import SourceParams, spatially_entangled_state

CSV_HEADER = "s,f_in,p_success,f_upper,f_lower"


def _fmt(value: float | None) -> str:
    if value is None:
        return ""
    if not math.isfinite(value):
        raise ValueError(f"non-finite result {value}")
    return format(value, ".12g")


def _json(payload) -> str:
    """Indented JSON text; a NaN or infinity raises instead of being written."""
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def _result_row(result: ProtocolResult) -> str:
    return ",".join(
        [
            _fmt(result.params["s"]),
            _fmt(result.f_in),
            _fmt(result.p_success),
            _fmt(result.f_upper),
            _fmt(result.f_lower),
        ]
    )


def _read_config(path: str, known: set[str]) -> dict[str, str]:
    """Parse a plain ``key = value`` defaults file; keys must be in ``known``
    and appear once."""
    defaults: dict[str, str] = {}
    lines: dict[str, int] = {}
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = (part.strip() for part in line.partition("="))
            if key not in known:
                raise ValueError(f"{path}:{lineno}: unknown config key '{key}'")
            if key in lines:
                raise ValueError(
                    f"{path}:{lineno}: config key '{key}' is already set on "
                    f"line {lines[key]}"
                )
            defaults[key] = value
            lines[key] = lineno
    return defaults


def _flag_names(parser: argparse.ArgumentParser) -> set[str]:
    """Long names, without ``--``, of the value-taking flags of all subcommands.

    ``config`` is left out: a config file cannot name another config file.
    """
    (commands,) = [
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    ]
    actions = [a for p in commands.choices.values() for a in p._actions if a.nargs != 0]
    names = {o[2:] for a in actions for o in a.option_strings if o.startswith("--")}
    return names - {"config"}


class CliError(Exception):
    """Bad flag combination or out-of-range value (exit status 2)."""


def _resolve(args, config: dict[str, str], name: str, cast, default=None):
    """Command-line value if given, else config file, else default."""
    value = getattr(args, name.replace("-", "_"), None)
    if value is not None:
        return value
    if name in config:
        try:
            return cast(config[name])
        except ValueError as exc:
            raise CliError(f"config value for '{name}' is invalid: {exc}")
    return default


def _resolve_protocol(args, config: dict[str, str]) -> ProtocolKind:
    protocol = _resolve(args, config, "protocol", str)
    if protocol is None:
        raise CliError("--protocol is required")
    try:
        return ProtocolKind(protocol)
    except ValueError:
        raise CliError(f"unknown protocol '{protocol}'")


def _resolve_phi(args, config: dict[str, str]) -> float:
    """Phase from --phi or --cos-phi; either flag beats either config key."""
    if args.phi is not None and args.cos_phi is not None:
        raise CliError("give either --phi or --cos-phi, not both")
    if "phi" in config and "cos-phi" in config:
        raise CliError("config file sets both 'phi' and 'cos-phi'; keep one")
    if args.phi is None and args.cos_phi is None:
        phi = _resolve(args, config, "phi", float)
        cos_phi = _resolve(args, config, "cos-phi", float)
    else:
        phi, cos_phi = args.phi, args.cos_phi
    if cos_phi is not None:
        if not -1.0 <= cos_phi <= 1.0:
            raise CliError(f"--cos-phi must be in [-1, 1], got {cos_phi}")
        return math.acos(cos_phi)
    if phi is not None and not math.isfinite(phi):
        raise CliError(f"--phi must be finite, got {phi}")
    return 0.0 if phi is None else phi


def _check_unit(name: str, value: float) -> float:
    if not 0.0 <= value <= 1.0:
        raise CliError(f"--{name} must be in [0, 1], got {value}")
    return value


def _cmd_run(args, config) -> int:
    kind = _resolve_protocol(args, config)
    s = _resolve(args, config, "s", float)
    if s is None:
        raise CliError("--s is required")
    _check_unit("s", s)
    r = _check_unit("r", _resolve(args, config, "r", float, 1.0))
    phi = _resolve_phi(args, config)
    result = sweep(SweepSpec((s,), r=r, phi=phi, protocol=kind))[0]
    sys.stdout.write(_json(result.as_dict()))
    return 0


def _cmd_sweep(args, config) -> int:
    kind = _resolve_protocol(args, config)
    r = _check_unit("r", _resolve(args, config, "r", float, 1.0))
    phi = _resolve_phi(args, config)
    s_min = _check_unit("s-min", _resolve(args, config, "s-min", float, 0.0))
    s_max = _check_unit("s-max", _resolve(args, config, "s-max", float, 1.0))
    if s_min >= s_max:
        raise CliError(f"--s-min must be below --s-max, got {s_min} and {s_max}")
    steps = _resolve(args, config, "steps", int, 21)
    out_path = _resolve(args, config, "out", str)
    if out_path is None:
        raise CliError("--out is required")
    out_format = _resolve(args, config, "format", str, "csv")
    if out_format not in ("csv", "json"):
        raise CliError(f"--format must be csv or json, got '{out_format}'")
    try:
        grid = linear_grid(s_min, s_max, steps)
    except ValueError as exc:
        raise CliError(str(exc))

    results = sweep(SweepSpec(grid, r=r, phi=phi, protocol=kind))
    # serialized before the file is opened, so a rejected value leaves no file
    if out_format == "csv":
        rows = [CSV_HEADER] + [_result_row(result) for result in results]
        text = "".join(row + "\n" for row in rows)
    else:
        text = _json([result.as_dict() for result in results])
    try:
        with open(out_path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
    except OSError as exc:
        print(f"error: cannot write '{out_path}': {exc}", file=sys.stderr)
        return 1
    return 0


def _cmd_state(args, config) -> int:
    pairs = _resolve(args, config, "pairs", int, 1)
    if pairs not in (1, 2):
        raise CliError(f"--pairs must be 1 or 2, got {pairs}")
    r = _check_unit("r", _resolve(args, config, "r", float, 1.0))
    phi = _resolve_phi(args, config)
    state = spatially_entangled_state(SourceParams(r=r, phi=phi, pairs=pairs))
    coefficients, entropy = schmidt(
        state, [m for m in MODES if m < Mode.B1H], [m for m in MODES if m >= Mode.B1H]
    )
    payload = {
        "mode_order": [m.label for m in MODES],
        "terms": [
            {
                "occupations": list(occ),
                "amplitude": [amp.real, amp.imag],
            }
            for occ, amp in state.terms()
        ],
        "schmidt_coefficients": coefficients,
        "entropy_ebits": entropy,
        "params": {"r": r, "phi": phi, "pairs": pairs},
    }
    sys.stdout.write(_json(payload))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pdcpurify",
        description="Simulate beam-splitter purification of polarization "
        "entanglement from a two-pass pair source.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_source_flags(p, with_pairs=False):
        p.add_argument("--config", help="key = value file with flag defaults")
        p.add_argument("--r", type=float, help="lower-mode amplitude ratio in [0, 1]")
        p.add_argument("--phi", type=float, help="lower-mode phase in radians")
        p.add_argument(
            "--cos-phi",
            type=float,
            dest="cos_phi",
            help="set the phase via its cosine (alternative to --phi)",
        )
        if with_pairs:
            p.add_argument("--pairs", type=int, help="emitted pair count, 1 or 2")

    run_p = sub.add_parser("run", help="run one protocol instance, print JSON")
    sweep_p = sub.add_parser("sweep", help="run a grid of s values, write a file")
    for p in (run_p, sweep_p):
        add_source_flags(p)
        p.add_argument(
            "--protocol", choices=[k.value for k in ProtocolKind], help="which pipeline"
        )
    run_p.add_argument("--s", type=float, help="channel survival probability")
    sweep_p.add_argument("--s-min", type=float, dest="s_min")
    sweep_p.add_argument("--s-max", type=float, dest="s_max")
    sweep_p.add_argument("--steps", type=int, help="grid points (>= 2)")
    sweep_p.add_argument("--out", help="output file path")
    sweep_p.add_argument("--format", choices=["csv", "json"], help="output format")

    state_p = sub.add_parser("state", help="print source-state diagnostics as JSON")
    add_source_flags(state_p, with_pairs=True)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _read_config(args.config, _flag_names(parser)) if args.config else {}
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    commands = {"run": _cmd_run, "sweep": _cmd_sweep, "state": _cmd_state}
    try:
        return commands[args.command](args, config)
    except (CliError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

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

CSV_HEADER = ",".join(ProtocolResult.COLUMNS)


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
    return ",".join(_fmt(getattr(result, name)) for name in ProtocolResult.COLUMNS)


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


def _subcommands(parser) -> dict[str, argparse.ArgumentParser]:
    (commands,) = [
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    ]
    return commands.choices


def _flag_names(parser: argparse.ArgumentParser) -> dict[str, argparse.Action]:
    """Value-taking flags of all subcommands, by long name without ``--``.

    ``config`` is left out: a config file cannot name another config file.
    """
    actions = [
        a for p in _subcommands(parser).values() for a in p._actions if a.nargs != 0
    ]
    flags = {o[2:]: a for a in actions for o in a.option_strings if o.startswith("--")}
    del flags["config"]
    return flags


def _apply_config(parser: argparse.ArgumentParser, args) -> None:
    """Install the ``--config`` file's values as defaults of ``args.command``,
    each converted with its flag's ``type`` and checked against its ``choices``
    (every key, whichever subcommand runs). Either phase flag drops both phase keys.
    """
    flags = _flag_names(parser)
    config = _read_config(args.config, set(flags))
    if "phi" in config and "cos-phi" in config:
        raise ValueError("config file sets both 'phi' and 'cos-phi'; keep one")
    values = {}
    for key, text in config.items():
        action = flags[key]
        try:
            value = action.type(text) if action.type else text
            if action.choices is not None and value not in action.choices:
                raise ValueError(f"'{value}' is not one of {', '.join(action.choices)}")
        except ValueError as exc:
            raise ValueError(f"config value for '{key}' is invalid: {exc}")
        values[action.dest] = value
    if args.phi is not None or args.cos_phi is not None:
        values.pop("phi", None)
        values.pop("cos_phi", None)
    _subcommands(parser)[args.command].set_defaults(**values)


def _r_phi(args) -> tuple[float, float]:
    """--r, and the phase from --phi or --cos-phi (flags or config keys)."""
    r = _check_unit("r", args.r)
    if args.phi is not None and args.cos_phi is not None:
        raise ValueError("give either --phi or --cos-phi, not both")
    if args.cos_phi is not None:
        if not -1.0 <= args.cos_phi <= 1.0:
            raise ValueError(f"--cos-phi must be in [-1, 1], got {args.cos_phi}")
        return r, math.acos(args.cos_phi)
    phi = 0.0 if args.phi is None else args.phi
    if not math.isfinite(phi):
        raise ValueError(f"--phi must be finite, got {phi}")
    return r, phi


def _check_unit(name: str, value: float) -> float:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"--{name} must be in [0, 1], got {value}")
    return value


def _required(args, name: str):
    value = getattr(args, name)
    if value is None:
        raise ValueError(f"--{name} is required")
    return value


def _cmd_run(args) -> int:
    protocol = _required(args, "protocol")
    s = _check_unit("s", _required(args, "s"))
    r, phi = _r_phi(args)
    result = sweep(SweepSpec((s,), r=r, phi=phi, protocol=protocol))[0]
    sys.stdout.write(_json(result.as_dict()))
    return 0


def _cmd_sweep(args) -> int:
    protocol = _required(args, "protocol")
    r, phi = _r_phi(args)
    s_min = _check_unit("s-min", args.s_min)
    s_max = _check_unit("s-max", args.s_max)
    if s_min >= s_max:
        raise ValueError(f"--s-min must be below --s-max, got {s_min} and {s_max}")
    out_path = _required(args, "out")
    grid = linear_grid(s_min, s_max, args.steps)

    results = sweep(SweepSpec(grid, r=r, phi=phi, protocol=protocol))
    # serialized before the file is opened, so a rejected value leaves no file
    if args.format == "csv":
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


def _cmd_state(args) -> int:
    if args.pairs not in (1, 2):
        raise ValueError(f"--pairs must be 1 or 2, got {args.pairs}")
    r, phi = _r_phi(args)
    state = spatially_entangled_state(SourceParams(r=r, phi=phi, pairs=args.pairs))
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
        "params": {"r": r, "phi": phi, "pairs": args.pairs},
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

    run_p = sub.add_parser("run", help="run one protocol instance, print JSON")
    sweep_p = sub.add_parser("sweep", help="run a grid of s values, write a file")
    state_p = sub.add_parser("state", help="print source-state diagnostics as JSON")
    for p in (run_p, sweep_p, state_p):
        p.add_argument("--config", help="key = value file with flag defaults")
        p.add_argument(
            "--r", type=float, default=1.0, help="lower-mode amplitude ratio in [0, 1]"
        )
        p.add_argument("--phi", type=float, help="lower-mode phase in radians")
        p.add_argument(
            "--cos-phi",
            type=float,
            help="set the phase via its cosine (alternative to --phi)",
        )
    for p in (run_p, sweep_p):
        p.add_argument(
            "--protocol", choices=[k.value for k in ProtocolKind], help="which pipeline"
        )
    run_p.add_argument("--s", type=float, help="channel survival probability")
    sweep_p.add_argument("--s-min", type=float, default=0.0)
    sweep_p.add_argument("--s-max", type=float, default=1.0)
    sweep_p.add_argument("--steps", type=int, default=21, help="grid points (>= 2)")
    sweep_p.add_argument("--out", help="output file path")
    sweep_p.add_argument(
        "--format", choices=["csv", "json"], default="csv", help="output format"
    )
    state_p.add_argument(
        "--pairs", type=int, default=1, help="emitted pair count, 1 or 2"
    )

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.config:
        try:
            _apply_config(parser, args)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        args = parser.parse_args(argv)  # a flag on the command line still wins
    commands = {"run": _cmd_run, "sweep": _cmd_sweep, "state": _cmd_state}
    try:
        return commands[args.command](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

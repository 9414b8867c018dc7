"""Command-line interface: single runs, fidelity-curve sweeps and state
diagnostics, with machine-readable output."""

from __future__ import annotations

import argparse
import codecs
import json
import math
import sys

from .analysis import schmidt
from .fock import MODES, Mode, shown
from .protocol import (STEP_BOUNDS, ProtocolKind, ProtocolResult, SweepSpec,
                       linear_grid, sweep)
from .source import SourceParams, spatially_entangled_state

CSV_HEADER = ",".join(ProtocolResult.COLUMNS)
#: the most bytes a ``--config`` file may hold, far above any real one
CONFIG_BYTES = 1 << 20


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
    """Parse a plain ``key = value`` defaults file (UTF-8, with or without a
    byte-order mark); keys must be in ``known`` and appear once. A file that
    cannot be read (missing, a directory, ``''``) or holds more than
    ``CONFIG_BYTES`` (``/dev/zero``) raises ``ValueError``."""
    defaults: dict[str, str] = {}
    lines: dict[str, int] = {}
    try:
        with open(path, "rb") as handle:
            data = handle.read(CONFIG_BYTES + 1)
    except OSError as exc:
        raise ValueError(exc) from None
    if len(data) > CONFIG_BYTES:
        raise ValueError(f"{path}: config file holds more than {CONFIG_BYTES} bytes")
    data = data.removeprefix(codecs.BOM_UTF8)
    # bytes split where a text file does: at \n, \r and \r\n
    for lineno, raw in enumerate(data.splitlines(), start=1):
        try:
            line = raw.decode("utf-8").strip()
        except UnicodeDecodeError as exc:
            raise ValueError(
                f"{path}:{lineno}: byte {exc.start + 1} is not UTF-8 ({exc.reason})"
            ) from None
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = (part.strip() for part in line.partition("="))
        if key not in known:
            raise ValueError(f"{path}:{lineno}: unknown config key {shown(key)}")
        if key in lines:
            raise ValueError(
                f"{path}:{lineno}: config key {shown(key)} is already set on "
                f"line {lines[key]}"
            )
        defaults[key] = value
        lines[key] = lineno
    return defaults


def _config_values(path: str) -> dict:
    """The ``--config`` file's values by dest, converted and checked with their
    flag's type and choices whichever subcommand runs; ``config`` is no key."""
    values = {}
    for key, text in _read_config(path, set(_FLAGS) - {"config"}).items():
        options = _FLAGS[key][2]
        try:
            value = options.get("type", str)(text)
            choices = options.get("choices")
            if choices is not None and value not in choices:
                raise ValueError(f"{shown(value)} is not one of {', '.join(choices)}")
        except ValueError as exc:
            raise ValueError(f"config value for '{key}' is invalid: {exc}")
        values[key.replace("-", "_")] = value
    return values


def _error(message, status: int) -> int:
    """Print ``message`` as one ``error:`` line and return ``status``; a
    character that is not printable (a line break) is shown escaped."""
    text = "".join(c if c.isprintable() else repr(c)[1:-1] for c in str(message))
    print(f"error: {text}", file=sys.stderr)
    return status


def _cmd_run(args) -> int:
    result = sweep(SweepSpec((args.s,), r=args.r, phi=args.phi, protocol=args.protocol))[0]
    sys.stdout.write(_json(result.as_dict()))
    return 0


def _cmd_sweep(args) -> int:
    if args.s_min >= args.s_max:
        raise ValueError(
            f"--s-min must be below --s-max, got {args.s_min} and {args.s_max}"
        )
    grid = linear_grid(args.s_min, args.s_max, args.steps)

    results = sweep(SweepSpec(grid, r=args.r, phi=args.phi, protocol=args.protocol))
    # serialized before the file is opened, so a rejected value leaves no file
    if args.format == "csv":
        rows = [CSV_HEADER] + [_result_row(result) for result in results]
        text = "".join(row + "\n" for row in rows)
    else:
        text = _json([result.as_dict() for result in results])
    try:
        with open(args.out, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
    except OSError as exc:
        return _error(f"cannot write '{args.out}': {exc}", 1)
    return 0


def _cmd_state(args) -> int:
    state = spatially_entangled_state(SourceParams(args.r, args.phi, args.pairs))
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
        "params": {"r": args.r, "phi": args.phi, "pairs": args.pairs},
    }
    sys.stdout.write(_json(payload))
    return 0


#: each subcommand's help; ``main`` runs it as ``_cmd_<name>``, found at call time
_COMMANDS = {
    "run": "run one protocol instance, print JSON",
    "sweep": "run a grid of s values, write a file",
    "state": "print source-state diagnostics as JSON",
}
_EVERY = tuple(_COMMANDS)

#: the default of a flag that must be given, as a flag or a config key
_REQUIRED = object()


def _within(low, high):
    """The rule that a value lies in [low, high]: its words and its test."""
    return f"in [{low}, {high}]", lambda value: low <= value <= high


_UNIT = _within(0, 1)

#: each flag once, in help order: the subcommands that take it, its built-in
#: default, its argparse options, and the rule its value must meet once flags,
#: config and defaults are merged (the words that name it and its test), or None
_FLAGS = {
    "config": (_EVERY, None, dict(help="key = value file with flag defaults"), None),
    "r": (_EVERY, 1.0, dict(type=float, help="lower-mode amplitude ratio in [0, 1]"),
          _UNIT),
    "phi": (_EVERY, None, dict(type=float, help="lower-mode phase in radians"),
            ("finite", math.isfinite)),
    "cos-phi": (_EVERY, None, dict(
        type=float, help="set the phase via its cosine (alternative to --phi)"),
        _within(-1, 1)),
    "protocol": (("run", "sweep"), _REQUIRED, dict(
        choices=[k.value for k in ProtocolKind], help="which pipeline"), None),
    "s": (("run",), _REQUIRED, dict(type=float, help="channel survival probability"),
          _UNIT),
    "s-min": (("sweep",), 0.0, dict(type=float), _UNIT),
    "s-max": (("sweep",), 1.0, dict(type=float), _UNIT),
    "steps": (("sweep",), 21, dict(type=int, help="grid points (>= 2)"),
              _within(*STEP_BOUNDS)),
    "out": (("sweep",), _REQUIRED, dict(help="output file path"), None),
    "format": (("sweep",), "csv", dict(choices=["csv", "json"], help="output format"),
               None),
    "pairs": (("state",), 1, dict(type=int, help="emitted pair count, 1 or 2"),
              ("1 or 2", lambda value: value in (1, 2))),
}


class _Parser(argparse.ArgumentParser):
    """Takes each flag by its exact name only; raises a refusal as ValueError."""

    def __init__(self, **options):
        super().__init__(allow_abbrev=False, **options)

    def error(self, message):
        raise ValueError(message)


class _Once(argparse.Action):
    """Stores a flag's value and refuses the flag's second occurrence, in
    either spelling: each subparser suppresses defaults, so the namespace
    holds a flag's dest only once the flag is given."""

    def __call__(self, parser, namespace, values, option_string=None):
        if hasattr(namespace, self.dest):
            raise argparse.ArgumentError(self, "given twice; give it once")
        setattr(namespace, self.dest, values)


def build_parser() -> argparse.ArgumentParser:
    """The parser; its namespace holds ``command`` and only the flags given."""
    parser = _Parser(
        prog="pdcpurify",
        description="Simulate beam-splitter purification of polarization "
        "entanglement from a two-pass pair source.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        name: sub.add_parser(name, help=text, argument_default=argparse.SUPPRESS)
        for name, text in _COMMANDS.items()
    }
    for flag, (names, _, options, _) in _FLAGS.items():
        for name in names:
            commands[name].add_argument("--" + flag, action=_Once, **options)
    return parser


def _joined(argv: list[str]) -> list[str]:
    """``argv`` with each of the command's ``--flag`` joined to the next token
    as ``--flag=token`` unless that starts with ``--``: argparse alone takes
    ``-5e-1``, ``-inf`` or ``-lead.csv`` after a flag for an option."""
    command = next((token for token in argv if not token.startswith("-")), None)
    own = {"--" + flag for flag, row in _FLAGS.items() if command in row[0]}
    joined: list[str] = []
    for token in argv:
        if joined and joined[-1] in own and not token.startswith("--"):
            joined[-1] += "=" + token
        else:
            joined.append(token)
    return joined


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand and return 0, 1 or 2; only ``--help`` exits (0)."""
    try:
        argv = _joined(sys.argv[1:] if argv is None else argv)
        given = vars(build_parser().parse_args(argv))
        command = given.pop("command")
        config = _config_values(given["config"]) if "config" in given else {}
        rows = {flag: row for flag, row in _FLAGS.items() if command in row[0]}
        defaults = {flag.replace("-", "_"): row[1] for flag, row in rows.items()}
        # a config value beats a built-in default; a flag given beats both, and
        # the phase is one setting: either phase flag replaces both config keys
        phase = given if "phi" in given or "cos_phi" in given else config
        args = {**defaults, **config, **given,
                "phi": phase.get("phi", 0.0), "cos_phi": phase.get("cos_phi")}
        for flag, (_, _, _, rule) in rows.items():
            value = args[flag.replace("-", "_")]
            if value is _REQUIRED:
                raise ValueError(f"--{flag} is required")
            if rule is not None and value is not None and not rule[1](value):
                raise ValueError(f"--{flag} must be {rule[0]}, got {value}")
        if "phi" in config and "cos_phi" in config:
            raise ValueError("config file sets both 'phi' and 'cos-phi'; keep one")
        if "phi" in given and "cos_phi" in given:
            raise ValueError("give either --phi or --cos-phi, not both")
        if args["cos_phi"] is not None:
            args["phi"] = math.acos(args["cos_phi"])
        return globals()[f"_cmd_{command}"](argparse.Namespace(**args))
    except ValueError as exc:
        return _error(exc, 2)


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Benchmark of the pdcpurify simulator, timed from outside the package.

Run from the repository root; the package is imported from ``src`` and the
CLI is started as ``python -m pdcpurify.cli``, so nothing needs installing:

    python3 bench/run.py --workload curves --seed 1 --seconds 10 --trace 0

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it is a report with the
environment (python, numpy, nproc), sample counts and ``error_rate``.
Every workload is a closed loop with one client: calls are made one after
another in this process (or one child process at a time), no threads.

Workloads (inputs come only from ``--seed``):

- ``curves``: the README figure through ``sweep()``: four-photon curves at
  r = cos(phi) = 1, 0.95, 0.9, the independent-pairs curve and a two-photon
  curve at r = cos(phi) = 0.95, each on a 51-point s grid whose first point
  the seed jitters.  Many points share one (r, phi).
- ``scan``: seeded (r, phi, s) points, one ``run_*`` call each, the three
  protocols in equal shares, no two calls sharing (r, phi).  Edge cases
  recur: r = 0, s = 0, s = 1, and phi near pi, where f -> 0.
- ``cli``: cold ``python -m pdcpurify.cli`` processes, one at a time, in
  cycles of ten: ``run`` per protocol at two points, ``state --pairs 1`` and
  ``2``, and a 21-point four-photon ``sweep`` to a file as CSV and as JSON.

``curves`` and ``scan`` also run two such CLI cycles (the CLI probe), one
process at a time spread evenly over the timed phase, so that every metric
has samples on every workload.

End-to-end metrics (``--trace 0``); "request" is one ``sweep()`` call in
curves, one ``run_*`` call in scan and one CLI process in cli.  The shared
machine this was built on changes speed by up to 1.8x within seconds, so
every request's wall time is scaled to a reference speed: a fixed
pure-Python kernel is timed just before and after each request, and the
wall time is multiplied by REFERENCE_S over the mean of the two readings.
The process and its children are pinned to one CPU so that the kernel runs
where the request ran.  Unscaled wall-clock values are in the report line.

- ``setup_s``: median wall time of a fresh interpreter running
  ``import pdcpurify``, measured before the timed phase.
- ``points_per_s``: result rows per second of the timed phase (a CLI
  ``run`` gives 1 row, ``sweep`` 21, ``state`` none).
- ``runs_per_s``: requests per second of the timed phase.
- ``curve_s_p50``: median wall time to deliver one curve-sized batch of
  points: a ``sweep()`` call (curves), 51 consecutive scan calls (scan), a
  CLI ``sweep`` process (cli).
- ``four_ms_p50``/``_p90``, ``two_ms_*``, ``indep_ms_*``: wall time per
  point of that protocol: sweep time over grid size (curves), one call
  (scan), one CLI ``run`` process (cli).
- ``cli_s_p50``/``_p90``: wall time per CLI process (the probe on curves
  and scan).
- ``peak_rss_mb``: maximum resident set of the process doing the work:
  this one for curves and scan, the children for cli.

Operations that raise or fail a check count in ``failed``; ``error_rate``
(failed over attempted) is in the report line.

``--trace 1`` runs one fixed unit of the workload plus one CLI cycle in
this process, untraced and then twice traced (see ``spans.py``), checks
that outputs are bit-identical and counts repeat, and reports per-layer
self times and counts, the CLI import split, and the tracing overhead
(traced minus untraced wall time).  Spans are written to ``.bench_out``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import pdcpurify  # noqa: E402
import pdcpurify.cli  # noqa: E402

if Path(pdcpurify.__file__).resolve().parent.parent != SRC:
    raise SystemExit(f"pdcpurify was imported from {pdcpurify.__file__}, not from {SRC}")

import checks  # noqa: E402
from spans import Tracer  # noqa: E402

WORKLOADS = ("curves", "scan", "cli")
PROTOCOLS = ("four-photon", "two-photon", "independent-pairs")
SHORT = {"four-photon": "four", "two-photon": "two", "independent-pairs": "indep"}
GRID_POINTS = 51
CLI_SWEEP_STEPS = 21
CLI_PROBE_CYCLES = 2
SETUP_SAMPLES = 15
IMPORT_SAMPLES = 5
SCAN_EDGE_PERIOD = 10
ORACLE_TWO_PHOTON = 4
CLI_TIMEOUT_S = 60
CALIBRATION_LOOPS = 600
CALIBRATION_REPEATS = 5
REFERENCE_S = 2e-4

CURVES = (
    ("four-photon", 1.0, 0.0),
    ("four-photon", 0.95, math.acos(0.95)),
    ("four-photon", 0.9, math.acos(0.9)),
    ("independent-pairs", 1.0, 0.0),
    ("two-photon", 0.95, math.acos(0.95)),
)

END_TO_END_UNITS = {
    "setup_s": "s",
    "points_per_s": "1/s",
    "curve_s_p50": "s",
    "runs_per_s": "1/s",
    **{f"{SHORT[p]}_ms_{q}": "ms" for p in PROTOCOLS for q in ("p50", "p90")},
    "cli_s_p50": "s",
    "cli_s_p90": "s",
    "peak_rss_mb": "MB",
}

CHILD_ENV = dict(os.environ)
CHILD_ENV["PYTHONPATH"] = os.pathsep.join(
    [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
)

now = time.perf_counter


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile, q in [0, 1]; 0.0 for no samples."""
    if not values:
        return 0.0
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def run_point(protocol: str, r, phi, s: float):
    if protocol == "four-photon":
        return pdcpurify.run_four_photon(r, phi, s)
    if protocol == "two-photon":
        return pdcpurify.run_two_photon(r, phi, s)
    return pdcpurify.run_independent_pairs(s)


class Op:
    """One request; ``run`` returns its wall time, or None if it raised."""

    rows = 1
    failure: str | None = None

    def run(self, inprocess: bool = True) -> float | None:
        try:
            return self.execute(inprocess)
        except Exception as exc:  # a failed request is counted, not fatal
            self.failure = f"{self!r}: {type(exc).__name__}: {exc}"
            return None

    def errors(self) -> list[str]:
        if self.failure:
            return [self.failure]
        try:
            return self.check()
        except Exception as exc:  # malformed output fails the check
            return [f"{self!r}: check raised {type(exc).__name__}: {exc}"]


class PointOp(Op):
    def __init__(self, protocol: str, r, phi, s: float):
        self.protocol, self.r, self.phi, self.s = protocol, r, phi, s
        self.result = None

    def __repr__(self):
        return f"run {self.protocol} r={self.r!r} phi={self.phi!r} s={self.s!r}"

    def execute(self, inprocess):
        start = now()
        self.result = run_point(self.protocol, self.r, self.phi, self.s)
        return now() - start

    def output(self) -> str:
        return repr(self.result.as_dict())

    def points(self):
        return [(self.protocol, self.r, self.phi, self.s, self.result)]

    def check(self):
        return checks.result_errors(self.protocol, self.r, self.phi, self.s, self.result)


class SweepOp(Op):
    def __init__(self, protocol: str, r: float, phi: float, grid: tuple[float, ...]):
        self.protocol, self.r, self.phi, self.grid = protocol, r, phi, grid
        self.rows = len(grid)
        self.results = None

    def __repr__(self):
        return f"sweep {self.protocol} r={self.r!r} phi={self.phi!r} from s={self.grid[0]!r}"

    def execute(self, inprocess):
        start = now()
        spec = pdcpurify.SweepSpec(
            self.grid, r=self.r, phi=self.phi, protocol=pdcpurify.ProtocolKind(self.protocol)
        )
        self.results = pdcpurify.sweep(spec)
        return now() - start

    def output(self) -> str:
        return repr([res.as_dict() for res in self.results])

    def points(self):
        return [(self.protocol, self.r, self.phi, s, res) for s, res in zip(self.grid, self.results)]

    def check(self):
        errors = [e for p in self.points() for e in checks.result_errors(*p)]
        return errors + checks.curve_errors(self.protocol, self.grid, self.results)


class CliOp(Op):
    """One CLI command, run as a child process or through ``cli.main``."""

    def __init__(self, kind: str, argv: list[str], out: Path | None = None, **params):
        self.kind, self.argv, self.out, self.params = kind, argv, out, params
        self.rows = {"run": 1, "sweep": CLI_SWEEP_STEPS}.get(kind, 0)
        self.returncode, self.stdout, self.stderr, self.text = None, "", "", ""
        self._reference = None

    def __repr__(self):
        return "pdcpurify " + " ".join(self.argv)

    def execute(self, inprocess):
        if inprocess:
            out, err = io.StringIO(), io.StringIO()
            start = now()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                self.returncode = pdcpurify.cli.main(self.argv)
            wall = now() - start
            self.stdout, self.stderr = out.getvalue(), err.getvalue()
        else:
            start = now()
            proc = subprocess.run(
                [sys.executable, "-m", "pdcpurify.cli", *self.argv],
                cwd=ROOT,
                env=CHILD_ENV,
                capture_output=True,
                text=True,
                timeout=CLI_TIMEOUT_S,
            )
            wall = now() - start
            self.returncode, self.stdout, self.stderr = proc.returncode, proc.stdout, proc.stderr
        self.text = self.out.read_text(encoding="utf-8") if self.out else ""
        return wall

    def output(self) -> str:
        return repr((self.returncode, self.stdout, self.text))

    def reference(self):
        """In-process results the command's output must reproduce (computed once)."""
        if self._reference is None:
            p = self.params
            if self.kind == "run":
                self._reference = [run_point(p["protocol"], p["r"], p["phi"], p["s"])]
            else:
                grid = pdcpurify.linear_grid(0.0, 1.0, CLI_SWEEP_STEPS)
                spec = pdcpurify.SweepSpec(
                    grid, r=p["r"], phi=p["phi"], protocol=pdcpurify.ProtocolKind.FOUR_PHOTON
                )
                self._reference = (grid, pdcpurify.sweep(spec))
        return self._reference

    def points(self):
        p = self.params
        if self.kind == "run":
            return [(p["protocol"], p["r"], p["phi"], p["s"], self.reference()[0])]
        if self.kind == "sweep":
            grid, results = self.reference()
            return [("four-photon", p["r"], p["phi"], s, res) for s, res in zip(grid, results)]
        return []

    def check(self):
        if self.returncode != 0:
            return [f"{self!r}: exit status {self.returncode}: {self.stderr.strip()}"]
        p = self.params
        if self.kind == "state":
            state = pdcpurify.spatially_entangled_state(
                pdcpurify.SourceParams(r=p["r"], phi=p["phi"], pairs=p["pairs"])
            )
            modes = pdcpurify.MODES
            coefficients, entropy = pdcpurify.schmidt(state, modes[:4], modes[4:])
            return checks.cli_state_errors(self.stdout, state, coefficients, entropy)
        errors = [e for point in self.points() for e in checks.result_errors(*point)]
        if self.kind == "run":
            return errors + checks.cli_run_errors(self.stdout, self.reference()[0])
        grid, results = self.reference()
        errors += checks.curve_errors("four-photon", grid, results)
        return errors + checks.cli_sweep_errors(self.text, self.params["format"], results)


def curve_round(rng: random.Random) -> list[SweepOp]:
    """The figure's curves on one grid ending at s = 1 exactly."""
    step = (1.0 - rng.uniform(0.0, 1.0 / (GRID_POINTS - 1))) / (GRID_POINTS - 1)
    grid = tuple(max(0.0, 1.0 - k * step) for k in reversed(range(GRID_POINTS)))
    return [SweepOp(protocol, r, phi, grid) for protocol, r, phi in CURVES]


def scan_batch(rng: random.Random, first: int) -> list[PointOp]:
    """GRID_POINTS consecutive scan calls, protocols in rotation."""
    ops = []
    for index in range(first, first + GRID_POINTS):
        protocol = PROTOCOLS[index % len(PROTOCOLS)]
        r, phi, s = rng.random(), rng.uniform(0.0, 2.0 * math.pi), rng.random()
        edge = (index // len(PROTOCOLS)) % SCAN_EDGE_PERIOD
        if edge == 0:
            r = 0.0
        elif edge == 1:
            s = 0.0
        elif edge == 2:
            s = 1.0
        elif edge == 3:
            phi, s = math.pi + rng.uniform(-1e-6, 1e-6), 1.0
        elif edge == 4:
            phi = math.pi + rng.uniform(-1e-3, 1e-3)
        if protocol == "independent-pairs":
            r = phi = None
        ops.append(PointOp(protocol, r, phi, s))
    return ops


def cli_run_op(protocol: str, r: float, phi: float, s: float) -> CliOp:
    if protocol == "independent-pairs":
        return CliOp("run", ["run", "--protocol", protocol, "--s", repr(s)], protocol=protocol, r=None, phi=None, s=s)
    argv = ["run", "--protocol", protocol, "--r", repr(r), "--phi", repr(phi), "--s", repr(s)]
    return CliOp("run", argv, protocol=protocol, r=r, phi=phi, s=s)


def cli_cycle(rng: random.Random, tmp: Path, index: int) -> list[CliOp]:
    """``run`` per protocol at two seeded points, ``state`` for one and two
    pairs, and a four-photon sweep written as CSV and as JSON."""
    points = [(rng.random(), rng.uniform(0.0, 2.0 * math.pi), rng.random()) for _ in range(2)]
    ops = [cli_run_op(protocol, *point) for point in points for protocol in PROTOCOLS]
    r, phi, _ = points[0]
    source = ["--r", repr(r), "--phi", repr(phi)]
    ops += [
        CliOp("state", ["state", "--pairs", str(pairs)] + source, r=r, phi=phi, pairs=pairs)
        for pairs in (1, 2)
    ]
    for fmt in ("csv", "json"):
        out = tmp / f"sweep-{index}.{fmt}"
        argv = ["sweep", "--protocol", "four-photon", *source, "--steps", str(CLI_SWEEP_STEPS)]
        ops.append(CliOp("sweep", argv + ["--out", str(out), "--format", fmt], out, r=r, phi=phi, format=fmt))
    return ops


def calibrate() -> float:
    """Fastest of a few runs of a fixed pure-Python kernel shaped like the
    package's sparse maps (dict updates keyed by small tuples), in seconds.
    Interruptions only ever slow a run down, so the minimum is the steadiest
    reading of the machine's current speed."""
    best = math.inf
    for _ in range(CALIBRATION_REPEATS):
        start = now()
        table: dict = {}
        for i in range(CALIBRATION_LOOPS):
            key = (i % 7, i % 5, i % 3, i % 11)
            table[key] = table.get(key, 0.0) + 0.5 * i
        best = min(best, now() - start)
    return best


def run_requests(ops, inprocess: bool) -> None:
    """Run requests one after another with a calibration between each two.

    Sets ``op.wall`` (seconds) and ``op.scaled``: the wall time times
    REFERENCE_S over the mean of the calibrations just before and after the
    request, i.e. the wall time at the machine speed where the kernel takes
    REFERENCE_S.  Both are None for a request that raised.
    """
    before = calibrate()
    for op in ops:
        op.wall = op.run(inprocess)
        after = calibrate()
        op.calibration = (before + after) / 2.0
        op.scaled = None if op.wall is None else op.wall * REFERENCE_S / op.calibration
        before = after


class ImportOp(Op):
    """A fresh interpreter running ``import pdcpurify``."""

    def __repr__(self):
        return "python -c 'import pdcpurify'"

    def execute(self, inprocess):
        start = now()
        subprocess.run(
            [sys.executable, "-c", "import pdcpurify"],
            cwd=ROOT, env=CHILD_ENV, check=True, stdout=subprocess.DEVNULL, timeout=CLI_TIMEOUT_S,
        )
        return now() - start

    def points(self):
        return []

    def check(self):
        return []


def import_split(samples: int) -> tuple[float, float]:
    """Median (numpy import, pdcpurify.cli import including numpy) in seconds."""
    code = (
        "import time; t0 = time.perf_counter(); import numpy; t1 = time.perf_counter(); "
        "import pdcpurify.cli; t2 = time.perf_counter(); print(t1 - t0, t2 - t0)"
    )
    splits = []
    for _ in range(samples):
        proc = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, env=CHILD_ENV, check=True,
            capture_output=True, text=True, timeout=CLI_TIMEOUT_S,
        )
        splits.append([float(x) for x in proc.stdout.split()])
    return statistics.median(s[0] for s in splits), statistics.median(s[1] for s in splits)


def timed_phase(next_unit, seconds: float, inprocess: bool, probe=()):
    """Run whole units of requests until ``seconds`` have passed.

    The probe requests (CLI child processes) are spread evenly between the
    units, so that they sample the machine as the units do; their time does
    not count towards ``seconds``.
    """
    units, done, probing = [], 0, 0.0
    start = now()
    while not units or now() - start - probing < seconds:
        unit = next_unit()
        run_requests(unit, inprocess)
        units.append(unit)
        while done < len(probe) and now() - start - probing >= seconds * done / len(probe):
            probe_start = now()
            run_requests(probe[done : done + 1], inprocess=False)
            probing += now() - probe_start
            done += 1
    run_requests(probe[done:], inprocess=False)
    return units


def end_to_end(workload, units, probe, setups, peak_rss_mb, key):
    """End-to-end metric values from the request times named by ``key``."""

    def timed(requests):
        return [op for op in requests if getattr(op, key) is not None]

    ops = [op for unit in units for op in unit]
    ok = timed(ops)
    busy = sum(getattr(op, key) for op in ok)
    by_protocol = {p: [] for p in PROTOCOLS}
    for op in ok:
        t = getattr(op, key)
        if isinstance(op, SweepOp):
            by_protocol[op.protocol].append(t / op.rows * 1e3)
        elif isinstance(op, PointOp):
            by_protocol[op.protocol].append(t * 1e3)
        elif op.kind == "run":
            by_protocol[op.params["protocol"]].append(t * 1e3)
    if workload == "scan":
        curve_times = [
            sum(getattr(op, key) for op in unit)
            for unit in units
            if all(getattr(op, key) is not None for op in unit)
        ]
    else:
        curve_times = [getattr(op, key) for op in ok if op.rows > 1]
    cli_times = [getattr(op, key) for op in timed(probe)]
    setup_times = [getattr(op, key) for op in timed(setups)]
    values = {
        "setup_s": percentile(setup_times, 0.5),
        "points_per_s": sum(op.rows for op in ok) / busy if busy else 0.0,
        "curve_s_p50": percentile(curve_times, 0.5),
        "runs_per_s": len(ok) / busy if busy else 0.0,
        "cli_s_p50": percentile(cli_times, 0.5),
        "cli_s_p90": percentile(cli_times, 0.9),
        "peak_rss_mb": peak_rss_mb,
    }
    for protocol, times in by_protocol.items():
        values[f"{SHORT[protocol]}_ms_p50"] = percentile(times, 0.5)
        values[f"{SHORT[protocol]}_ms_p90"] = percentile(times, 0.9)
    samples = {f"{SHORT[p]}_ms": len(v) for p, v in by_protocol.items()}
    samples.update(curve_s=len(curve_times), cli_s=len(cli_times), setup_s=len(setup_times))
    return values, samples


def oracle_subset(ops, seed: int) -> list[str]:
    """Compare a seeded subset of points with the dense-matrix oracle."""
    by_protocol = {p: [] for p in PROTOCOLS}
    for op in ops:
        if op.failure is None:
            for point in op.points():
                by_protocol[point[0]].append(point)
    rng = random.Random(f"oracle-{seed}")
    chosen = []
    for protocol, count in (("four-photon", 1), ("independent-pairs", 1), ("two-photon", ORACLE_TWO_PHOTON)):
        pool = by_protocol[protocol]
        chosen += rng.sample(pool, min(count, len(pool)))
    oracle = checks.load_oracle(ROOT / "tests" / "dense_oracle.py")
    return [e for point in chosen for e in checks.oracle_errors(oracle, *point)]


def gate(ops, seed: int):
    """Check every operation; returns (failed ops, error lines, report fields)."""
    failed, errors = 0, []
    for op in ops:
        op_errors = op.errors()
        failed += bool(op_errors)
        errors += op_errors
    errors += oracle_subset(ops, seed)
    outside = sum(
        checks.outside_unit(point[4]) for op in ops if op.failure is None for point in op.points()
    )
    return failed, errors, {"values_outside_unit_by_rounding": outside}


def measured_run(workload, seed, seconds, tmp):
    rng = random.Random(seed)
    ImportOp().run(inprocess=False)  # warm-up: byte-compile and fill the file cache
    setups = [ImportOp() for _ in range(SETUP_SAMPLES)]
    run_requests(setups, inprocess=False)
    for protocol in PROTOCOLS:  # warm-up: first calls pay one-off costs
        run_point(protocol, 0.5, 0.5, 0.5)
    cycles = iter(range(10**9))
    if workload == "curves":
        next_unit = lambda: curve_round(rng)  # noqa: E731
    elif workload == "scan":
        next_unit = lambda: scan_batch(rng, next(cycles) * GRID_POINTS)  # noqa: E731
    else:
        next_unit = lambda: cli_cycle(rng, tmp, next(cycles))  # noqa: E731
    if workload == "cli":
        units = timed_phase(next_unit, seconds, inprocess=False)
        probe = [op for unit in units for op in unit]
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        probe = [op for k in range(CLI_PROBE_CYCLES) for op in cli_cycle(rng, tmp, k)]
        units = timed_phase(next_unit, seconds, inprocess=True, probe=probe)
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    ops = [op for unit in units for op in unit]
    values, samples = end_to_end(workload, units, probe, setups, peak_kb / 1024.0, "scaled")
    wall_clock, _ = end_to_end(workload, units, probe, setups, peak_kb / 1024.0, "wall")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
    all_ops = setups + ops + (probe if workload != "cli" else [])
    failed, errors, report = gate(all_ops, seed)
    report.update(
        samples=samples,
        calibration_s_p50=statistics.median(op.calibration for op in setups + ops + probe),
        wall_clock=wall_clock,
    )
    return metrics, len(all_ops), failed, errors, report


def traced_run(workload, seed, tmp):
    rng = random.Random(seed)
    if workload == "curves":
        ops = curve_round(rng) + cli_cycle(rng, tmp, 0)
    elif workload == "scan":
        ops = scan_batch(rng, 0) + cli_cycle(rng, tmp, 0)
    else:
        ops = cli_cycle(rng, tmp, 0)

    def one_pass(tracer=None):
        walls, outputs = [], []
        if tracer:
            tracer.install()
        try:
            for i, op in enumerate(ops):
                if tracer:
                    tracer.op = i
                walls.append(op.run(inprocess=True))
                outputs.append(op.output() if op.failure is None else op.failure)
        finally:
            if tracer:
                tracer.uninstall()
        return walls, outputs

    one_pass()  # warm-up, so the untraced pass is not the cold one
    base_walls, base_outputs = one_pass()
    first, second = Tracer(), Tracer()
    traced_walls, traced_outputs = one_pass(first)
    _, second_outputs = one_pass(second)

    self_checks = []
    if not base_outputs == traced_outputs == second_outputs:
        self_checks.append("traced and untraced outputs differ")
    first_calls = {name: calls for name, (calls, _) in first.by_name().items()}
    second_calls = {name: calls for name, (calls, _) in second.by_name().items()}
    if first.counts != second.counts or first_calls != second_calls:
        self_checks.append("per-layer counts differ between two traced runs")
    for op_id, own in first.self_by_op().items():
        if traced_walls[op_id] is not None and own > traced_walls[op_id]:
            self_checks.append(f"self times of operation {op_id} exceed its wall time")

    cli_ops = [op for op in ops if isinstance(op, CliOp)]
    inprocess_cli = sum(base_walls[ops.index(op)] or 0.0 for op in cli_ops)
    child_cli = sum(op.run(inprocess=False) or 0.0 for op in cli_ops)
    numpy_import_s, cli_import_s = import_split(IMPORT_SAMPLES)

    summary = first.by_name()
    counts = first.counts
    rows = sum(op.rows for op in ops)

    def calls(name):
        return summary.get(name, (0, 0.0))[0]

    def self_ms(name):
        n, total = summary.get(name, (0, 0.0))
        return total / n * 1e3 if n else 0.0

    def per_call(counter, name):
        return counts[counter] / calls(name) if calls(name) else 0.0

    examined = counts["analysis.postselect.examined"]
    values = {
        "fock.keys_validated": (counts["fock.keys_validated"] / rows, "count"),
        "fock.density_builds": (counts["fock.density_builds"] / rows, "count"),
        "fock.to_density.ms": (self_ms("fock.to_density"), "ms"),
        "fock.partial_trace.ms": (self_ms("fock.partial_trace"), "ms"),
        "source.state.ms": (self_ms("source.state"), "ms"),
        "source.terms": (per_call("source.terms", "source.state"), "count"),
        "channel.depolarize.ms": (self_ms("channel.depolarize"), "ms"),
        "channel.entries_in": (per_call("channel.entries_in", "channel.depolarize"), "count"),
        "channel.entries_out": (per_call("channel.entries_out", "channel.depolarize"), "count"),
        "optics.pbs.ms": (self_ms("optics.pbs"), "ms"),
        "optics.entries": (per_call("optics.entries", "optics.pbs"), "count"),
        "analysis.postselect.ms": (self_ms("analysis.postselect"), "ms"),
        "analysis.postselect.kept_ratio": (
            counts["analysis.postselect.kept"] / examined if examined else 0.0,
            "ratio",
        ),
        "analysis.reduce.ms": (self_ms("analysis.reduce"), "ms"),
        "analysis.fidelity.ms": (self_ms("analysis.fidelity"), "ms"),
        "analysis.schmidt.ms": (self_ms("analysis.schmidt"), "ms"),
        "protocol.self_ms": (self_ms("protocol.run"), "ms"),
        "protocol.pipelines_per_point": (calls("optics.pbs") / 2 / rows, "count"),
        "cli.import_s": (cli_import_s, "s"),
        "cli.numpy_import_s": (numpy_import_s, "s"),
        "cli.compute_share": (inprocess_cli / child_cli if child_cli else 0.0, "ratio"),
        "cli.write_ms": (self_ms("cli.sweep"), "ms"),
        "trace.overhead_s": (
            sum(w or 0.0 for w in traced_walls) - sum(w or 0.0 for w in base_walls),
            "s",
        ),
    }
    metrics = {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}

    first.write(OUT_DIR / f"trace-{workload}-seed{seed}.jsonl")
    failed, errors, report = gate(ops, seed)
    errors += self_checks
    report.update(
        rows=rows,
        spans=len(first.spans),
        untraced_s=sum(w or 0.0 for w in base_walls),
        traced_s=sum(w or 0.0 for w in traced_walls),
        self_checks=self_checks or "ok",
    )
    return metrics, len(ops), failed, errors, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # One CPU for this process and its children: the calibration then runs
    # on the core that runs the request, and nothing migrates mid-request.
    nproc = len(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        if args.trace:
            metrics, attempted, failed, errors, report = traced_run(args.workload, args.seed, Path(tmp))
        else:
            metrics, attempted, failed, errors, report = measured_run(
                args.workload, args.seed, args.seconds, Path(tmp)
            )
    for line in errors[:20]:
        print(f"check failed: {line}", file=sys.stderr)
    report.update(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        python=platform.python_version(),
        numpy=np.__version__,
        nproc=nproc,
        pinned_cpu=min(os.sched_getaffinity(0)),
        error_rate=failed / attempted,
        check_errors=len(errors),
    )
    print(json.dumps({"report": report}))
    print(
        json.dumps(
            {
                "correct": not errors and failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""In-memory span tracer that wraps pdcpurify's functions from the outside.

The package imports most stage functions with ``from .x import f``, which
copies the binding into the caller's namespace, so each function is wrapped
under the name its caller looks up at call time.  Counts come from the
constructors of ``DensityOperator`` and ``PureState`` and from the arguments
and results of the wrapped stages.  Nothing here changes a return value.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter

_RUNS = ("run_four_photon", "run_two_photon", "run_independent_pairs")
_API = ("pdcpurify", "pdcpurify.protocol", "pdcpurify.cli")

#: span name -> the (module, attribute) bindings wrapped under that name
SPANS = (
    (
        "source.state",
        (
            ("pdcpurify.protocol", "spatially_entangled_state"),
            ("pdcpurify.protocol", "independent_pairs_state"),
            ("pdcpurify.cli", "spatially_entangled_state"),
        ),
    ),
    ("fock.to_density", (("pdcpurify.protocol", "to_density"),)),
    ("fock.partial_trace", (("pdcpurify.analysis", "partial_trace"),)),
    ("channel.depolarize", (("pdcpurify.channel", "depolarize_partial"),)),
    ("optics.pbs", (("pdcpurify.protocol", "apply_pbs"),)),
    ("analysis.postselect", (("pdcpurify.protocol", "postselect"),)),
    (
        "analysis.reduce",
        (
            ("pdcpurify.protocol", "reduce_to_pair"),
            ("pdcpurify.protocol", "polarization_qubit_matrix"),
        ),
    ),
    ("analysis.fidelity", (("pdcpurify.protocol", "fidelity"),)),
    ("analysis.schmidt", (("pdcpurify.cli", "schmidt"),)),
    ("protocol.run", tuple((m, f) for m in _API for f in _RUNS)),
    ("protocol.sweep", tuple((m, "sweep") for m in _API)),
    ("cli.run", (("pdcpurify.cli", "_cmd_run"),)),
    ("cli.sweep", (("pdcpurify.cli", "_cmd_sweep"),)),
    ("cli.state", (("pdcpurify.cli", "_cmd_state"),)),
)


def _count_stage(counts: Counter, name: str, args: tuple, result) -> None:
    if name == "source.state":
        counts["source.terms"] += len(result.amplitudes)
    elif name == "channel.depolarize":
        counts["channel.entries_in"] += len(args[0].entries)
        counts["channel.entries_out"] += len(result.entries)
    elif name == "optics.pbs":
        counts["optics.entries"] += len(args[0].entries)
    elif name == "analysis.postselect":
        counts["analysis.postselect.examined"] += len(args[0].entries)
        conditional = result[1]
        if conditional is not None:
            counts["analysis.postselect.kept"] += len(conditional.entries)


class Tracer:
    """Records one span per wrapped call: name, start, end, parent, operation.

    Spans are kept in memory; ``op`` is set by the caller before each
    top-level operation so that every span carries its operation id.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op: int | None = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else None, self.op]
            stack.append(len(spans))
            spans.append(record)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()
            _count_stage(counts, name, args, result)
            return result

        return traced

    def _patch(self, owner, attribute: str, replacement) -> None:
        self._patches.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, replacement)

    def install(self) -> None:
        for name, bindings in SPANS:
            for module_name, attribute in bindings:
                module = importlib.import_module(module_name)
                original = getattr(module, attribute, None)
                if original is not None:
                    self._patch(module, attribute, self._wrap(name, original))

        fock = importlib.import_module("pdcpurify.fock")
        counts = self.counts
        density_init = fock.DensityOperator.__init__
        pure_init = fock.PureState.__init__

        def density_operator_init(obj, entries, *args, **kwargs):
            counts["fock.density_builds"] += 1
            counts["fock.keys_validated"] += 2 * len(entries)
            density_init(obj, entries, *args, **kwargs)

        def pure_state_init(obj, amplitudes, *args, **kwargs):
            counts["fock.keys_validated"] += len(amplitudes)
            pure_init(obj, amplitudes, *args, **kwargs)

        self._patch(fock.DensityOperator, "__init__", density_operator_init)
        self._patch(fock.PureState, "__init__", pure_state_init)

    def uninstall(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        return [end - start - c for (_, start, end, _, _), c in zip(self.spans, covered)]

    def by_name(self) -> dict[str, tuple[int, float]]:
        """Span name -> (calls, total self time in seconds)."""
        summary: dict[str, list] = {}
        for (name, *_), own in zip(self.spans, self.self_times()):
            entry = summary.setdefault(name, [0, 0.0])
            entry[0] += 1
            entry[1] += own
        return {name: (calls, total) for name, (calls, total) in summary.items()}

    def self_by_op(self) -> Counter:
        """Operation id -> summed self time of its spans."""
        totals: Counter = Counter()
        for (_, _, _, _, op), own in zip(self.spans, self.self_times()):
            totals[op] += own
        return totals

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, op in self.spans:
                handle.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end, "parent": parent, "op": op}
                    )
                    + "\n"
                )

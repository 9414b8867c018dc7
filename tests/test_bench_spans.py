"""The benchmark's span tracer (``bench/spans.py``) wrapped around the package.

The tracer patches the stage functions under the names their callers look up
and reads the operators they pass around (``optics.pbs`` reads its first
argument's ``entries``).  A change to what a stage is handed can break every
traced operation without failing any other test; these runs catch it.
"""

import importlib.util
from pathlib import Path

import pytest

from helpers import stage_calls
import pdcpurify.protocol as protocol
from pdcpurify import ProtocolKind, SweepSpec

_SPANS_PATH = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("bench_spans", _SPANS_PATH)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.Tracer()


#: one call of each ``run_*`` and a 3-point sweep, looked up on the module as
#: the tracer patches it, with its protocol, r and points; the call before the
#: traced one builds its kind's row, so the traced one runs one curve and its
#: points over it
CALLS = {
    "four-photon": (lambda: protocol.run_four_photon(0.95, 0.3, 0.6), "four-photon", 0.95, 1),
    "two-photon": (lambda: protocol.run_two_photon(0.95, 0.3, 0.6), "two-photon", 0.95, 1),
    "independent-pairs": (
        lambda: protocol.run_independent_pairs(0.6), "independent-pairs", None, 1
    ),
    "sweep": (lambda: protocol.sweep(SweepSpec((0.0, 0.5, 1.0), 0.9, 0.45)), "four-photon", 0.9, 3),
}

#: each span of the run path, with the stages of the stage table whose calls
#: it counts: the channel span wraps ``channel.depolarize_partial``, which
#: ``depolarize_alice`` calls once; the protocol module imports no source
#: builder and no ``to_density``, so a run makes no span of either
SPAN_STAGES = {
    "source.state": (),
    "fock.to_density": (),
    "channel.depolarize": ("depolarize_alice",),
    "optics.pbs": ("apply_pbs",),
}


@pytest.mark.parametrize("name", list(CALLS))
def test_traced_calls_return_the_untraced_results(name):
    call, kind, r, points = CALLS[name]
    expected = call()  # builds the kind's row, outside the traced window
    tracer = _tracer()
    tracer.install()
    try:
        traced = call()
    finally:
        tracer.uninstall()
    assert traced == expected
    calls = {span: count for span, (count, _) in tracer.by_name().items()}
    assert calls.get("protocol.run", 0) == (0 if name == "sweep" else 1)
    table = stage_calls(ProtocolKind(kind), r, {"curve": 1, "point": points})
    for span, stages in SPAN_STAGES.items():
        count = sum(c if isinstance(c, int) else len(c) for c in map(table.get, stages))
        assert calls.get(span, 0) == count, span
    assert call() == expected  # uninstalled: the originals are back

"""The benchmark's span tracer (``bench/spans.py``) wrapped around the package.

The tracer patches the stage functions under the names their callers look up
and reads the operators they pass around (``optics.pbs`` reads its first
argument's ``entries``).  A change to what a stage is handed can break every
traced operation without failing any other test; these runs catch it.
"""

import importlib.util
from pathlib import Path

import pytest

import pdcpurify.protocol as protocol
from pdcpurify import ProtocolKind, SweepSpec

_SPANS_PATH = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("bench_spans", _SPANS_PATH)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.Tracer()


#: one call of each ``run_*`` and a 3-point sweep, looked up on the module as
#: the tracer patches it, with the ``run_*`` calls, Fock source builds and
#: channel calls each makes: a sweep calls no ``run_*``; no traced call builds
#: a source state or a ``to_density``, since the untraced call before it has
#: built its kind's row, which holds the fixed source density; the channel
#: runs once per point, except where lambda = 0 (independent pairs), whose
#: points read quadratics the row holds
CALLS = {
    "four-photon": (lambda: protocol.run_four_photon(0.95, 0.3, 0.6), 1, 0, 1),
    "two-photon": (lambda: protocol.run_two_photon(0.95, 0.3, 0.6), 1, 0, 1),
    "independent-pairs": (lambda: protocol.run_independent_pairs(0.6), 1, 0, 0),
    "sweep": (
        lambda: protocol.sweep(
            SweepSpec((0.0, 0.5, 1.0), 0.9, 0.45, ProtocolKind.FOUR_PHOTON)
        ),
        0,
        0,
        3,
    ),
}


@pytest.mark.parametrize("call, runs, sources, channels", CALLS.values(), ids=CALLS.keys())
def test_traced_calls_return_the_untraced_results(call, runs, sources, channels):
    expected = call()  # builds the kind's row, outside the traced window
    tracer = _tracer()
    tracer.install()
    try:
        traced = call()
    finally:
        tracer.uninstall()
    assert traced == expected
    calls = {name: count for name, (count, _) in tracer.by_name().items()}
    assert calls.get("protocol.run", 0) == runs
    assert calls.get("source.state", 0) == sources
    assert calls.get("fock.to_density", 0) == sources
    # the beam splitters act on the readout maps once, when the row is built,
    # not per point
    assert calls.get("optics.pbs", 0) == 0
    assert calls.get("channel.depolarize", 0) == channels
    assert call() == expected  # uninstalled: the originals are back

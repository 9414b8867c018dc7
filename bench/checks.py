"""Correctness gate for benchmark outputs.

Every function returns a list of error strings; an empty list means the
output passed.  Physics checks are exact up to TOL; CLI output is compared
with in-process results at the 12 significant digits the CLI prints.
"""

from __future__ import annotations

import importlib.util
import json
import math

from pdcpurify import bbpssw_fidelity, input_fidelity

TOL = 1e-12
#: conditional probabilities at or below this may report no fidelity
ZERO_PROBABILITY = 1e-12

#: fidelity fields each protocol defines; the others must stay None
FIDELITIES = {
    "four-photon": ("f_upper", "f_lower"),
    "two-photon": ("f_upper",),
    "independent-pairs": ("f_upper",),
}


def endpoint_fidelity(r: float, phi: float) -> float:
    """Four-photon f_upper at s = 1, capped by the source's spatial coherence."""
    return (1.0 + 2.0 * r * math.cos(phi) + r * r) / (2.0 * (1.0 + r * r))


def outside_unit(result) -> int:
    """Number of reported values outside [0, 1] by any amount, rounding included."""
    values = (result.f_in, result.p_success, result.f_upper, result.f_lower)
    return sum(1 for v in values if v is not None and not 0.0 <= v <= 1.0)


def result_errors(protocol: str, r, phi, s: float, result) -> list[str]:
    """Range, definedness and closed-form checks on one ProtocolResult.

    The range check allows TOL of rounding: the exact pipelines can land an
    ulp or two outside [0, 1] (two-photon p_success at s = 1 reads
    1.0000000000000002).  ``outside_unit`` counts such values so they stay
    visible in the report.
    """
    where = f"{protocol} r={r!r} phi={phi!r} s={s!r}"
    errors = []
    p = result.p_success
    for field in ("f_in", "p_success", "f_upper", "f_lower"):
        value = getattr(result, field)
        if value is None:
            if field in FIDELITIES[protocol] and not p <= ZERO_PROBABILITY:
                errors.append(f"{where}: {field} is None although p = {p!r}")
        elif field not in ("f_in", "p_success") and field not in FIDELITIES[protocol]:
            errors.append(f"{where}: {field} should be None, got {value!r}")
        elif not (math.isfinite(value) and -TOL <= value <= 1.0 + TOL):
            errors.append(f"{where}: {field} = {value!r} is not in [0, 1]")
    if errors:
        return errors
    if abs(result.f_in - input_fidelity(s)) > TOL:
        errors.append(f"{where}: f_in {result.f_in!r} != (1 + 3s)/4")
    if protocol == "independent-pairs" and result.f_upper is not None:
        expected = bbpssw_fidelity(result.f_in)
        if abs(result.f_upper - expected) > TOL:
            errors.append(f"{where}: f_upper {result.f_upper!r} != bbpssw {expected!r}")
    if protocol == "four-photon" and s == 1.0 and result.f_upper is not None:
        expected = endpoint_fidelity(r, phi)
        if abs(result.f_upper - expected) > TOL:
            errors.append(f"{where}: f_upper {result.f_upper!r} != endpoint {expected!r}")
    return errors


def curve_errors(protocol: str, grid, results) -> list[str]:
    """p(s) and p(s) * f(s) must be one exact quadratic in s along a curve."""
    nodes = (0, len(grid) // 2, len(grid) - 1)
    series = {"p_success": [res.p_success for res in results]}
    for field in FIDELITIES[protocol]:
        series[f"p*{field}"] = [
            0.0 if getattr(res, field) is None else res.p_success * getattr(res, field)
            for res in results
        ]
    errors = []
    for label, ys in series.items():
        for s, y in zip(grid, ys):
            fit = 0.0
            for i in nodes:
                weight = ys[i]
                for j in nodes:
                    if j != i:
                        weight *= (s - grid[j]) / (grid[i] - grid[j])
                fit += weight
            if abs(y - fit) > TOL:
                errors.append(f"{protocol} curve: {label} at s={s!r} is off its quadratic by {y - fit:.3g}")
                break
    return errors


def load_oracle(path):
    """Import the dense-matrix reference pipeline from the test suite."""
    spec = importlib.util.spec_from_file_location("dense_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def oracle_errors(oracle, protocol: str, r, phi, s: float, result) -> list[str]:
    """Agreement with the independent dense-matrix pipeline to TOL."""
    if protocol == "four-photon":
        p, f_upper, f_lower = oracle.four_photon_reference(r, phi, s)
        expected = {"p_success": p, "f_upper": f_upper, "f_lower": f_lower}
    elif protocol == "two-photon":
        p, f_upper = oracle.two_photon_reference(r, phi, s)
        expected = {"p_success": p, "f_upper": f_upper}
    else:
        p, f_upper = oracle.independent_pairs_reference(s)
        expected = {"p_success": p, "f_upper": f_upper}
    if p <= ZERO_PROBABILITY:
        expected = {"p_success": p}
    return [
        f"{protocol} r={r!r} phi={phi!r} s={s!r}: {field} {getattr(result, field)!r} "
        f"!= oracle {value!r}"
        for field, value in expected.items()
        if getattr(result, field) is None or abs(getattr(result, field) - value) > TOL
    ]


def _digits(value) -> str:
    return "" if value is None else format(value, ".12g")


def _same_digits(got, want) -> bool:
    if isinstance(want, (list, tuple)):
        return (
            isinstance(got, (list, tuple))
            and len(got) == len(want)
            and all(_same_digits(g, w) for g, w in zip(got, want))
        )
    if isinstance(want, float) or isinstance(got, float):
        return isinstance(got, (int, float)) and isinstance(want, (int, float)) and (
            _digits(float(got)) == _digits(float(want))
        )
    return got == want


_ROW_FIELDS = ("s", "f_in", "p_success", "f_upper", "f_lower")


def _row(result) -> dict:
    return {field: result.as_dict()[field] for field in _ROW_FIELDS}


def cli_run_errors(stdout: str, result) -> list[str]:
    payload = json.loads(stdout)
    want = _row(result)
    return [
        f"cli run: {field} {payload.get(field)!r} != in-process {want[field]!r}"
        for field in _ROW_FIELDS
        if not _same_digits(payload.get(field), want[field])
    ]


def cli_sweep_errors(text: str, fmt: str, results) -> list[str]:
    if fmt == "json":
        records = json.loads(text)
        if len(records) != len(results):
            return [f"cli sweep json: {len(records)} records, expected {len(results)}"]
        return [
            f"cli sweep json: row {i} {record!r} != in-process {_row(res)!r}"
            for i, (record, res) in enumerate(zip(records, results))
            if not all(_same_digits(record.get(f), _row(res)[f]) for f in _ROW_FIELDS)
        ]
    lines = text.splitlines()
    expected = ["s,f_in,p_success,f_upper,f_lower"] + [
        ",".join(_digits(_row(res)[f]) for f in _ROW_FIELDS) for res in results
    ]
    return [
        f"cli sweep csv: line {i} {got!r} != {want!r}"
        for i, (got, want) in enumerate(zip(lines, expected))
        if got != want
    ] + ([] if len(lines) == len(expected) else [f"cli sweep csv: {len(lines)} lines, expected {len(expected)}"])


def cli_state_errors(stdout: str, state, coefficients, entropy) -> list[str]:
    payload = json.loads(stdout)
    want_terms = [[list(occ), [amp.real, amp.imag]] for occ, amp in state.terms()]
    got_terms = [[t["occupations"], t["amplitude"]] for t in payload["terms"]]
    errors = []
    if not _same_digits(got_terms, want_terms):
        errors.append("cli state: terms differ from the in-process source state")
    if not _same_digits(payload["schmidt_coefficients"], list(coefficients)):
        errors.append("cli state: Schmidt coefficients differ from in-process schmidt()")
    if not _same_digits(payload["entropy_ebits"], entropy):
        errors.append(f"cli state: entropy {payload['entropy_ebits']!r} != {entropy!r}")
    return errors

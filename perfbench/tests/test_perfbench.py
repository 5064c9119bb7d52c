"""Tests of the benchmark itself: span arithmetic, tracing install/restore,
input generation and the output checks.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import itertools
import math
from dataclasses import replace

import pytest

import cases
import checks
import run
import spans
from mvda import averages, cli, linalg, montecarlo, rng, special
from mvda.averages import AverageResult, evaluate_average
from mvda.montecarlo import build_report
from mvda.special import Hyp1F1Result, TruncationPolicy, hyp1f1_matrix

OFF = 1.0 + 1e-6


# ---------------------------------------------------------------------------
# self time


def test_self_time_of_synthetic_nested_call(monkeypatch):
    clock = itertools.count()
    monkeypatch.setattr(spans.time, "perf_counter", lambda: float(next(clock)))
    tracer = spans.Tracer()
    inner = spans._spanned(tracer, "inner", lambda: None)

    def body():
        inner()
        inner()

    outer = spans._spanned(tracer, "outer", body)
    outer()
    # clock ticks: outer opens 0, inner 1-2, inner 3-4, outer closes 5
    assert [(s.name, s.start, s.end) for s in tracer.spans] == [
        ("outer", 0.0, 5.0), ("inner", 1.0, 2.0), ("inner", 3.0, 4.0)]
    assert [s.parent for s in tracer.spans] == [None, 0, 0]
    assert spans.self_times(tracer.spans) == [3.0, 1.0, 1.0]
    assert spans.self_seconds_by_name(tracer.spans) == {"outer": 3.0, "inner": 2.0}


def test_self_time_subtracts_the_union_of_overlapping_children():
    s = spans.Span
    tree = [
        s("estimate", None, 1, 0.0, 10.0),
        s("chunk", 0, 2, 1.0, 5.0),   # two worker threads overlap on 3..5
        s("chunk", 0, 3, 3.0, 6.0),
        s("rng", 1, 2, 2.0, 3.0),
        s("chunk", 0, 2, 9.0, 12.0),  # runs past its parent: clipped at 10
    ]
    assert spans.self_times(tree) == [10.0 - 5.0 - 1.0, 3.0, 3.0, 1.0, 3.0]


# ---------------------------------------------------------------------------
# tracing install / restore


def _entry_points():
    found = {}
    for module in spans._mvda_modules():
        for attr, value in vars(module).items():
            if callable(value):
                found[(module.__name__, attr)] = value
    for cls in (rng.CounterRng, linalg.HermitianMatrix):
        for attr, value in vars(cls).items():
            found[(cls.__name__, attr)] = value
    return found


def test_wrappers_record_spans_and_are_restored():
    before = _entry_points()
    tracer = spans.Tracer()
    restore = spans.install(tracer)
    try:
        assert montecarlo.sample_batch is not before[("mvda.montecarlo", "sample_batch")]
        assert cli.report_emit is not before[("mvda.cli", "report_emit")]
        case = montecarlo.default_suite()[2]  # p = 2, so matrix algebra runs
        case = replace(case, mc=montecarlo.McConfig(2000, case.mc.seed, chunk=1000))
        report = montecarlo.verify_suite([case])[0]
        cli.report_emit([report])
        special.hyp1f1_matrix(1.5, 3.0, linalg.HermitianMatrix.identity(2))
    finally:
        restore()
    assert _entry_points() == before

    names = {s.name for s in tracer.spans}
    assert {"rng.gammas", "rng.normals", "rng.uniforms", "rng.complex_normals",
            "measures.sample_batch", "montecarlo.integrand", "montecarlo.estimate",
            "averages.evaluate_average", "special.hyp1f1_matrix",
            "linalg.eigvals_hermitian", "linalg.HermitianMatrix",
            "cli.report_emit"} <= names
    assert all(s.end >= s.start for s in tracer.spans)
    assert tracer.counts["montecarlo.chunks"] == 2
    assert tracer.counts["measures.draws"] == 2000
    assert tracer.counts["rng.gamma.returned"] <= tracer.counts["rng.gamma.candidates"]

    count = len(tracer.spans)
    montecarlo.verify_suite([case])
    assert len(tracer.spans) == count


# ---------------------------------------------------------------------------
# generated inputs


def _inputs_json(inputs: cases.Inputs):
    return {
        "workers": inputs.workers,
        "cases": [c.to_json() for c in inputs.cases],
        "averages": [(n, s.to_json()) for n, s in inputs.averages],
        "hyp1f1": [(h.name, h.a, h.c, h.x.to_json()) for h in inputs.hyp1f1],
    }


@pytest.mark.parametrize("workload", cases.WORKLOADS)
def test_inputs_are_valid_and_repeat_for_the_same_seed(workload):
    first = cases.build(workload, 7)
    assert _inputs_json(first) == _inputs_json(cases.build(workload, 7))
    measures_ = [c.measure for c in first.cases] + [s.measure for _, s in first.averages]
    for m in measures_:
        m.validate()
    for case in first.cases:
        assert case.mc.seed.seed == 7
    ids = [c.case_id for c in first.cases] + [n for n, _ in first.averages]
    assert len(ids) == len(set(ids))
    if workload == "suite":
        assert len(first.cases) == 29
    else:
        assert _inputs_json(first) != _inputs_json(cases.build(workload, 8))


def test_scalar_workload_reaches_the_shape_boost_branch():
    inputs = cases.build("scalar", 3)
    assert {c.measure.k for c in inputs.cases} == {1, 2, 3}
    assert all(c.measure.p == 1 for c in inputs.cases)
    assert any(min(c.measure.alphas) < 1.0 for c in inputs.cases)


def test_scalar_workload_keeps_the_rect_type1_defect_in_view():
    # One case trips the known rect_type1_p1 sampler defect at every seed;
    # it counts as an errored item, not as a wrong value.
    case = cases.build("scalar", 5).cases[-1]
    assert case.measure.kind == "rect_type1_p1"
    assert case.measure.alphas[-1] == cases.RECT_DEFECT_ALPHA
    small = replace(case, mc=montecarlo.McConfig(20000, case.mc.seed))
    report = montecarlo.verify_suite([small])[0]
    assert checks.report_errored(report)
    assert report.diagnostics["error"] == "SamplerError"
    assert not checks.report_errored(build_report("c", 0.5, 1e-3, 100, 0.6))


# ---------------------------------------------------------------------------
# correctness checks flag a value off by 1e-6 relative


def test_comparator_check_flags_an_off_estimate():
    good = build_report("c", 1000.0, 1e-6, 100, 1000.0)
    bad = build_report("c", 1000.0 * OFF, 1e-6, 100, 1000.0)
    assert checks.report_passes(good)
    assert not checks.report_passes(bad)


def test_repeat_check_flags_an_off_estimate():
    first = build_report("c", 0.5, 1e-3, 100, 0.5)
    assert checks.same_report(build_report("c", 0.5, 1e-3, 100, 0.5), first)
    assert not checks.same_report(build_report("c", 0.5 * OFF, 1e-3, 100, 0.5), first)


@pytest.mark.parametrize("a, c, eigs", [
    (1.5, 3.2, [2.0]),
    (0.7, 2.1, [-3.0]),
    (3.5, 3.5, [0.4, -1.2]),
    (5.0, 5.0, [1.0, 0.5, -0.25]),
])
def test_hyp1f1_check_flags_an_off_value(a, c, eigs):
    x = linalg.HermitianMatrix.diagonal(eigs)
    ref = checks.hyp1f1_reference(a, c, x)
    res = hyp1f1_matrix(a, c, x, TruncationPolicy(max_order=40))
    assert res.converged
    assert checks.hyp1f1_ok(res, ref)
    assert not checks.hyp1f1_ok(replace(res, value=res.value * OFF), ref)
    # a series that says it did not converge is not compared
    assert checks.hyp1f1_ok(Hyp1F1Result(res.value * OFF, 40, 1.0, False), ref)


@pytest.mark.parametrize("a, c, eigs", [
    (1.5, 3.2, [2.0]),
    (3.5, 7.0, [0.4, -1.2]),
    (2.2, 9.0, [1.0, 0.5, -0.25]),
    (4.0, 4.0, [-1.9, 1.7, 0.3]),
])
def test_determinant_reference_flags_an_off_value(a, c, eigs):
    x = linalg.HermitianMatrix.diagonal(eigs)
    ref = checks.hyp1f1_determinant(a, c, eigs)
    if a == c:
        assert ref == pytest.approx(math.exp(sum(eigs)), rel=1e-14)
    res = hyp1f1_matrix(a, c, x, TruncationPolicy(max_order=60))
    assert checks.hyp1f1_ok(res, ref)
    assert not checks.hyp1f1_ok(replace(res, value=res.value * OFF), ref)


def test_determinant_reference_needs_distinct_eigenvalues():
    with pytest.raises(ValueError):
        checks.hyp1f1_determinant(1.0, 3.0, [0.5, 0.5])


def test_hyp1f1_reference_needs_a_equal_c_above_p_1():
    with pytest.raises(ValueError):
        checks.hyp1f1_reference(1.0, 2.0, linalg.HermitianMatrix.identity(2))


def test_average_check_flags_an_off_value():
    specs = cases.build("closed_form", 11).averages
    assert {s.functional.kind for _, s in specs} == set(averages.FUNCTIONALS)
    for name, spec in specs:
        res = evaluate_average(spec.measure, spec.functional)
        ref = checks.average_reference(spec)
        assert checks.average_ok(res, ref), name
        off = replace(res, value=res.value * OFF)
        assert not checks.average_ok(off, ref), name
    assert not checks.average_ok(AverageResult(conditions_ok=False), 1.0)


def test_checker_counts_an_errored_case_as_failed_but_not_wrong():
    inputs = cases.build("p3_parallel", 1)
    good = build_report("c", 0.5, 1e-3, 100, 0.5)
    errored = replace(good, estimate=None, diagnostics={"error": "SamplerError"})
    off = build_report("c", 0.5 * 1.1, 1e-3, 100, 0.5)
    p = run.Pass()
    p.outputs = [good] * (len(inputs.cases) - 2) + [errored, off]
    p.outputs.append(cli.report_emit(p.outputs))
    checker = run.Checker(inputs)
    checker.check(p)
    assert checker.attempted == len(inputs.cases) + 1
    assert checker.failed == 2
    assert len(checker.errored) == 1 and checker.wrong == [inputs.cases[-1].case_id]


def test_within_rejects_non_finite_and_complex_values():
    assert checks.within(1.0, 1.0)
    assert not checks.within(math.nan, 1.0)
    assert not checks.within(complex(1.0, 1e-3), 1.0)
    assert not checks.within(None, 1.0)

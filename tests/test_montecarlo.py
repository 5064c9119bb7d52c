import json
import os
import resource
import subprocess
import sys
import warnings
from importlib import resources
from pathlib import Path

import mpmath
import numpy as np
import pytest

from mvda import montecarlo
from mvda.averages import FUNCTIONALS, FunctionalSpec, evaluate_average
from mvda.errors import NonFiniteIntegrand
from mvda.linalg import HermitianMatrix
from mvda.measures import MeasureSpec, floor_event_count, sample_batch
from mvda.montecarlo import (
    CSV_HEADER,
    McConfig,
    McReport,
    VerifyCase,
    all_passed,
    build_report,
    default_suite,
    dump_suite,
    load_suite,
    make_integrand,
    mc_estimate_full,
    report_emit,
    verify_suite,
)
from mvda.rng import SeedSpec
from mvda.special import TruncationPolicy

NEAR_BOUNDARY = Path(__file__).parent / "data" / "near_boundary.json"
SRC = Path(__file__).resolve().parents[1] / "src"
MALLOC_ENV = ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_", "GLIBC_TUNABLES")


def _glibc() -> bool:
    try:
        return (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc")
    except (AttributeError, ValueError, OSError):
        return False


def scalar_type1(k=2, alphas=(1.0, 1.0, 1.0)):
    return MeasureSpec(kind="type1", p=1, k=k, alphas=alphas)


def case(case_id, measure, functional, n=20_000, stream=0, chunk=5_000):
    return VerifyCase(
        case_id=case_id,
        measure=measure,
        functional=functional,
        mc=McConfig(samples=n, seed=SeedSpec(42, stream), chunk=chunk),
    )


class TestMcEstimate:
    def test_constant_integrand(self):
        est, se = mc_estimate_full(
            scalar_type1(),
            FunctionalSpec(kind="det_power", gammas=(0.0, 0.0)),
            McConfig(samples=10_000, seed=SeedSpec(42, 0)),
        )[:2]
        assert est == 1.0
        assert se == 0.0

    def test_scalar_dirichlet_mean(self):
        est, se = mc_estimate_full(
            scalar_type1(),
            FunctionalSpec(kind="det_power", gammas=(1.0, 0.0)),
            McConfig(samples=100_000, seed=SeedSpec(42, 1)),
        )[:2]
        assert abs(est - 1 / 3) <= 4 * se

    def test_bit_for_bit_determinism(self):
        cfg = McConfig(samples=30_000, seed=SeedSpec(7, 3), chunk=7_000)
        f = FunctionalSpec(kind="det_power", gammas=(1.0, 0.5))
        a = mc_estimate_full(scalar_type1(), f, cfg)[:2]
        b = mc_estimate_full(scalar_type1(), f, cfg)[:2]
        assert a == b

    def test_worker_count_independence(self):
        measure = MeasureSpec(kind="type1", p=2, k=1, alphas=(2.0, 2.0))
        f = FunctionalSpec(kind="det_power", gammas=(1.0,))
        cfg = McConfig(samples=30_000, seed=SeedSpec(42, 4), chunk=6_000)
        serial = mc_estimate_full(measure, f, cfg, workers=1)[:2]
        threaded = mc_estimate_full(measure, f, cfg, workers=4)[:2]
        assert serial == threaded

    def test_p2_report_identical_across_workers(self):
        # and at p = 3, where the default suite has no case
        cases = [
            case(
                "p2",
                MeasureSpec(kind="type1", p=2, k=2, alphas=(2.0, 2.5, 3.0)),
                FunctionalSpec(kind="complement_power", delta=1.5),
                stream=8,
            ),
            case(
                "p3_type1",
                MeasureSpec(kind="type1", p=3, k=2, alphas=(3.0, 3.5, 4.0)),
                FunctionalSpec(kind="complement_power", delta=1.5),
                stream=9,
            ),
            case(
                "p3_type2",
                MeasureSpec(kind="type2", p=3, k=2, alphas=(3.5, 4.0, 8.0)),
                FunctionalSpec(kind="complement_power", delta=0.5),
                stream=10,
            ),
        ]
        serial = report_emit(verify_suite(cases, workers=1), canonical=True)
        threaded = report_emit(verify_suite(cases, workers=2), canonical=True)
        assert serial == threaded
        assert [r["verdict"] for r in json.loads(serial)] == ["pass"] * 3

    def test_non_finite_integrand_reports_index(self):
        # enormous determinant powers overflow to inf on type-2 tails
        measure = MeasureSpec(kind="type2", p=1, k=1, alphas=(2.0, 3.0))
        f = FunctionalSpec(kind="det_power", gammas=(5000.0,))
        with pytest.raises(NonFiniteIntegrand) as err:
            mc_estimate_full(measure, f, McConfig(samples=2_000, seed=SeedSpec(42, 5)))
        assert err.value.sample_index >= 0


class TestMomentSums:
    def test_chunk_sums_match_powers(self):
        vals = SeedSpec(31).child(0).gammas(0.6, 25_000) - 0.4  # both signs
        sums = montecarlo._chunk_sums(
            scalar_type1(), lambda batch: vals, McConfig(len(vals), SeedSpec(31)), 0
        )
        for r, got in enumerate(sums, start=1):
            want = np.sum(vals**r)
            assert abs(got - want) <= 1e-12 * abs(want), (r, got, want)

    def test_std_error_matches_direct(self):
        measure = scalar_type1()
        functional = FunctionalSpec(kind="det_power", gammas=(1.0, 0.0))
        config = McConfig(samples=20_000, seed=SeedSpec(42, 3), chunk=6_000)
        est, se, n_used, diag = mc_estimate_full(measure, functional, config)
        assert n_used == 20_000 and diag == {}
        integrand = make_integrand(measure, functional)
        vals = np.concatenate(
            [
                integrand(sample_batch(measure, config.seed, size, chunk=c))
                for c, size in enumerate([6_000, 6_000, 6_000, 2_000])
            ]
        )
        assert est == pytest.approx(vals.mean(), rel=1e-12)
        assert se == pytest.approx(vals.std(ddof=1) / np.sqrt(len(vals)), rel=1e-9, abs=0)


class TestSecondMomentGate:
    """Cases whose first moment exists and whose second does not, or is past
    double range: the 4 SE band is meaningless there, so each fails by name
    before any draw."""

    @pytest.mark.parametrize(
        "measure, functional, violated",
        [
            (
                MeasureSpec(kind="type2", p=1, k=1, alphas=(1.5, 1.5)),
                FunctionalSpec(kind="det_power", gammas=(1.0,)),
                "alpha_{k+1} - sum(gamma) > p - 1",
            ),
            (
                MeasureSpec(kind="type2", p=1, k=1, alphas=(2.0, 1.5)),
                FunctionalSpec(kind="complement_power", delta=-1.0),
                "alpha_{k+1} + delta > p - 1",
            ),
            (
                MeasureSpec(kind="rect_type2_p1", p=1, k=1, alphas=(1.0, 1.5), ns=(1,)),
                FunctionalSpec(kind="hermitian_form_moment", h=1.0),
                "alpha_{k+1} - h > 0",
            ),
            (
                MeasureSpec(kind="type1", p=1, k=1, alphas=(0.6, 2.0)),
                FunctionalSpec(kind="det_power", gammas=(-0.4,)),
                "alpha_1 + gamma_1 > p - 1",
            ),
            (
                MeasureSpec(kind="type1", p=1, k=1, alphas=(300.0, 1e4)),
                FunctionalSpec(kind="det_power", gammas=(-100.0,)),
                "value finite (log value 795.9477293694117)",
            ),
        ],
    )
    def test_missing_second_moment_fails_by_name(self, measure, functional, violated, monkeypatch):
        def no_draws(*args, **kwargs):
            raise AssertionError("a gated case must not draw")

        assert evaluate_average(measure, functional).conditions_ok
        monkeypatch.setattr(montecarlo, "sample_batch", no_draws)
        (r,) = verify_suite([case("gated", measure, functional)])
        assert r.verdict == "fail" and r.n == 0 and r.estimate is None
        assert r.diagnostics["reason"] == "second moment does not exist"
        assert r.diagnostics["error"] == "DomainError"
        assert r.diagnostics["violated_conditions"] == [violated]

    def test_exp_trace_and_phi6_are_not_gated(self):
        assert FUNCTIONALS["exp_trace"].exponent is None
        assert FUNCTIONALS["phi6"].exponent is None
        cases = [
            case(
                "exp_trace",
                scalar_type1(),
                FunctionalSpec(kind="exp_trace", A=HermitianMatrix([[2.0]])),
            ),
            case(
                "phi6",
                MeasureSpec(kind="type2", p=1, k=2, alphas=(1.5, 2.0, 3.0)),
                FunctionalSpec(kind="phi6", A=HermitianMatrix([[4.5]])),
                stream=1,
            ),
        ]
        sampled = [[1.0, 2.0], [1.5, 3.0]]  # each draws the k = 1 measure of X_1
        for r, alphas in zip(verify_suite(cases), sampled):
            assert r.verdict == "pass" and r.n == 20_000, r.diagnostics
            assert r.diagnostics == {"sampled_alphas": alphas}


class TestSampledAlphas:
    """A report names the drawn measure's alphas wherever they differ from
    the case's own scalar_alphas, one test per reads mode."""

    @staticmethod
    def report(measure, functional):
        (r,) = verify_suite([case("c", measure, functional, n=5_000)])
        assert r.verdict == "pass", r
        return r

    def test_each_draws_the_case_measure(self):
        rect = MeasureSpec(kind="rect_type2_p1", p=1, k=2, alphas=(0.5, 1.0, 8.0), ns=(2, 3))
        for measure in (scalar_type1(), rect):
            r = self.report(measure, FunctionalSpec(kind="det_power", gammas=(0.5, 1.0)))
            assert r.diagnostics == {}

    def test_sum_draws_the_sum(self):
        measure = MeasureSpec(kind="type2", p=2, k=2, alphas=(2.5, 2.5, 3.5))
        r = self.report(measure, FunctionalSpec(kind="complement_power", delta=1.0))
        assert r.diagnostics == {"sampled_alphas": [5.0, 3.5]}
        rect = MeasureSpec(kind="rect_type1_p1", p=1, k=2, alphas=(0.5, 1.0, 2.0), ns=(2, 3))
        r = self.report(rect, FunctionalSpec(kind="hermitian_form_moment", h=1.0))
        assert r.diagnostics == {"sampled_alphas": [6.5, 2.0]}
        # canonical output keeps it; the CSV columns stay as they are
        doc = json.loads(report_emit([r], canonical=True))[0]
        assert doc["diagnostics"] == {"sampled_alphas": [6.5, 2.0]}
        assert report_emit([r], format="csv").decode().splitlines()[0] == CSV_HEADER

    def test_first_draws_x1(self):
        measure = MeasureSpec(kind="type1", p=2, k=2, alphas=(2.0, 1.5, 1.5))
        r = self.report(measure, FunctionalSpec(kind="exp_trace"))
        assert r.diagnostics == {"sampled_alphas": [2.0, 3.0]}

    @pytest.mark.parametrize(
        "measure, functional",
        [
            (MeasureSpec(kind="type1", p=2, k=1, alphas=(2.5, 3.0)),
             FunctionalSpec(kind="complement_power", delta=1.0)),
            (MeasureSpec(kind="rect_type1_p1", p=1, k=1, alphas=(0.5, 2.0), ns=(2,)),
             FunctionalSpec(kind="hermitian_form_moment", h=1.0)),
        ],
        ids=["type1_k1", "rect_k1"],
    )
    def test_k1_draws_its_own_alphas_unreported(self, measure, functional):
        assert self.report(measure, functional).diagnostics == {}


def _hermitian(rng, p):
    z = rng.normal(size=(p, p)) + 1j * rng.normal(size=(p, p))
    return z + z.conj().T


class TestDet:
    """Determinants as Draws carries them, each against the packed stack: at
    p >= 2 log det X_j and the type-1 log complement from the sampler's
    pivots and the type-2 log complement, -log det(I + sum X_j), from the
    Cholesky factor of the lower-triangle grid plus I; at p = 1 all three
    from the stored ratios."""

    @staticmethod
    def logs(draws):
        """log det X_j for each j, then the log complement at either kind."""
        return np.vstack([draws.logdet, draws.log_complement])

    @staticmethod
    def complement_sign(want, type1):
        """The stack's log-determinants with the last row as the log
        complement: log det(I - sum X_j), or -log det(I + sum X_j)."""
        want[-1] *= 1 if type1 else -1
        return want

    @staticmethod
    def stack(draws, type1):
        """The packed X_j, then I - sum X_j (type-1) or I + sum X_j (type-2)."""
        x = draws.stack()
        comp = np.eye(x.shape[-1]) + (-1 if type1 else 1) * x.sum(axis=0)
        return np.concatenate([x, comp[None]])

    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    def test_matches_numpy(self, p):
        for i, kind in enumerate(["type1", "type2"]):
            measure = MeasureSpec(kind=kind, p=p, k=2, alphas=(p + 0.5, p + 1.0, p + 1.5))
            draws = sample_batch(measure, SeedSpec(42, 40 + 2 * p + i), 2_000)
            stack = self.stack(draws, measure.type1)
            sign, want = np.linalg.slogdet(stack)
            assert np.allclose(sign, 1, rtol=0, atol=1e-12)
            # well conditioned: every matrix's eigenvalues within a factor 1e3
            eig = np.linalg.eigvalsh(stack)
            well = (eig[..., 0] > 1e-3 * eig[..., -1]).all(axis=0)
            assert well.mean() > 0.9
            # a difference of logs is the determinants' relative difference
            want = self.complement_sign(want, measure.type1)
            got = self.logs(draws)
            assert np.abs(got - want)[:, well].max() <= 1e-12

    @pytest.mark.parametrize("p", [4, 5])
    def test_matches_mpmath(self, p):
        for i, kind in enumerate(["type1", "type2"]):
            measure = MeasureSpec(kind=kind, p=p, k=2, alphas=(p + 0.5, p + 1.0, p + 1.5))
            draws = sample_batch(measure, SeedSpec(42, 60 + 2 * p + i), 20)
            with mpmath.workdps(30):
                want = np.array([
                    float(mpmath.log(mpmath.re(mpmath.det(mpmath.matrix(m.tolist())))))
                    for m in self.stack(draws, measure.type1).reshape(-1, p, p)
                ]).reshape(3, -1)
            want = self.complement_sign(want, measure.type1)
            got = self.logs(draws)
            assert got.dtype == np.float64
            assert np.allclose(got, want, rtol=1e-11, atol=1e-13)

    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    def test_type1_complement_real_and_finite(self, p):
        measure = MeasureSpec(kind="type1", p=p, k=2, alphas=(p + 0.5, p + 1.0, p - 0.97))
        d = sample_batch(measure, SeedSpec(7), 20_000).log_complement
        assert d.dtype == np.float64 and d.shape == (20_000,)
        assert np.isfinite(d).all()

    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    @pytest.mark.parametrize("kind", ["type1", "type2"])
    def test_trace_matches_einsum(self, kind, p):
        rng = np.random.default_rng(p)
        measure = MeasureSpec(kind=kind, p=p, k=2, alphas=(p + 0.5, p + 1.0, p + 1.5))
        draws = sample_batch(measure, SeedSpec(42, 80 + p), 2_000)
        x = draws.stack()
        for j in range(2):
            a = _hermitian(rng, p)
            want = np.einsum("ab,nba->n", a, x[j])
            assert np.abs(want.imag).max() <= 1e-12 * np.abs(want).max()
            got = draws.trace(a, j)
            assert got.dtype == np.float64
            assert np.abs(got - want.real).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("p", [2, 3, 4])
    def test_type2_complement_adds_no_floor_event(self, p):
        # alpha_3 near p - 1 gives heavy-tailed X_j: large sums, pivots >= 1
        measure = MeasureSpec(kind="type2", p=p, k=2, alphas=(p + 0.5, p + 1.0, p - 0.9))
        draws = sample_batch(measure, SeedSpec(42, 90 + p), 20_000)
        complement = make_integrand(measure, FunctionalSpec(kind="complement_power", delta=0.5))
        phi6 = make_integrand(measure, FunctionalSpec(kind="phi6", A=HermitianMatrix.identity(p)))
        before = floor_event_count()
        vals = [complement(draws), phi6(draws)]
        assert floor_event_count() == before
        assert all(np.isfinite(v).all() for v in vals)


class TestNearBoundary:
    """Exponents just below 0 at alphas near their bounds, where forming
    I - sum X_j or det X_j from the packed matrices rounded to 0 and raised
    NonFiniteIntegrand; the logs from the sampler's pivots stay finite."""

    CASES = load_suite(json.loads(NEAR_BOUNDARY.read_text()))

    @pytest.mark.parametrize("case", CASES, ids=[c.case_id for c in CASES])
    def test_finite_within_4se(self, case):
        assert case.mc == McConfig(samples=100_000, seed=SeedSpec(42))
        est, se = mc_estimate_full(case.measure, case.functional, case.mc)[:2]
        closed = evaluate_average(case.measure, case.functional).value
        assert np.isfinite(est) and abs(est - closed) <= 4 * se, (est, closed, se)

    def test_suite_holds_the_five_cases(self):
        assert [c.case_id for c in self.CASES] == [
            "complement_power_type1_p1_near_bound",
            "complement_power_type1_p2_near_bound",
            "complement_power_type1_p3_near_bound",
            "complement_power_type1_p4_near_bound",
            "det_power_type1_p2_near_bound",
        ]


class TestType2NearBound:
    """det_power at type-2 alphas whose closing gamma sits near p - 1: its
    small pivots are the sampler's own draws and must not be floored."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("p, alphas", [(2, (2.5, 1.1)), (3, (3.5, 2.1))])
    def test_within_4se_without_floor_event(self, p, alphas, seed):
        measure = MeasureSpec(kind="type2", p=p, k=1, alphas=alphas)
        functional = FunctionalSpec(kind="det_power", gammas=(0.04,))
        before = floor_event_count()
        est, se = mc_estimate_full(measure, functional, McConfig(100_000, SeedSpec(seed)))[:2]
        assert floor_event_count() == before
        closed = evaluate_average(measure, functional).value
        assert abs(est - closed) <= 4 * se, (est, closed, se)


@pytest.mark.skipif(
    not _glibc() or any(v in os.environ for v in MALLOC_ENV),
    reason="needs glibc malloc at its default settings",
)
class TestPinnedHeap:
    """mc_estimate_full pins glibc's trim and mmap thresholds, so a chunk's
    freed temporaries stay mapped for the next chunk and the next call."""

    def test_warm_estimate_takes_almost_no_page_faults(self):
        measure = MeasureSpec(kind="type1", p=3, k=2, alphas=(3.5, 4.0, 4.5))
        functional = FunctionalSpec(kind="det_power", gammas=(0.5, 1.0))
        config = McConfig(samples=50_000, seed=SeedSpec(42))
        first = mc_estimate_full(measure, functional, config)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        second = mc_estimate_full(measure, functional, config)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
        assert faults < 500
        assert second == first

    @pytest.mark.parametrize(
        "env, pinned",
        [
            ({}, [True, False]),
            ({"MALLOC_TRIM_THRESHOLD_": "131072"}, [False, False]),
            ({"MALLOC_ARENA_MAX": "4"}, [False, False]),
            ({"GLIBC_TUNABLES": "glibc.malloc.trim_threshold=131072"}, [False, False]),
        ],
        ids=["default", "malloc_env", "arena_env", "glibc_tunables"],
    )
    def test_user_settings_win(self, env, pinned):
        program = "from mvda import montecarlo as m; print(m._pin_heap(), m._pin_heap())"
        out = subprocess.run(
            [sys.executable, "-c", program],
            env=dict(os.environ, PYTHONPATH=str(SRC), **env),
            capture_output=True,
            text=True,
            check=True,
        ).stdout.split()
        assert out == [str(v) for v in pinned]


class TestNonFiniteIntegrand:
    @pytest.mark.parametrize(
        "integrand",
        [
            lambda draws: 1.0 / np.zeros(draws.n),  # divide
            lambda draws: np.zeros(draws.n) / np.zeros(draws.n),  # invalid
            lambda draws: np.full(draws.n, 1e300) * 1e300,  # over
        ],
        ids=["divide", "invalid", "over"],
    )
    def test_raises_without_runtime_warning(self, integrand):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteIntegrand) as err:
                montecarlo._chunk_sums(scalar_type1(), integrand, McConfig(1_000, SeedSpec(42)), 0)
        assert err.value.sample_index == 0

    def test_finite_values_keep_their_sums(self):
        # squares past double range leave the sums to mc_estimate_full, quietly
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s1, s2 = montecarlo._chunk_sums(
                scalar_type1(), lambda draws: np.full(draws.n, 1e200), McConfig(1_000, SeedSpec(42)), 0
            )
        assert s1 == np.sum(np.full(1_000, 1e200)) and s2 == np.inf


class TestSquareOverflow:
    """Every value finite, but the sum of squares past double range: the
    standard error is inf, and a 4 SE band would pass any estimate. The
    case fails by name instead."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_fails_by_name(self, workers):
        # det X^-58.5 at alpha = (300, 1e5): the closed form is 2.29e150 and
        # its second moment is finite, but one draw's square overflows
        measure = MeasureSpec(kind="type1", p=1, k=1, alphas=(300.0, 1e5))
        functional = FunctionalSpec(kind="det_power", gammas=(-58.5,))
        overflow = VerifyCase("overflow", measure, functional, McConfig(100_000, SeedSpec(1)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (r,) = verify_suite([overflow], workers=workers)
        assert r.verdict == "fail" and r.std_error is None and r.n == 0
        assert r.diagnostics["error"] == "DomainError"
        assert r.diagnostics["violated_conditions"] == ["sum of f**2 finite (got inf)"]


class TestComparator:
    def test_pass_and_fail(self):
        r = build_report("demo", estimate=1.0, std_error=0.01, n=100, closed_form=1.02)
        assert r.verdict == "pass"
        r2 = build_report("demo", estimate=1.0, std_error=0.01, n=100, closed_form=1.1)
        assert r2.verdict == "fail"

    def test_perturbed_closed_form_fails(self):
        est, se = mc_estimate_full(
            scalar_type1(),
            FunctionalSpec(kind="det_power", gammas=(1.0, 0.0)),
            McConfig(samples=50_000, seed=SeedSpec(42, 7)),
        )[:2]
        r = build_report("synthetic", est, se, 50_000, closed_form=est + 10 * se)
        assert r.verdict == "fail"

    def test_absolute_floor(self):
        r = build_report("floor", estimate=0.0, std_error=0.0, n=10, closed_form=5e-5)
        assert r.tolerance == 1e-4
        assert r.verdict == "pass"


class TestVerifySuite:
    def test_error_isolation(self):
        good = FunctionalSpec(kind="det_power", gammas=(1.0,))
        bad_measure = MeasureSpec(kind="type2", p=1, k=1, alphas=(2.0, 3.0))
        cases = [
            case("ok_1", MeasureSpec(kind="type1", p=1, k=1, alphas=(1.0, 1.0)), good),
            case("broken", bad_measure, FunctionalSpec(kind="det_power", gammas=(4.0,)), stream=1),
            case("ok_2", MeasureSpec(kind="type1", p=1, k=1, alphas=(2.0, 2.0)), good, stream=2),
        ]
        reports = verify_suite(cases)
        assert [r.case_id for r in reports] == ["ok_1", "broken", "ok_2"]
        assert reports[0].verdict == "pass"
        assert reports[1].verdict == "fail"
        assert reports[1].diagnostics["error"] == "DomainError"
        assert reports[1].diagnostics["violated_conditions"]
        assert reports[2].verdict == "pass"
        assert not all_passed(reports)

    def test_rect_type1_tiny_closing_gamma(self):
        # alpha_{k+1} = 0.2 puts some form-value sums at exactly 1 in double
        # precision; the draws are inside the support and the moment matches.
        m = MeasureSpec(kind="rect_type1_p1", p=1, k=1, alphas=(0.6, 0.2), ns=(1,))
        f = FunctionalSpec(kind="hermitian_form_moment", h=1.0)
        r = verify_suite([case("rect", m, f, n=100_000, chunk=25_000)])[0]
        assert r.verdict == "pass", r.diagnostics

    def test_form_moment_with_negative_alpha(self):
        # alpha_1 + n_1 = 0.5 > 0: the measure and the moment exist
        m = MeasureSpec(kind="rect_type1_p1", p=1, k=1, alphas=(-0.5, 2.0), ns=(1,))
        f = FunctionalSpec(kind="hermitian_form_moment", h=1.0)
        r = verify_suite([case("neg", m, f, n=100_000)])[0]
        assert r.verdict == "pass", r.diagnostics
        assert r.closed_form == pytest.approx(0.2, rel=1e-12)

    def test_truncated_closed_form_fails(self):
        # At A = 0.01 the order-2 truncation error (~2e-8) is far inside the
        # 4 SE tolerance, so only the unconverged series can fail the case.
        m = MeasureSpec(kind="type1", p=1, k=2, alphas=(1.0, 1.0, 1.0))
        a = HermitianMatrix([[0.01]])
        short = TruncationPolicy(max_order=2)
        full, cut = verify_suite([
            case("full", m, FunctionalSpec(kind="exp_trace", A=a)),
            case("cut", m, FunctionalSpec(kind="exp_trace", A=a, policy=short)),
        ])
        assert full.verdict == "pass"
        assert "reason" not in full.diagnostics
        assert cut.verdict == "fail"
        assert cut.abs_diff <= cut.tolerance
        assert cut.diagnostics["reason"] == "closed-form series did not converge by order 2"

    def test_cancelled_closed_form_fails(self):
        # The series at the mixed-sign A meets the stopping rule before
        # max_order, but its order terms leave too few digits to call it
        # converged; the estimate alone would pass.
        m = MeasureSpec(kind="type1", p=2, k=2, alphas=(1.5, 1.2, 1.3))
        a = HermitianMatrix.diagonal([-20.0, 1.0])
        f = FunctionalSpec(kind="exp_trace", A=a, policy=TruncationPolicy(max_order=150))
        order = evaluate_average(m, f).diagnostics["order_reached"]
        assert order < 150
        (r,) = verify_suite([case("cancelled", m, f)])
        assert r.verdict == "fail"
        assert r.abs_diff <= r.tolerance
        assert r.diagnostics["reason"] == f"closed-form series did not converge by order {order}"

    def test_duplicate_ids_rejected(self):
        f = FunctionalSpec(kind="det_power", gammas=(1.0,))
        m = MeasureSpec(kind="type1", p=1, k=1, alphas=(1.0, 1.0))
        with pytest.raises(ValueError):
            verify_suite([case("x", m, f), case("x", m, f, stream=1)])

    def test_default_suite_loads(self):
        cases = default_suite()
        assert len(cases) <= 40
        ids = [c.case_id for c in cases]
        assert len(set(ids)) == len(ids)
        # every phi family is covered
        for prefix in ["phi1", "phi2", "phi3", "phi4", "phi5", "phi6", "phi7", "phi8", "phi9"]:
            assert any(i.startswith(prefix) for i in ids), prefix
        for c in cases:
            assert c.mc.samples == 100_000
            assert c.mc.seed.seed == 42

    def test_suite_config_round_trip(self):
        cases = default_suite()
        back = load_suite(json.loads(dump_suite(cases)))
        assert [c.to_json() for c in back] == [c.to_json() for c in cases]
        # key order and number formatting survive too: the shipped file re-emits as is
        shipped = resources.files("mvda").joinpath("data/default_suite.json").read_bytes()
        assert dump_suite(cases).encode("utf-8") == shipped


class TestReportEmit:
    def make_reports(self):
        return [
            build_report("a", 1.0, 0.01, 100, 1.005, runtime_ms=17),
            build_report("b", 2.0, 0.02, 200, 2.5, runtime_ms=23, diagnostics={}),
        ]

    def test_empty_json(self):
        assert report_emit([], format="json") == b"[]\n"

    def test_csv_two_lines(self):
        data = report_emit(self.make_reports()[:1], format="csv").decode()
        lines = data.strip().split("\n")
        assert len(lines) == 2
        assert lines[0] == CSV_HEADER

    def test_json_parse_reemit_identical(self):
        # the JSON keys are McReport's fields, so a parsed report rebuilds as is
        data = report_emit(self.make_reports(), format="json")
        again = report_emit([McReport(**d) for d in json.loads(data)], format="json")
        assert data == again

    def test_canonical_zeroes_runtime_only(self):
        reports = self.make_reports()
        doc = json.loads(report_emit(reports, format="json", canonical=True))
        assert all(d["runtime_ms"] == 0 for d in doc)
        plain = json.loads(report_emit(reports, format="json"))
        for a, b in zip(doc, plain):
            a.pop("runtime_ms"), b.pop("runtime_ms")
            assert a == b

    def test_field_order_stable(self):
        doc = json.loads(report_emit(self.make_reports(), format="json"))
        assert list(doc[0].keys()) == [
            "case_id", "estimate", "std_error", "closed_form", "abs_diff",
            "tolerance", "verdict", "n", "runtime_ms", "diagnostics",
        ]

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            report_emit([], format="xml")


class TestMcConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            McConfig(samples=0, seed=SeedSpec(1))
        with pytest.raises(ValueError):
            McConfig(samples=10, seed=SeedSpec(1), chunk=0)

    def test_json_round_trip(self):
        cfg = McConfig(samples=1000, seed=SeedSpec(42, 3), chunk=100)
        assert McConfig.from_json(cfg.to_json()) == cfg

    @pytest.mark.parametrize(
        "field,value", [("samples", 1000.9), ("samples", "1000"), ("chunk", "500"), ("chunk", 2.5)]
    )
    def test_from_json_refuses_non_integers(self, field, value):
        doc = {**McConfig(samples=1000, seed=SeedSpec(42, 3), chunk=100).to_json(), field: value}
        with pytest.raises(TypeError, match=f"^{field} must be a JSON integer"):
            McConfig.from_json(doc)

    def test_json_without_chunk_takes_the_default(self):
        cfg = McConfig(samples=1000, seed=SeedSpec(42, 3))
        doc = cfg.to_json()
        del doc["chunk"]
        assert McConfig.from_json(doc) == cfg

    def test_report_json_round_trip(self):
        r = build_report("a", 1.0, 0.01, 100, 1.005, runtime_ms=17)
        assert McReport(**r.to_json()) == r

import math
import re
from functools import partial

import mpmath
import numpy as np
import pytest
from scipy.special import gammaln

from mvda.averages import (
    FUNCTIONALS,
    AverageResult,
    AverageSpec,
    FunctionalSpec,
    complement_power_average,
    det_power_average,
    evaluate_average,
    exp_trace_average,
    hermitian_form_moment,
    normalizer_ln,
    phi6_average,
)
from mvda.errors import DomainError
from mvda.linalg import HermitianMatrix
from mvda.measures import MeasureSpec
from mvda.montecarlo import McConfig, VerifyCase, verify_suite
from mvda.rng import SeedSpec
from mvda.special import TruncationPolicy


def t1(p, k, alphas):
    return MeasureSpec(kind="type1", p=p, k=k, alphas=alphas)


def t2(p, k, alphas):
    return MeasureSpec(kind="type2", p=p, k=k, alphas=alphas)


def rect(kind, alphas, ns):
    return MeasureSpec(kind=f"rect_{kind}_p1", p=1, k=len(ns), alphas=alphas, ns=ns)


class TestNormalizer:
    def test_uniform_beta(self):
        assert normalizer_ln(t1(1, 1, (1.0, 1.0))) == pytest.approx(0.0, abs=1e-12)

    def test_scalar_dirichlet(self):
        assert normalizer_ln(t1(1, 2, (1.0, 1.0, 1.0))) == pytest.approx(
            math.log(2.0), rel=1e-12
        )

    def test_type2_same_constant_as_type1(self):
        a = (2.5, 3.0, 4.0)
        assert normalizer_ln(t1(2, 2, a)) == normalizer_ln(t2(2, 2, a))

    def test_rectangular(self):
        spec = MeasureSpec(
            kind="rect_type1_p1",
            p=1,
            k=1,
            alphas=(0.5, 2.0),
            ns=(2,),
            Bs=(HermitianMatrix.identity(2),),
        )
        want = (
            gammaln(0.5 + 2 + 2)
            - gammaln(0.5 + 2)
            - gammaln(2.0)
            + gammaln(2.0)
            - 2 * math.log(math.pi)
        )
        assert normalizer_ln(spec) == pytest.approx(float(want), rel=1e-12)

    def test_invalid_measure(self):
        with pytest.raises(DomainError):
            normalizer_ln(t1(2, 1, (1.0, 3.0)))

    def test_rectangular_form_matrix_not_pd_named(self):
        spec = MeasureSpec(
            kind="rect_type1_p1",
            p=1,
            k=1,
            alphas=(0.5, 2.0),
            ns=(2,),
            Bs=(HermitianMatrix.diagonal([1.0, -1.0]),),
        )
        with pytest.raises(DomainError) as err:
            normalizer_ln(spec)
        assert err.value.violated == ("B_1 positive definite",)

    @pytest.mark.parametrize(
        "evaluate",
        [
            normalizer_ln,
            lambda m: det_power_average(m, (1.0,)),
            lambda m: complement_power_average(m, 1.0),
        ],
        ids=["normalizer_ln", "det_power", "complement_power"],
    )
    def test_overflowing_alpha_sum_named(self, evaluate):
        # each alpha is finite, but their sum is inf: refused, not NaN
        with pytest.raises(DomainError) as err:
            evaluate(t1(2, 1, (1e308, 1e308)))
        assert err.value.violated == ("sum(alphas) finite (got inf)",)


class TestDetPower:
    def test_beta_mean(self):
        res = det_power_average(t1(1, 1, (1.0, 1.0)), (1.0,))
        assert res.value == pytest.approx(0.5, rel=1e-12)

    @pytest.mark.parametrize("a1,a2", [(1.5, 2.0), (3.0, 4.5), (0.7, 0.9)])
    def test_beta_mean_general(self, a1, a2):
        res = det_power_average(t1(1, 1, (a1, a2)), (1.0,))
        assert res.value == pytest.approx(a1 / (a1 + a2), rel=1e-12)

    def test_zero_gammas_exact_one(self):
        for m in (t1(2, 2, (2.0, 2.0, 2.0)), t2(1, 1, (2.0, 3.0))):
            res = det_power_average(m, (0.0,) * m.k)
            assert res.log_value == 0.0
            assert res.value == 1.0

    def test_type2_unit_example(self):
        res = det_power_average(t2(1, 1, (2.0, 3.0)), (1.0,))
        assert res.value == pytest.approx(1.0, rel=1e-12)

    def test_type2_nonexistent_moment_named(self):
        with pytest.raises(DomainError) as err:
            det_power_average(t2(1, 1, (2.0, 3.0)), (3.0,))
        assert "alpha_{k+1} - sum(gamma) > p - 1" in err.value.violated
        assert "does not exist" in str(err.value)

    def test_type1_shift_condition(self):
        with pytest.raises(DomainError) as err:
            det_power_average(t1(1, 1, (0.5, 1.0)), (-0.5,))
        assert any("gamma_1" in c for c in err.value.violated)

    def test_rect_type2(self):
        spec = MeasureSpec(kind="rect_type2_p1", p=1, k=1, alphas=(0.5, 6.0), ns=(2,))
        res = det_power_average(spec, (1.0,))
        want = math.exp(gammaln(3.5) - gammaln(2.5) + gammaln(5.0) - gammaln(6.0))
        assert res.value == pytest.approx(want, rel=1e-12)

    def test_gamma_count(self):
        with pytest.raises(ValueError):
            det_power_average(t1(1, 2, (1.0, 1.0, 1.0)), (1.0,))

    def test_infinite_gamma_named(self):
        with pytest.raises(DomainError) as err:
            det_power_average(t1(2, 1, (2.5, 3.0)), (math.inf,))
        assert err.value.violated == ("gamma_1 finite",)


class TestComplementPower:
    def test_zero_delta(self):
        res = complement_power_average(t1(2, 1, (2.0, 2.0)), 0.0)
        assert res.log_value == 0.0

    def test_uniform_mean(self):
        res = complement_power_average(t1(1, 1, (1.0, 1.0)), 1.0)
        assert res.value == pytest.approx(0.5, rel=1e-12)

    def test_type2_scalar(self):
        res = complement_power_average(t2(1, 1, (2.0, 3.0)), 1.0)
        assert res.value == pytest.approx(3 / 5, rel=1e-12)

    def test_value_past_double_range_is_refused(self):
        # the moment exists and its log value, 5.0e294, is finite
        with pytest.raises(DomainError, match="^average overflows: value finite") as err:
            complement_power_average(t1(1, 1, (1e300, 2e305)), -1e300)
        assert err.value.violated == ("value finite (log value 5.009559176932147e+294)",)

    @pytest.mark.parametrize(
        "p,alphas,delta",
        [(1, (1.5, 2.0), 1.0), (2, (2.5, 3.0), 1.5), (2, (2.0, 2.5, 3.0), 2.0)],
    )
    def test_type1_type2_structure_correspondence(self, p, alphas, delta):
        k = len(alphas) - 1
        r1 = complement_power_average(t1(p, k, alphas), delta)
        r2 = complement_power_average(t2(p, k, alphas), delta)
        assert r1.log_value == r2.log_value  # literal equality of the code paths

    def test_strictly_decreasing_in_delta(self):
        vals = [
            complement_power_average(t1(2, 1, (2.5, 3.0)), d).value
            for d in (0.5, 1.0, 2.0, 4.0)
        ]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_rect_type2(self):
        spec = MeasureSpec(kind="rect_type2_p1", p=1, k=1, alphas=(0.5, 2.0), ns=(2,))
        res = complement_power_average(spec, 1.5)
        big = 0.5 + 2.0 + 2
        want = math.exp(
            gammaln(3.5) - gammaln(2.0) + gammaln(big) - gammaln(big + 1.5)
        )
        assert res.value == pytest.approx(want, rel=1e-12)

    def test_condition_named(self):
        with pytest.raises(DomainError) as err:
            complement_power_average(t1(1, 1, (1.0, 1.0)), -1.0)
        assert "alpha_{k+1} + delta > p - 1" in err.value.violated

    def test_infinite_delta_named(self):
        with pytest.raises(DomainError) as err:
            complement_power_average(t1(2, 1, (2.5, 3.0)), math.inf)
        assert err.value.violated == ("delta finite",)


def gamma_p_ln_mp(p, a):
    """log Gamma_p(a) = (p(p-1)/2) log pi + sum_{i<p} log Gamma(a - i), by mpmath."""
    return p * (p - 1) / 2 * mpmath.log(mpmath.pi) + sum(mpmath.loggamma(a - i) for i in range(p))


def dirichlet_moment(b, gammas, delta, p=1):
    """E[prod det U_j^gamma_j det(I - sum U_j)^delta] under the type-1
    Dirichlet law with parameters b = (b_1, ..., b_k; b_{k+1}) at dimension
    p (the scalar law at p = 1), by mpmath."""
    k = len(b) - 1
    with mpmath.workdps(40):
        b = [mpmath.mpf(x) for x in b]
        lg = partial(gamma_p_ln_mp, p)
        val = lg(sum(b)) - lg(sum(b) + sum(gammas) + delta)
        val += sum(lg(b[j] + gammas[j]) - lg(b[j]) for j in range(k))
        val += lg(b[-1] + delta) - lg(b[-1])
        return float(mpmath.exp(val))


def type2_moment(b, gammas, delta, p):
    """E[prod det X_j^gamma_j det(I + sum X_j)^(-delta)] under the type-2
    Dirichlet law at b and dimension p, by mpmath, from the type-2 density
    c(b) prod det X_j^(b_j - p) det(I + sum X_j)^(-sum b), c(b) =
    Gamma_p(sum b) / prod Gamma_p(b_j): the weight turns it into the density
    at b'_j = b_j + gamma_j, b'_{k+1} = b_{k+1} + delta - sum(gamma), so the
    moment is c(b) / c(b')."""
    with mpmath.workdps(40):
        b = [mpmath.mpf(x) for x in b]
        shifted = [x + g for x, g in zip(b, gammas)] + [b[-1] + delta - sum(gammas)]
        val = gamma_p_ln_mp(p, sum(b)) - gamma_p_ln_mp(p, sum(shifted))
        val += sum(gamma_p_ln_mp(p, y) - gamma_p_ln_mp(p, x) for x, y in zip(b, shifted))
        return float(mpmath.exp(val))


class TestPowerMoments:
    """det_power and complement_power at both Dirichlet kinds against mpmath,
    type-2 from its own density rather than through type-1."""

    @staticmethod
    def case(p, k):
        alphas = tuple(p - 0.4 + 0.7 * j for j in range(k)) + (p + 2.5,)
        gammas = (0.5, -0.3)[:k]
        return alphas, gammas

    @pytest.mark.parametrize("kind", ["type1", "type2"])
    @pytest.mark.parametrize("p", [1, 2, 3])
    @pytest.mark.parametrize("k", [1, 2])
    def test_det_power_matches_mpmath(self, kind, p, k):
        alphas, gammas = self.case(p, k)
        measure = MeasureSpec(kind=kind, p=p, k=k, alphas=alphas)
        moment = dirichlet_moment if kind == "type1" else type2_moment
        want = moment(alphas, gammas, 0.0, p)
        assert det_power_average(measure, gammas).value == pytest.approx(want, rel=1e-12, abs=0)

    @pytest.mark.parametrize("kind", ["type1", "type2"])
    @pytest.mark.parametrize("p", [1, 2, 3])
    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("delta", [1.5, -0.3])
    def test_complement_power_matches_mpmath(self, kind, p, k, delta):
        alphas, _ = self.case(p, k)
        measure = MeasureSpec(kind=kind, p=p, k=k, alphas=alphas)
        moment = dirichlet_moment if kind == "type1" else type2_moment
        want = moment(alphas, (0.0,) * k, delta, p)
        res = complement_power_average(measure, delta)
        assert res.value == pytest.approx(want, rel=1e-12, abs=0)

    @pytest.mark.parametrize(
        "p,alphas,gammas,alpha",
        [
            (1, (1e306, 2.0, 5.0), (0.0, 1.0), "1e+306"),
            (2, (3e305, 2.5, 6.0), (0.0, 1.0), "3e+305"),
            (3, (4.2, 2e305, 1e300), (2.3, 0.0), "2e+305"),
        ],
        ids=["p1", "p2", "p3_lost_shift"],
    )
    def test_given_zero_exponent_keeps_the_overflow_refusal(self, p, alphas, gammas, alpha):
        # a gamma_j = 0 that the caller gives is evaluated like any exponent,
        # so log Gamma_p(alpha_j) past double range refuses the moment. Not
        # evaluating it would return 8460.8 at p3_lost_shift, whose value is
        # e^-4757.3: 1e300 - 2.3 rounds to 1e300, so its ratio comes out as 1
        with pytest.raises(DomainError) as err:
            det_power_average(t2(p, 2, alphas), gammas)
        assert err.value.violated == (f"log Gamma_p(alpha) finite (alpha = {alpha}, p = {p})",)

    def test_type2_evaluates_no_closing_ratio(self):
        # the type-2 exponents cancel, so log Gamma_p(sum alpha), which
        # overflows at 4e305 + 1, is never evaluated
        res = det_power_average(t2(1, 2, (2e305, 2e305, 1.0)), (0.0, 0.0))
        assert (res.log_value, res.value) == (0.0, 1.0)


# rect_type1_p1 det-power and complement cases: (alphas, ns, functional)
RECT_TYPE1_CASES = [
    ((0.5, 2.0), (2,), FunctionalSpec(kind="det_power", gammas=(1.0,))),
    ((0.5, 1.0, 2.0), (2, 3), FunctionalSpec(kind="det_power", gammas=(0.5, 1.5))),
    ((-0.5, 1.5), (1,), FunctionalSpec(kind="det_power", gammas=(0.5,))),
    ((0.5, 2.0), (2,), FunctionalSpec(kind="complement_power", delta=1.5)),
    ((0.5, 1.0, 0.7), (2, 3), FunctionalSpec(kind="complement_power", delta=2.0)),
]


class TestRectType1:
    """det_power and complement_power on rect_type1_p1: the scalar Dirichlet
    law at alpha_j + n_j."""

    @pytest.mark.parametrize("alphas,ns,functional", RECT_TYPE1_CASES)
    def test_matches_dirichlet_gamma_ratio(self, alphas, ns, functional):
        b = [a + n for a, n in zip(alphas, ns)] + [alphas[-1]]
        gammas = functional.gammas or (0.0,) * len(ns)
        want = dirichlet_moment(b, gammas, functional.delta or 0.0)
        res = evaluate_average(rect("type1", alphas, ns), functional)
        assert res.value == pytest.approx(want, rel=1e-12)

    def test_sampled_averages_agree(self):
        cases = [
            VerifyCase(
                case_id=f"rect1_{j}",
                measure=rect("type1", alphas, ns),
                functional=functional,
                mc=McConfig(samples=100_000, seed=SeedSpec(42, 40 + j)),
            )
            for j, (alphas, ns, functional) in enumerate(RECT_TYPE1_CASES)
        ]
        reports = verify_suite(cases)
        assert [r.verdict for r in reports] == ["pass"] * len(cases), reports

    def test_conditions_keep_form_sizes(self):
        m1 = rect("type1", (0.5, 2.0), (2,))
        with pytest.raises(DomainError) as err:
            det_power_average(m1, (-3.0,))
        assert err.value.violated == ("alpha_1 + n_1 + gamma_1 > 0",)
        assert str(err.value).startswith("rectangular type-1 moment does not exist")
        with pytest.raises(DomainError) as err:
            complement_power_average(m1, -2.5)
        assert err.value.violated == ("alpha_{k+1} + delta > 0",)
        m2 = rect("type2", (0.5, 1.0, 2.0), (2, 3))
        with pytest.raises(DomainError) as err:
            det_power_average(m2, (-3.0, 5.5))
        assert err.value.violated == (
            "alpha_1 + n_1 + gamma_1 > 0",
            "alpha_{k+1} - sum(gamma) > 0",
        )
        assert str(err.value).startswith("rectangular type-2 moment does not exist")


class TestExpTrace:
    def test_zero_matrix(self):
        res = exp_trace_average(t1(2, 2, (2.0, 2.0, 2.0)), HermitianMatrix(np.zeros((2, 2))))
        assert res.value == 1.0

    def test_scalar_matches_kummer(self):
        res = exp_trace_average(
            t1(1, 2, (1.0, 1.0, 1.0)), HermitianMatrix([[0.5]]), TruncationPolicy(max_order=40)
        )
        assert res.value == pytest.approx(float(mpmath.hyp1f1(1.0, 3.0, 0.5)), rel=1e-10)

    def test_identity_default(self):
        explicit = exp_trace_average(t1(2, 2, (2.0, 2.0, 2.0)), HermitianMatrix.identity(2))
        default = exp_trace_average(t1(2, 2, (2.0, 2.0, 2.0)))
        assert explicit.value == default.value

    def test_diagnostics_present(self):
        res = exp_trace_average(t1(1, 2, (1.0, 1.0, 1.0)), HermitianMatrix([[0.2]]))
        assert res.diagnostics["converged"]
        assert res.diagnostics["order_reached"] >= 1

    def test_domain_error(self):
        with pytest.raises(DomainError):
            exp_trace_average(t1(2, 2, (2.0, 0.5, 2.0)))

    def test_parameter_matrix_of_another_size_is_refused(self):
        with pytest.raises(ValueError, match="^parameter matrix must be 2x2$"):
            exp_trace_average(t1(2, 2, (2.0, 2.0, 2.0)), HermitianMatrix.identity(3))


class TestPhi6:
    def test_scalar_gamma_recurrence(self):
        res = phi6_average(t2(1, 2, (1.0, 2.0, 2.5)), HermitianMatrix([[1.0]]))
        assert res.value == pytest.approx(2.5, rel=1e-12)

    def test_determinant_scaling(self):
        alphas = (2.0, 2.5, 3.0)
        a = HermitianMatrix.diagonal([1.0, 2.0])
        base = phi6_average(t2(2, 2, alphas), a)
        scaled = phi6_average(t2(2, 2, alphas), HermitianMatrix.diagonal([3.0, 6.0]))
        assert scaled.value == pytest.approx(base.value * 3.0 ** (-2 * alphas[0]), rel=1e-10)

    def test_requires_pd_parameter(self):
        with pytest.raises(DomainError) as err:
            phi6_average(t2(1, 2, (2.0, 2.0, 2.0)), HermitianMatrix([[-1.0]]))
        assert "A positive definite" in err.value.violated

    def test_parameter_matrix_of_another_size_is_refused(self):
        with pytest.raises(ValueError, match="^parameter matrix must be 2x2$"):
            phi6_average(t2(2, 2, (2.0, 2.0, 2.0)), HermitianMatrix.identity(1))

    def test_value_past_double_range_is_refused(self):
        # -alpha_1 log det A = 800 * 690.8: a finite log value, but e^557179
        # is past double range
        measure, a = t2(1, 2, (800.0, 1.0, 2.0)), HermitianMatrix([[1e-300]])
        with pytest.raises(DomainError, match="^average overflows: value finite") as err:
            phi6_average(measure, a)
        (named,) = err.value.violated
        assert re.fullmatch(r"value finite \(log value 557179\.\d+\)", named)
        # verify reports the named condition as the case's failure
        case = VerifyCase("phi6_overflow", measure, FunctionalSpec(kind="phi6", A=a),
                          McConfig(1_000, SeedSpec(1)))
        (r,) = verify_suite([case])
        assert r.verdict == "fail" and r.n == 0
        assert r.diagnostics["error"] == "DomainError"
        assert r.diagnostics["violated_conditions"] == [named]


class TestHermitianFormMoment:
    def test_zero_h(self):
        res = hermitian_form_moment(rect("type1", (0.5, 2.0), (2,)), 0.0)
        assert res.log_value == 0.0

    def test_type1_beta_mean(self):
        res = hermitian_form_moment(rect("type1", (0.5, 2.0), (2,)), 1.0)
        assert res.value == pytest.approx(5 / 9, rel=1e-12)

    def test_type2_example(self):
        res = hermitian_form_moment(rect("type2", (0.5, 3.0), (2,)), 1.0)
        assert res.value == pytest.approx(1.25, rel=1e-12)

    def test_type2_nonexistent_named(self):
        with pytest.raises(DomainError) as err:
            hermitian_form_moment(rect("type2", (0.5, 3.0), (2,)), 3.0)
        assert "alpha_{k+1} - h > 0" in err.value.violated
        assert "does not exist" in str(err.value)

    def test_type1_infinite_h_named(self):
        with pytest.raises(DomainError) as err:
            hermitian_form_moment(rect("type1", (0.5, 2.0), (2,)), math.inf)
        assert err.value.violated == ("h finite",)

    def test_negative_alpha_with_positive_shift(self):
        # alpha_1 + n_1 > 0 is the condition, checked by MeasureSpec.validate
        res = hermitian_form_moment(rect("type1", (-0.5, 2.0), (1,)), 1.0)
        assert res.value == pytest.approx(0.2, rel=1e-12)
        with pytest.raises(DomainError) as err:
            hermitian_form_moment(rect("type2", (-1.5, 3.0), (1,)), 1.0)
        assert "alpha_1 + n_1 > 0 (got -0.5)" in err.value.violated

    def test_complementarity_with_det_power(self):
        # p=1 type-1 det power on (alpha_1' + n_1', alpha_2) equals the form
        # moment with the same shifted first parameter.
        h, a2 = 1.5, 2.0
        via_det = det_power_average(t1(1, 1, (2.5, a2)), (h,))
        via_form = hermitian_form_moment(rect("type1", (0.5, a2), (2,)), h)
        assert via_det.value == pytest.approx(via_form.value, rel=1e-12)


class TestScale:
    def test_no_overflow_large_parameters(self):
        spec = t1(6, 2, (50.0, 45.0, 40.0))
        res = det_power_average(spec, (2.0, 3.0))
        assert np.isfinite(res.log_value)
        res2 = complement_power_average(spec, 10.0)
        assert np.isfinite(res2.log_value)
        assert np.isfinite(normalizer_ln(spec))


class TestFunctionalSpec:
    def test_requires_own_parameters(self):
        with pytest.raises(ValueError):
            FunctionalSpec(kind="det_power")
        with pytest.raises(ValueError):
            FunctionalSpec(kind="det_power", gammas=(1.0,), delta=2.0)
        with pytest.raises(ValueError):
            FunctionalSpec(kind="complement_power", delta=1.0, h=2.0)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            FunctionalSpec(kind="nope")

    def test_scalar_parameters_coerced_to_float(self):
        assert FunctionalSpec(kind="complement_power", delta="0.5").delta == 0.5
        assert FunctionalSpec(kind="hermitian_form_moment", h=1).h == 1.0
        with pytest.raises(TypeError):
            FunctionalSpec(kind="complement_power", delta=[1])

    def test_json_round_trip(self):
        f = FunctionalSpec(
            kind="exp_trace",
            A=HermitianMatrix.diagonal([0.1, 0.2]),
            policy=TruncationPolicy(max_order=30),
        )
        back = FunctionalSpec.from_json(f.to_json())
        assert back.kind == f.kind
        assert np.array_equal(back.A.array, f.A.array)
        assert back.policy == f.policy
        assert back == f and hash(back) == hash(f)
        # one spec per kind: the document holds exactly the set parameters
        specs = [
            FunctionalSpec(kind="det_power", gammas=(1.0, 0.5)),
            FunctionalSpec(kind="complement_power", delta=1.5),
            FunctionalSpec(kind="exp_trace"),
            FunctionalSpec(kind="phi6", A=HermitianMatrix([[2.0, 0.5j], [-0.5j, 1.0]])),
            FunctionalSpec(kind="hermitian_form_moment", h=0.75),
        ]
        assert {s.kind for s in specs} == set(FUNCTIONALS)
        for spec in specs:
            doc = spec.to_json()
            back = FunctionalSpec.from_json(doc)
            assert back == spec and hash(back) == hash(spec)
            assert back.to_json() == doc
            set_fields = [n for n in ("gammas", "delta", "h", "A", "policy")
                          if getattr(spec, n) is not None]
            assert list(doc) == ["functional"] + set_fields
        # a policy without max_order takes TruncationPolicy's default
        partial = FunctionalSpec.from_json({"functional": "exp_trace", "policy": {"max_order": 30}})
        assert partial.policy == TruncationPolicy(max_order=30)
        assert FunctionalSpec.from_json(
            {"functional": "exp_trace", "policy": {}}
        ).policy == TruncationPolicy()

    @pytest.mark.parametrize(
        "doc,field",
        [
            ({"functional": "det_power", "gammas": "1"}, "gammas"),
            ({"functional": "det_power", "gammas": [1.0, True]}, "gammas[1]"),
            ({"functional": "complement_power", "delta": True}, "delta"),
            ({"functional": "hermitian_form_moment", "h": [1]}, "h"),
            ({"functional": "exp_trace", "policy": {"max_order": 30.5}}, "max_order"),
            ({"functional": "exp_trace", "policy": {"max_order": "30"}}, "max_order"),
        ],
        ids=["gammas-string", "gammas-bool-entry", "delta-bool", "h-array", "max_order-float",
             "max_order-string"],
    )
    def test_from_json_refuses_mistyped_fields(self, doc, field):
        with pytest.raises(TypeError, match=f"^{re.escape(field)} must be a JSON"):
            FunctionalSpec.from_json(doc)


class TestEvaluateAverage:
    def test_dispatch_det_power(self):
        spec = AverageSpec(
            measure=t1(1, 1, (1.0, 1.0)),
            functional=FunctionalSpec(kind="det_power", gammas=(1.0,)),
        )
        res = evaluate_average(spec.measure, spec.functional)
        assert res.value == pytest.approx(0.5, rel=1e-12)

    def test_exp_trace_requires_type1_k2(self):
        with pytest.raises(ValueError):
            evaluate_average(
                t1(1, 1, (1.0, 1.0)), FunctionalSpec(kind="exp_trace")
            )

    def test_phi6_requires_type2_k2(self):
        with pytest.raises(ValueError):
            evaluate_average(
                t1(1, 2, (1.0, 1.0, 1.0)),
                FunctionalSpec(kind="phi6", A=HermitianMatrix([[1.0]])),
            )

    def test_form_moment_requires_rect(self):
        with pytest.raises(ValueError):
            evaluate_average(
                t1(1, 1, (1.0, 1.0)), FunctionalSpec(kind="hermitian_form_moment", h=1.0)
            )

    def test_average_spec_json_round_trip(self):
        spec = AverageSpec(
            measure=MeasureSpec(
                kind="rect_type2_p1", p=1, k=1, alphas=(0.5, 6.0), ns=(2,)
            ),
            functional=FunctionalSpec(kind="hermitian_form_moment", h=1.0),
        )
        back = AverageSpec.from_json(spec.to_json())
        assert back.measure == spec.measure
        assert back.functional == spec.functional


class TestAverageResult:
    def test_failure_omits_value_fields(self):
        try:
            det_power_average(t2(1, 1, (2.0, 3.0)), (5.0,))
        except DomainError as exc:
            res = AverageResult.from_domain_error(exc)
        doc = res.to_json()
        assert doc["conditions_ok"] is False
        assert "log_value" not in doc and "value" not in doc
        assert doc["violated_conditions"]

    def test_success_round_trip(self):
        res = det_power_average(t1(1, 1, (1.0, 1.0)), (1.0,))
        doc = res.to_json()
        assert doc["conditions_ok"] is True
        assert doc["value"] == res.value

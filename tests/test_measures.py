import gc
import math
import weakref

import numpy as np
import pytest
from scipy.special import gammaln

from mvda import measures
from mvda.averages import FUNCTIONALS, FunctionalSpec
from mvda.errors import DomainError, SamplerError
from mvda.linalg import EIG_FLOOR_RTOL, HermitianMatrix, _cholesky, _gram, _log_diagonal, is_pd
from mvda.measures import (
    READS,
    MeasureSpec,
    _matrix_gamma_batch,
    _pivot,
    _triangular_factor,
    floor_event_count,
    sample_batch,
    sample_layers,
    sample_matrix_gamma,
)
from mvda.montecarlo import McConfig, VerifyCase, make_integrand, verify_suite
from mvda.rng import SeedSpec

from grids import bits, dense, grid, herm, max_rel, random_lower

N = 100_000


def mean_with_se(values):
    return values.mean(), values.std(ddof=1) / math.sqrt(len(values))


def assert_within_4se(values, target, label=""):
    m, se = mean_with_se(values)
    assert abs(m - target) <= 4 * max(se, 1e-15), (label, m, target, se)


class TestMatrixGamma:
    def test_scalar_mean(self):
        g = _matrix_gamma_batch(SeedSpec(11).child(0), 1, 2.0, N)[:, 0, 0].real
        assert_within_4se(g, 2.0, "gamma mean")

    def test_trace_mean_p2(self):
        w = _matrix_gamma_batch(SeedSpec(12).child(0), 2, 3.0, N)
        tr = np.einsum("nii->n", w).real
        assert_within_4se(tr, 6.0, "trace mean")

    def test_determinism(self):
        a = sample_matrix_gamma(3, 4.0, SeedSpec(42, 5))
        b = sample_matrix_gamma(3, 4.0, SeedSpec(42, 5))
        assert np.array_equal(a.array, b.array)

    def test_output_is_pd(self):
        w = sample_matrix_gamma(3, 4.0, SeedSpec(9))
        assert is_pd(w)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            sample_matrix_gamma(3, 2.0, SeedSpec(1))

    def test_underflowed_pivot_raises(self):
        # alpha = p - 1 + 1e-3 gives the factor's last diagonal entry
        # Gamma(0.001), which is exactly 0 in a large share of draws; W is
        # then singular, outside the support
        with pytest.raises(SamplerError, match="underflowed to 0 at sample 0$"):
            sample_matrix_gamma(2, 1.001, SeedSpec(0))
        raised = 0
        for s in range(200):
            t = _triangular_factor(SeedSpec(s).child(0), 2, 1.001, 1)
            if any(row[-1][0] == 0 for row in t):
                raised += 1
                with pytest.raises(SamplerError, match="underflowed to 0 at sample 0$"):
                    sample_matrix_gamma(2, 1.001, SeedSpec(s))
            else:
                # a positive pivot, however small, is inside the support
                sample_matrix_gamma(2, 1.001, SeedSpec(s))
        assert 0 < raised < 200

    def test_scalar_reduction_moments(self):
        # at p = 1 the matrix gamma is Gamma(alpha, 1): first four moments
        alpha = 2.5
        g = _matrix_gamma_batch(SeedSpec(13).child(0), 1, alpha, N)[:, 0, 0].real
        for k in range(1, 5):
            target = np.prod([alpha + i for i in range(k)])
            vals = g**k
            m, se = mean_with_se(vals)
            assert abs(m - target) <= 4 * se, (k, m, target)


class TestType1:
    def test_scalar_dirichlet_means(self):
        spec = MeasureSpec(kind="type1", p=1, k=2, alphas=(1.0, 1.0, 1.0))
        batch = sample_batch(spec, SeedSpec(42, 1), N).stack()
        assert_within_4se(batch[0, :, 0, 0].real, 1 / 3, "x1 mean")
        assert_within_4se(batch[1, :, 0, 0].real, 1 / 3, "x2 mean")

    def test_support_constraints(self):
        spec = MeasureSpec(kind="type1", p=2, k=2, alphas=(2.0, 2.5, 3.0))
        batch = sample_batch(spec, SeedSpec(42, 2), 20_000).stack()
        for j in range(2):
            assert np.linalg.eigvalsh(batch[j]).min() > 0
        rem = np.eye(2) - batch.sum(axis=0)
        assert np.linalg.eigvalsh(rem).min() > 0

    def test_det_mean_matches_gamma_ratio(self):
        # E|det X_1| for p=2, k=1, alpha=(2,2), gamma=1 from the shifted
        # normalizer ratio, evaluated directly with ordinary log-gammas.
        def lgp2(a):
            return math.log(math.pi) + gammaln(a) + gammaln(a - 1)

        closed = math.exp(lgp2(3.0) - lgp2(2.0) + lgp2(4.0) - lgp2(5.0))
        spec = MeasureSpec(kind="type1", p=2, k=1, alphas=(2.0, 2.0))
        batch = sample_batch(spec, SeedSpec(42, 3), N).stack()
        dets = np.abs(np.linalg.det(batch[0]))
        assert_within_4se(dets, closed, "det mean")

    def test_trace_aggregate_never_exceeds_p(self):
        spec = MeasureSpec(kind="type1", p=2, k=2, alphas=(2.0, 2.0, 2.0))
        batch = sample_batch(spec, SeedSpec(42, 4), 50_000).stack()
        tr = np.einsum("knii->n", batch).real
        assert np.all(tr <= 2.0)

    def test_single_sample_api(self):
        spec = MeasureSpec(kind="type1", p=2, k=2, alphas=(2.0, 2.5, 3.0))
        s = sample_batch(spec, SeedSpec(7, 3), 1).stack()[:, 0]
        assert s.shape == (2, 2, 2)
        assert all(is_pd(HermitianMatrix(m)) for m in s)
        assert is_pd(HermitianMatrix(np.eye(2) - s[0] - s[1]))
        assert np.array_equal(sample_batch(spec, SeedSpec(7, 3), 1).stack()[:, 0], s)


class TestType2:
    def test_scalar_mean(self):
        spec = MeasureSpec(kind="type2", p=1, k=1, alphas=(2.0, 3.0))
        batch = sample_batch(spec, SeedSpec(42, 5), N).stack()
        assert_within_4se(batch[0, :, 0, 0].real, 1.0, "type2 mean")

    def test_every_sample_pd(self):
        spec = MeasureSpec(kind="type2", p=2, k=1, alphas=(3.0, 4.0))
        batch = sample_batch(spec, SeedSpec(42, 6), 20_000).stack()
        assert np.linalg.eigvalsh(batch[0]).min() > 0

    def test_complement_det_mean(self):
        # E|det(I+X)|^{-1} for p=2, k=1, alpha=(3,4): gamma-ratio oracle.
        def lgp2(a):
            return math.log(math.pi) + gammaln(a) + gammaln(a - 1)

        closed = math.exp(lgp2(5.0) - lgp2(4.0) + lgp2(7.0) - lgp2(8.0))
        spec = MeasureSpec(kind="type2", p=2, k=1, alphas=(3.0, 4.0))
        batch = sample_batch(spec, SeedSpec(42, 7), N).stack()
        vals = 1.0 / np.abs(np.linalg.det(np.eye(2) + batch[0]))
        assert_within_4se(vals, closed, "complement det mean")

    def test_single_sample_api(self):
        spec = MeasureSpec(kind="type2", p=2, k=1, alphas=(3.0, 4.0))
        s = sample_batch(spec, SeedSpec(3, 1), 1).stack()[:, 0]
        assert all(is_pd(HermitianMatrix(m)) for m in s)


class TestRectangular:
    def test_type1_mean(self):
        spec = MeasureSpec(kind="rect_type1_p1", p=1, k=1, alphas=(0.5, 2.0), ns=(2,))
        batch = sample_batch(spec, SeedSpec(42, 8), N).stack()
        assert_within_4se(batch[0, :, 0, 0].real, 2.5 / 4.5, "u mean")

    def test_type1_support(self):
        spec = MeasureSpec(kind="rect_type1_p1", p=1, k=2, alphas=(0.5, 1.0, 2.0), ns=(2, 3))
        u = sample_batch(spec, SeedSpec(42, 9), 50_000).stack()[:, :, 0, 0].real
        assert np.all(u > 0)
        assert np.all(u.sum(axis=0) < 1)

    def test_sum_moment_matches_beta_ratio(self):
        # h = 1 moment of the form sum: shifted beta mean oracle.
        a = 0.5 + 2  # alpha_1 + n_1
        b = 2.0  # closing parameter
        closed = math.exp(
            gammaln(a + 1) - gammaln(a) + gammaln(a + b) - gammaln(a + b + 1)
        )
        spec = MeasureSpec(kind="rect_type1_p1", p=1, k=1, alphas=(0.5, 2.0), ns=(2,))
        u = sample_batch(spec, SeedSpec(42, 10), N).stack()[0, :, 0, 0].real
        assert_within_4se(u, closed, "h=1 moment")

    def test_type2_support(self):
        spec = MeasureSpec(kind="rect_type2_p1", p=1, k=2, alphas=(0.5, 1.0, 4.0), ns=(2, 3))
        u = sample_batch(spec, SeedSpec(42, 11), 50_000).stack()[:, :, 0, 0].real
        assert np.all(u > 0)

    def test_single_sample_api(self):
        spec = MeasureSpec(kind="rect_type1_p1", p=1, k=2, alphas=(0.5, 1.0, 2.0), ns=(2, 3))
        u = list(sample_batch(spec, SeedSpec(5, 2), 1).stack()[:, 0, 0, 0])
        assert len(u) == 2 and all(x > 0 for x in u) and sum(u) < 1

    def test_type1_is_gamma_ratio_at_shifted_alphas(self):
        # k gammas at alpha_j + n_j, then the closing gamma, from one stream
        spec = MeasureSpec(kind="rect_type1_p1", p=1, k=2, alphas=(0.5, 1.0, 2.0), ns=(2, 3))
        rng = SeedSpec(42, 12).child(0)
        g = np.stack([rng.gammas(2.5, 1_000), rng.gammas(4.0, 1_000)])
        g0 = rng.gammas(2.0, 1_000)
        u = sample_batch(spec, SeedSpec(42, 12), 1_000).stack()[:, :, 0, 0].real
        assert np.array_equal(u, g / (g.sum(axis=0) + g0))


class TestP1Batch:
    @pytest.mark.parametrize("kind", ["type1", "type2", "rect_type1_p1", "rect_type2_p1"])
    def test_real_stack_is_gamma_ratio(self, kind):
        # the old complex stack's real part, with no complex round trip
        ns = (2, 3) if kind.startswith("rect") else None
        spec = MeasureSpec(kind=kind, p=1, k=2, alphas=(0.5, 1.0, 2.0), ns=ns)
        rng = SeedSpec(42, 13).child(0)
        w = np.stack([rng.gammas(a, 1_000) for a in spec.scalar_alphas])
        x = w[:2] / (w.sum(axis=0) if spec.type1 else w[-1])
        batch = sample_batch(spec, SeedSpec(42, 13), 1_000).stack()
        assert batch.dtype == np.float64 and batch.shape == (2, 1_000, 1, 1)
        assert np.array_equal(batch[:, :, 0, 0], x)
        # a single draw wraps as a complex Hermitian matrix
        m = HermitianMatrix(sample_batch(spec, SeedSpec(42, 13), 1).stack()[0, 0])
        assert m.array.dtype == np.complex128
        assert m.array[0, 0] == sample_batch(spec, SeedSpec(42, 13), 1).stack()[0, 0, 0, 0]


class TestDrawsLifetime:
    @pytest.mark.parametrize(
        "kind,functional",
        [
            ("type1", FunctionalSpec(kind="exp_trace")),
            ("type1", FunctionalSpec(kind="complement_power", delta=0.5)),
            ("type2", FunctionalSpec(kind="phi6", A=HermitianMatrix.identity(3))),
            ("type2", FunctionalSpec(kind="complement_power", delta=0.5)),
        ],
    )
    def test_freed_without_the_cyclic_collector(self, kind, functional):
        # a reference cycle would keep every chunk's arrays until gc runs
        spec = MeasureSpec(kind=kind, p=3, k=2, alphas=(3.5, 4.0, 4.5))
        gc.disable()
        try:
            draws = sample_batch(spec, SeedSpec(42, 17), 1_000)
            make_integrand(spec, functional)(draws)
            draws.stack()
            refs = [weakref.ref(draws), weakref.ref(draws.logdet), weakref.ref(draws.l[0][0])]
            del draws
            assert all(r() is None for r in refs)
        finally:
            gc.enable()


class TestDrawCount:
    @pytest.mark.parametrize("p", [1, 2])
    @pytest.mark.parametrize("kind", ["type1", "type2"])
    def test_zero_draws_is_an_empty_stack(self, kind, p):
        spec = MeasureSpec(kind=kind, p=p, k=2, alphas=(p + 0.5, p + 1.0, p + 2.0))
        assert sample_batch(spec, SeedSpec(42), 0).stack().shape == (2, 0, p, p)

    @pytest.mark.parametrize("p", [1, 2])
    def test_negative_count_names_n(self, p):
        spec = MeasureSpec(kind="type1", p=p, k=1, alphas=(p + 0.5, p + 1.0))
        with pytest.raises(ValueError, match=r"n must be >= 0 \(got -1\)"):
            sample_batch(spec, SeedSpec(42), -1)


class TestScalarSupport:
    """Every p = 1 kind raises on a draw outside its support, with a message
    that does not depend on the kind. Gamma(0.01) draws underflow to 0
    about once in 2000."""

    @pytest.mark.parametrize(
        "kind,alphas,message",
        [
            ("type1", (0.01, 0.01), "not positive and finite"),  # x_1 = 0
            ("type2", (0.01, 0.01), "not positive and finite"),  # x_1 = inf
            ("rect_type2_p1", (0.5, 0.01), "not positive and finite"),  # closing 0: u = inf
            ("rect_type1_p1", (0.5, 0.01), "complement"),  # closing 0: u = 1
        ],
    )
    def test_draw_outside_support_raises(self, kind, alphas, message):
        ns = (1,) if kind.startswith("rect") else None
        spec = MeasureSpec(kind=kind, p=1, k=1, alphas=alphas, ns=ns)
        with pytest.raises(SamplerError, match=message) as err:
            sample_batch(spec, SeedSpec(42), N)
        assert "rect" not in str(err.value)


class TestEntrywiseKernels:
    """The matrix gamma's grid factor against a dense rebuild from the same
    stream (the grid kernels themselves are tested in test_linalg)."""

    def test_matrix_gamma_reads_stream_in_triangular_order(self):
        # diagonal gammas at alpha, alpha - 1, ..., then the normals row by row
        p, alpha, n = 3, 3.5, 2_000
        rng = SeedSpec(21).child(0)
        t = np.zeros((n, p, p), dtype=np.complex128)
        for i in range(p):
            t[:, i, i] = np.sqrt(rng.gammas(alpha - i, n))
        for i in range(1, p):
            for j in range(i):
                t[:, i, j] = rng.complex_normals(n)
        w = _matrix_gamma_batch(SeedSpec(21).child(0), p, alpha, n)
        assert max_rel(w, t @ herm(t)) <= 1e-14


class TestPivotFloor:
    """A squared pivot of the type-1 S below EIG_FLOOR_RTOL times its largest
    diagonal entry is raised to that value and counted once. The type-2 L is
    never factored, so nothing floors its pivots."""

    @pytest.mark.parametrize("p", [2, 3])
    def test_cholesky_pivot_raised_and_counted(self, p):
        # integer factor with a zero second pivot: S = L0 L0* is exact in
        # floating point, so that pivot comes out exactly 0 and the rest exact
        l0 = np.array([[2, 0, 0], [1 + 1j, 0, 0], [1, 3 - 1j, 1]])[:p, :p]
        t = random_lower(np.random.default_rng(60 + p), 1_000, p)
        t[:5] = l0
        s = t @ herm(t)
        before = floor_event_count()
        l = _cholesky(grid(s), _pivot)
        assert floor_event_count() - before == 5
        scale = np.max(np.einsum("nii->ni", s).real, axis=1)
        assert np.allclose(l[1][1][:5] ** 2, EIG_FLOOR_RTOL * scale[:5], rtol=1e-12, atol=0)
        assert max_rel(dense(l)[5:], np.linalg.cholesky(s[5:])) <= 1e-12

    @pytest.mark.parametrize("p", [2, 3])
    def test_type2_zero_pivot_raises_without_floor_event(self, p):
        # L at type-2 is T_{k+1} reversed, never factored, so nothing floors
        # its pivots. Gamma(0.001) at T_{k+1}'s last diagonal entry underflows
        # to exactly 0 in about half the draws: outside the support.
        spec = MeasureSpec(kind="type2", p=p, k=1, alphas=(p + 1.0, p - 1 + 1e-3))
        n = 2_000
        rng = SeedSpec(42, 14).child(0)
        _triangular_factor(rng, p, spec.alphas[0], n)
        last = dense(_triangular_factor(rng, p, spec.alphas[1], n))
        zero = np.einsum("nii->ni", last).real == 0
        assert not zero[:, :-1].any() and 0 < zero[:, -1].sum() < n
        before = floor_event_count()
        with pytest.raises(SamplerError, match=f"at sample {int(np.argmax(zero[:, -1]))}$"):
            sample_batch(spec, SeedSpec(42, 14), n)
        assert floor_event_count() == before


class TestGammaPivotSupport:
    """At p >= 2, a gamma pivot that underflowed to 0 in any factor puts the
    draw outside the support and raises, as a p = 1 value at 0 does. An alpha
    at p - 1 + 1e-3 gives the factor's last diagonal entry Gamma(0.001),
    which is exactly 0 in about half the draws."""

    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize(
        "kind,small", [("type1", 0), ("type1", 2), ("type2", 0)],
        ids=["type1-first", "type1-closing", "type2-first"],
    )
    def test_underflowed_factor_raises(self, kind, small, p):
        alphas = [p + 1.0] * 3
        alphas[small] = p - 1 + 1e-3
        spec = MeasureSpec(kind=kind, p=p, k=2, alphas=tuple(alphas))
        n = 2_000
        rng = SeedSpec(42, 18).child(0)
        diag = [np.einsum("nii->ni", dense(_triangular_factor(rng, p, a, n))).real
                for a in spec.alphas]
        zero = [(d == 0).any(axis=1) for d in diag]
        assert not any(z.any() for j, z in enumerate(zero) if j != small)
        assert 0 < zero[small].sum() < n
        first = int(np.argmax(zero[small]))
        with pytest.raises(SamplerError, match=f"underflowed to 0 at sample {first}$"):
            sample_batch(spec, SeedSpec(42, 18), n)


class TestType2Construction:
    @pytest.mark.parametrize("p", [2, 3, 4])
    def test_type2_is_forward_substitution_by_reversed_closing_factor(self, p):
        # X_j = L^{-1} T_j T_j* L^{-*} with L = J T_{k+1}* J, rebuilt densely
        # from the same stream: the T_j in order, then T_{k+1}
        spec = MeasureSpec(kind="type2", p=p, k=2, alphas=(p + 0.5, p + 1.0, p + 2.0))
        n = 2_000
        rng = SeedSpec(42, 16).child(0)
        t = [dense(_triangular_factor(rng, p, a, n)) for a in spec.alphas]
        l = np.flip(herm(t[-1]), axis=(1, 2))
        assert np.array_equal(l, np.tril(l))
        w = t[-1] @ herm(t[-1])
        assert max_rel(herm(l) @ l, np.flip(w, axis=(1, 2))) <= 1e-12
        c = np.linalg.inv(l)
        x = sample_batch(spec, SeedSpec(42, 16), n).stack()
        for j in range(spec.k):
            assert max_rel(x[j], c @ t[j] @ herm(t[j]) @ herm(c)) <= 1e-12


class TestSupportByConstruction:
    @pytest.mark.parametrize("p", [2, 3, 4])
    def test_type1_complement_psd_near_the_alpha_bound(self, p):
        # I - sum X_j = L^{-1} W_{k+1} L^{-*} with alpha_{k+1} just above p - 1
        spec = MeasureSpec(kind="type1", p=p, k=2, alphas=(p + 0.5, p, p - 1 + 0.03))
        x = sample_batch(spec, SeedSpec(42, 15), 50_000).stack()
        assert np.linalg.eigvalsh(np.eye(p) - x.sum(axis=0)).min() >= -1e-12


def _pivot_log_sum(t):
    """sum_i log T_ii of a triangular grid, summed in row order."""
    return sum(np.log(row[-1]) for row in t)


class TestGridLogs:
    """At p >= 2 the determinants come from the factors' pivots, taken
    only when asked for: log det X_j = 2 (sum log T_j,ii - sum log L_ii),
    the type-1 complement the same with T_{k+1}, and the type-2 complement
    -2 (sum log M_ii - sum log L_ii) for the Cholesky factor M of
    L L* + sum W_j. Each equals slogdet of the packed matrices."""

    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("kind", ["type1", "type2"])
    def test_logs_are_the_pivot_formula_and_slogdet(self, kind, p):
        spec = MeasureSpec(kind=kind, p=p, k=2, alphas=(p + 0.5, p + 1.0, p + 2.0))
        draws = sample_batch(spec, SeedSpec(42, 24), 2_000)
        log_l = _pivot_log_sum(draws.l)
        want = np.stack([2 * (_pivot_log_sum(t) - log_l) for t in draws.t])
        if kind == "type1":
            complement = 2 * (_pivot_log_sum(draws.complement) - log_l)
        else:
            grids = [_gram(draws.l)] + [_gram(t) for t in draws.t]
            m = _cholesky([[sum(e) for e in zip(*rows)] for rows in zip(*grids)], _pivot)
            complement = -2 * (_pivot_log_sum(m) - log_l)
        assert bits(draws.logdet) == bits(want)
        assert bits(draws.log_complement) == bits(complement)

        # to 1e-12, plus the error of slogdet's own LU on an ill-conditioned
        # matrix, p eps cond
        x = draws.stack()
        # the type-2 complement determinant is det(I + sum X_j)^-1
        closing, sense = ((np.eye(p) - x.sum(axis=0), 1) if kind == "type1"
                          else (np.eye(p) + x.sum(axis=0), -1))
        for got, m, power in ((draws.logdet, x, 1), (draws.log_complement, closing, sense)):
            sign, slog = np.linalg.slogdet(m)
            tol = 1e-12 + p * np.finfo(float).eps * np.linalg.cond(m)
            assert np.abs(sign - 1).max() <= 1e-12
            assert (np.abs(got - power * slog) <= tol).all()

    @pytest.mark.parametrize("kind", ["type1", "type2"])
    def test_no_log_is_taken_until_asked(self, kind, monkeypatch):
        calls = []

        def counted(rows):
            calls.append(len(rows))
            return _log_diagonal(rows)

        monkeypatch.setattr(measures, "_log_diagonal", counted)
        spec = MeasureSpec(kind=kind, p=3, k=2, alphas=(3.5, 4.0, 4.5))
        draws = sample_batch(spec, SeedSpec(42, 25), 1_000)
        assert calls == []
        draws.logdet
        assert calls


def _banded(diagonal, coupling):
    """Hermitian matrix with the given diagonal and coupling * (1 + i) just
    below it."""
    a = np.diag(np.asarray(diagonal, dtype=np.complex128))
    idx = np.arange(len(diagonal) - 1)
    a[idx + 1, idx] = coupling * (1 + 1j)
    a[idx, idx + 1] = coupling * (1 - 1j)
    return HermitianMatrix(a)


class TestFactorDependentLaws:
    """The functionals whose value on a draw depends on the factor C in
    X_j = C W_j C*, at a non-diagonal, non-scalar A. The type-2 law holds
    for every C with C C* = W_{k+1}^{-1}, and the sampler's C = L^{-1} with
    L = J T_{k+1}* J meets it for J W_{k+1} J, which has W_{k+1}'s law.
    Dropping the order reversal J, C = T_{k+1}^{-1} gives C C* = (T* T)^{-1}
    and fails phi6 by tens of standard errors, because its diagonal-dominant
    A sees the anisotropy of T* T."""

    # phi6 at p: (alpha_3, half-width of A's diagonal around (alpha_1 + alpha_3) I,
    # coupling). A near (alpha_1 + alpha_3) I nearly cancels the determinant
    # weight, which keeps the integrand's spread, and with it the SE, small.
    PHI6 = {3: (20.0, 0.2, 0.1), 4: (30.0, 0.15, 0.05)}

    @classmethod
    def cases(cls, p):
        a3, half, coupling = cls.PHI6[p]
        c = p + 0.5 + a3
        return [
            (MeasureSpec(kind="type2", p=p, k=2, alphas=(p + 0.5, p + 1.0, a3)),
             FunctionalSpec(kind="phi6", A=_banded(c * np.linspace(1 - half, 1 + half, p), coupling * c))),
            (MeasureSpec(kind="type2", p=p, k=2, alphas=(p + 0.5, p + 1.0, p + 2.0)),
             FunctionalSpec(kind="complement_power", delta=0.5)),
            (MeasureSpec(kind="type1", p=p, k=2, alphas=(p + 0.5, p + 1.0, p + 1.5)),
             FunctionalSpec(kind="exp_trace", A=_banded(np.linspace(-0.5, 1.0, p), 0.2))),
        ]

    @pytest.mark.parametrize("p", [3, 4])
    def test_type2_phi6_complement_and_type1_exp_trace(self, p):
        suite = [
            VerifyCase(f"{f.kind}_{m.kind}_p{p}", m, f, McConfig(400_000, SeedSpec(42, 30 + 3 * p + i)))
            for i, (m, f) in enumerate(self.cases(p))
        ]
        reports = verify_suite(suite, workers=2)
        assert [r.verdict for r in reports] == ["pass"] * 3, [
            (r.case_id, r.estimate, r.closed_form, r.std_error, r.diagnostics) for r in reports
        ]


class TestMeasureSpec:
    def test_alpha_condition_named(self):
        spec = MeasureSpec(kind="type1", p=2, k=1, alphas=(1.0, 2.0))
        with pytest.raises(DomainError) as err:
            spec.validate()
        assert any("alpha_1" in c for c in err.value.violated)

    @pytest.mark.parametrize(
        "kind,p,ns", [("type1", 2, None), ("type2", 1, None), ("rect_type1_p1", 1, (2,))]
    )
    def test_infinite_alpha_named(self, kind, p, ns):
        spec = MeasureSpec(kind=kind, p=p, k=1, alphas=(math.inf, 2.0), ns=ns)
        with pytest.raises(DomainError) as err:
            spec.validate()
        assert err.value.violated == ("alpha_1 finite (got inf)",)

    @pytest.mark.parametrize(
        "kind,p,ns", [("type1", 2, None), ("type2", 1, None), ("rect_type1_p1", 1, (2,))]
    )
    def test_overflowing_alpha_sum_named(self, kind, p, ns):
        spec = MeasureSpec(kind=kind, p=p, k=1, alphas=(1e308, 1e308), ns=ns)
        with pytest.raises(DomainError) as err:
            spec.validate()
        assert err.value.violated == ("sum(alphas) finite (got inf)",)

    def test_rect_needs_ns(self):
        with pytest.raises(ValueError):
            MeasureSpec(kind="rect_type1_p1", p=1, k=1, alphas=(0.5, 2.0)).validate()

    def test_rect_p_must_be_one(self):
        spec = MeasureSpec(kind="rect_type1_p1", p=2, k=1, alphas=(0.5, 2.0), ns=(2,))
        with pytest.raises(DomainError):
            spec.validate()

    def test_scalar_law(self):
        rect = MeasureSpec(kind="rect_type1_p1", p=1, k=2, alphas=(0.5, -0.5, 2.0), ns=(2, 3))
        assert rect.scalar_alphas == (2.5, 2.5, 2.0) and rect.type1
        t2 = MeasureSpec(kind="type2", p=2, k=1, alphas=(2.0, 3.0))
        assert t2.scalar_alphas == (2.0, 3.0) and not t2.type1
        assert MeasureSpec(kind="type1", p=1, k=1, alphas=(1.0, 1.0)).type1
        assert not MeasureSpec(kind="rect_type2_p1", p=1, k=1, alphas=(1.0, 1.0), ns=(1,)).type1

    def test_alpha_count(self):
        with pytest.raises(ValueError):
            MeasureSpec(kind="type1", p=1, k=2, alphas=(1.0, 1.0)).validate()

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            MeasureSpec(kind="type3", p=1, k=1, alphas=(1.0, 1.0)).validate()

    def test_json_round_trip(self):
        spec = MeasureSpec(
            kind="rect_type1_p1",
            p=1,
            k=2,
            alphas=(0.5, 1.0, 2.0),
            ns=(2, 3),
            Bs=(HermitianMatrix.identity(2), HermitianMatrix.identity(3)),
        )
        back = MeasureSpec.from_json(spec.to_json())
        assert back.kind == spec.kind and back.alphas == spec.alphas and back.ns == spec.ns
        assert all(np.array_equal(a.array, b.array) for a, b in zip(back.Bs, spec.Bs))

    @pytest.mark.parametrize(
        "field,value",
        [("p", 2.9), ("p", True), ("k", "1"), ("alphas", "23"), ("alphas", [2.0, True]),
         ("ns", "12"), ("ns", [1.5, 2]), ("Bs", {"p": 1})],
        ids=["p-float", "p-bool", "k-string", "alphas-string", "alphas-bool-entry", "ns-string",
             "ns-float-entry", "Bs-object"],
    )
    def test_from_json_refuses_mistyped_fields(self, field, value):
        # a string is not an array, and a float or bool is not an integer
        doc = {"kind": "rect_type1_p1", "p": 1, "k": 2, "alphas": [0.5, 1.0, 2.0], "ns": [1, 2]}
        with pytest.raises(TypeError, match=rf"^{field}(\[\d\])? must be a JSON"):
            MeasureSpec.from_json({**doc, field: value})

    def test_sample_json_round_trip(self):
        spec = MeasureSpec(kind="type1", p=2, k=1, alphas=(2.0, 2.0))
        x = HermitianMatrix(sample_batch(spec, SeedSpec(1, 1), 1).stack()[0, 0])
        assert HermitianMatrix.from_json(x.to_json()) == x


def _t1(p, *alphas):
    return MeasureSpec(kind="type1", p=p, k=len(alphas) - 1, alphas=alphas)


def _t2(p, *alphas):
    return MeasureSpec(kind="type2", p=p, k=len(alphas) - 1, alphas=alphas)


RECT1 = MeasureSpec(kind="rect_type1_p1", p=1, k=2, alphas=(0.5, 1.0, 2.0), ns=(2, 3))
RECT2 = MeasureSpec(kind="rect_type2_p1", p=1, k=2, alphas=(0.5, 1.0, 2.0), ns=(2, 3))


class TestSumsMeasure:
    """The Dirichlet measure of the component sums an integrand reads: a
    group's alphas summed; at type-1 the other components fold into the
    closing alpha, at type-2 they drop; a rect kind is the p = 1 kind at
    its scalar_alphas (here (2.5, 4.0, 2.0))."""

    @pytest.mark.parametrize(
        "measure, reads, want",
        [
            pytest.param(_t1(2, 2.0, 2.5, 3.0, 3.5), "sum", _t1(2, 7.5, 3.5), id="type1-sum"),
            pytest.param(_t1(2, 2.0, 2.5, 3.0, 3.5), "first", _t1(2, 2.0, 9.0), id="type1-first"),
            pytest.param(_t2(2, 2.0, 2.5, 3.0, 3.5), "sum", _t2(2, 7.5, 3.5), id="type2-sum"),
            pytest.param(_t2(2, 2.0, 2.5, 3.0, 3.5), "first", _t2(2, 2.0, 3.5), id="type2-first"),
            pytest.param(_t1(1, 0.4, 0.6, 0.5), "first", _t1(1, 0.4, 1.1), id="type1-p1-first"),
            pytest.param(_t2(3, 3.5, 4.0, 20.0), "first", _t2(3, 3.5, 20.0), id="type2-p3-first"),
            pytest.param(RECT1, "sum", _t1(1, 6.5, 2.0), id="rect_type1-sum"),
            pytest.param(RECT1, "first", _t1(1, 2.5, 6.0), id="rect_type1-first"),
            pytest.param(RECT2, "sum", _t2(1, 6.5, 2.0), id="rect_type2-sum"),
            pytest.param(RECT2, "first", _t2(1, 2.5, 2.0), id="rect_type2-first"),
        ],
    )
    def test_table(self, measure, reads, want):
        assert measure.sums_measure(reads) == want

    @pytest.mark.parametrize("measure", [_t1(2, 2.0, 2.5, 3.0), _t2(1, 2.0, 3.0), RECT1, RECT2],
                             ids=["type1", "type2", "rect_type1_p1", "rect_type2_p1"])
    def test_each_and_det_power_draw_the_measure_itself(self, measure):
        assert FUNCTIONALS["det_power"].reads == "each"
        assert measure.sums_measure("each") is measure

    @pytest.mark.parametrize("reads", ["sum", "first"])
    def test_k1_measure_is_its_own_sums_measure(self, reads):
        for measure in (_t1(2, 2.0, 1.5), _t2(1, 0.3, 0.7)):
            assert measure.sums_measure(reads) == measure

    def test_reads_of_each_functional(self):
        assert {name: f.reads for name, f in FUNCTIONALS.items()} == {
            "det_power": "each",
            "complement_power": "sum",
            "exp_trace": "first",
            "phi6": "first",
            "hermitian_form_moment": "sum",
        }
        assert set(READS) == {"each", "sum", "first"}

    def test_unknown_reads_and_invalid_measure_refused(self):
        with pytest.raises(ValueError, match="unknown reads"):
            _t1(1, 1.0, 1.0).sums_measure("last")
        with pytest.raises(DomainError):
            _t1(2, 1.0, 2.0, 2.0).sums_measure("sum")


def _values(measure, functional, seed, n=200_000, chunk=50_000):
    integrand = make_integrand(measure, functional)
    return np.concatenate([
        integrand(sample_batch(measure, seed, chunk, chunk=c)) for c in range(n // chunk)
    ])


def _two_sample_z(a, b):
    """z of the difference in mean and in variance between two samples."""
    def var_se(x):
        c = x - x.mean()
        v = np.mean(c * c)
        return v, math.sqrt(max(np.mean(c**4) - v * v, 0.0) / len(x))

    se_mean = math.hypot(*(x.std(ddof=1) / math.sqrt(len(x)) for x in (a, b)))
    z_mean = (a.mean() - b.mean()) / se_mean
    (va, sa), (vb, sb) = var_se(a), var_se(b)
    return z_mean, (va - vb) / math.hypot(sa, sb)


def _law_cases():
    for p, k in ((1, 3), (2, 2), (3, 2)):
        alphas = tuple(p + 0.5 * j for j in range(1, k + 2))
        type1, type2 = _t1(p, *alphas), _t2(p, *alphas)
        yield f"complement_type1_p{p}", type1, FunctionalSpec(kind="complement_power", delta=1.5)
        yield f"complement_type2_p{p}", type2, FunctionalSpec(kind="complement_power", delta=0.5)
        yield f"exp_trace_p{p}", _t1(p, *alphas[:3]), FunctionalSpec(kind="exp_trace")
        # A = 4 I keeps phi6 light-tailed, so a wrong sums measure shows
        phi6 = FunctionalSpec(kind="phi6", A=HermitianMatrix.diagonal([4.0] * p))
        yield f"phi6_p{p}", _t2(p, *alphas[:3]), phi6
    yield "complement_rect_type1", RECT1, FunctionalSpec(kind="complement_power", delta=1.0)
    yield "complement_rect_type2", RECT2, FunctionalSpec(kind="complement_power", delta=0.5)
    yield "form_moment_rect_type1", RECT1, FunctionalSpec(kind="hermitian_form_moment", h=1.5)
    rect2 = MeasureSpec(kind="rect_type2_p1", p=1, k=2, alphas=(0.5, 1.0, 7.0), ns=(2, 3))
    yield "form_moment_rect_type2", rect2, FunctionalSpec(kind="hermitian_form_moment", h=0.5)


LAW_CASES = list(_law_cases())


class TestSumsMeasureLaw:
    """The integrand has one law on the measure and on its sums measure:
    200k values from each, at fixed seeds, agree in mean and in variance
    within 4 two-sample standard errors."""

    @pytest.mark.parametrize("stream, measure, functional",
                             [(i, *c[1:]) for i, c in enumerate(LAW_CASES)],
                             ids=[c[0] for c in LAW_CASES])
    def test_same_mean_and_variance(self, stream, measure, functional):
        drawn = measure.sums_measure(FUNCTIONALS[functional.kind].reads)
        assert drawn.k == 1 < measure.k
        full = _values(measure, functional, SeedSpec(11, stream))
        summed = _values(drawn, functional, SeedSpec(12, stream))
        z_mean, z_var = _two_sample_z(full, summed)
        assert abs(z_mean) <= 4 and abs(z_var) <= 4, (z_mean, z_var)


class TestLayers:
    """The p scalar layers of the determinants an integrand reads. At
    type-1, reads "each" takes i off alpha_1..alpha_k and folds (k - 1) i
    into the closing alpha; at type-2 every alpha loses i; reads "sum"
    takes i off the closing alpha of the k = 1 sums measure."""

    @pytest.mark.parametrize(
        "measure, reads, want",
        [
            pytest.param(_t1(3, 3.5, 4.0, 4.5), "each",
                         [_t1(1, 3.5, 4.0, 4.5), _t1(1, 2.5, 3.0, 5.5), _t1(1, 1.5, 2.0, 6.5)],
                         id="type1-each"),
            pytest.param(_t2(3, 3.5, 4.0, 4.5), "each",
                         [_t2(1, 3.5, 4.0, 4.5), _t2(1, 2.5, 3.0, 3.5), _t2(1, 1.5, 2.0, 2.5)],
                         id="type2-each"),
            pytest.param(_t1(2, 2.0, 2.5, 3.0), "sum", [_t1(1, 4.5, 3.0), _t1(1, 4.5, 2.0)],
                         id="type1-sum"),
            pytest.param(_t2(2, 2.0, 2.5, 3.0), "sum", [_t2(1, 4.5, 3.0), _t2(1, 4.5, 2.0)],
                         id="type2-sum"),
            pytest.param(_t1(2, 2.0, 3.0), "each", [_t1(1, 2.0, 3.0), _t1(1, 1.0, 3.0)],
                         id="type1-k1-each"),
        ],
    )
    def test_table(self, measure, reads, want):
        assert list(measure.layers(reads)) == want

    @pytest.mark.parametrize("reads", ["each", "sum", "first"])
    def test_p1_layer_is_the_sums_measure(self, reads):
        for measure in (_t1(1, 0.4, 0.6, 0.5), _t2(1, 0.4, 0.6, 0.5), RECT1, RECT2):
            assert measure.layers(reads) == (measure.sums_measure(reads),)

    def test_first_refused_at_p2(self):
        with pytest.raises(ValueError, match="layers take reads 'each' or 'sum'"):
            _t1(2, 2.0, 2.5, 3.0).layers("first")

    def test_determinant_functionals(self):
        assert {name for name, f in FUNCTIONALS.items() if f.determinants} == {
            "det_power", "complement_power"
        }

    @pytest.mark.parametrize("reads", ["each", "sum"])
    def test_p1_draws_are_sample_batch_draws(self, reads):
        measure = _t1(1, 0.4, 0.6, 0.5).sums_measure(reads)
        layered = sample_layers(measure, reads, SeedSpec(42, 19), 1_000, chunk=3)
        direct = sample_batch(measure, SeedSpec(42, 19), 1_000, chunk=3)
        if reads == "each":
            assert np.array_equal(layered.logdet, direct.logdet)
        else:
            assert np.array_equal(layered.log_complement, direct.log_complement)

    @pytest.mark.parametrize("kind", ["type1", "type2"])
    def test_layers_read_one_stream_in_order(self, kind):
        # layer 0's gammas, then layer 1's, from the one substream of the chunk
        measure = MeasureSpec(kind=kind, p=2, k=2, alphas=(2.5, 3.0, 3.5))
        n = 1_000
        rng = SeedSpec(42, 20).child(4)
        logdet = 0
        for layer in measure.layers("each"):
            w = np.stack([rng.gammas(a, n) for a in layer.alphas])
            logdet = logdet + np.log(w[:2] / (w.sum(axis=0) if layer.type1 else w[2]))
        got = sample_layers(measure, "each", SeedSpec(42, 20), n, chunk=4).logdet
        assert np.allclose(got, logdet, rtol=1e-14, atol=0)

    def test_only_the_read_determinants_answer(self):
        each = sample_layers(_t1(2, 2.5, 3.0, 3.5), "each", SeedSpec(1), 10)
        assert each.logdet.shape == (2, 10) and each.n == 10
        for ask in (lambda: each.log_complement, lambda: each.logdet_eye_plus((0,))):
            with pytest.raises(ValueError, match="reads 'each' do not give"):
                ask()
        for ask in (each.stack, lambda: each.trace(np.eye(2), 0)):
            with pytest.raises(ValueError, match="determinants only"):
                ask()
        for measure in (_t1(2, 4.5, 3.5), _t2(2, 4.5, 3.5)):
            summed = sample_layers(measure, "sum", SeedSpec(1), 10)
            comp = summed.log_complement
            assert comp.shape == (10,) and np.isfinite(comp).all() and summed.n == 10
            for ask in (lambda: summed.logdet, lambda: summed.logdet_eye_plus((0,))):
                with pytest.raises(ValueError, match="reads 'sum' do not give"):
                    ask()
            for ask in (summed.stack, lambda: summed.trace(np.eye(2), 0)):
                with pytest.raises(ValueError, match="determinants only"):
                    ask()

    @pytest.mark.parametrize("kind", ["type1", "type2"])
    def test_sum_layers_give_the_summed_log_complement(self, kind):
        # layer i's complement, 1 - x_i at type-1 and 1 / (1 + x_i) at
        # type-2, from the one substream in layer order
        measure = MeasureSpec(kind=kind, p=3, k=2, alphas=(3.5, 4.0, 4.5))
        n = 1_000
        rng = SeedSpec(42, 21).child(2)
        want = 0
        for layer in measure.layers("sum"):
            w = np.stack([rng.gammas(a, n) for a in layer.alphas])
            if kind == "type1":
                want = want + np.log(w[1] / w.sum(axis=0))
            else:
                want = want - np.log1p(w[0] / w[1])
        got = sample_layers(measure, "sum", SeedSpec(42, 21), n, chunk=2).log_complement
        assert np.array_equal(got, want)

    def test_draw_outside_support_names_the_layer(self):
        # layer 1 of alpha_1 = 1 + 1e-7 at p = 2 draws Gamma(1e-7), which
        # underflows to 0 in nearly every draw: x_1 = 0, outside the support
        measure = _t1(2, 1 + 1e-7, 2.0)
        named = (r"^p = 2 layer 1 at shapes \(1\.0000000005838672e-07, 2\.0\): "
                 r"value not positive and finite at sample \d+$")
        with pytest.raises(SamplerError, match=named):
            sample_layers(measure, "each", SeedSpec(42), 1_000)
        # the grid path refuses the same measure
        with pytest.raises(SamplerError, match="underflowed to 0"):
            sample_batch(measure, SeedSpec(42), 1_000)
        functional = FunctionalSpec(kind="det_power", gammas=(1.0,))
        case = VerifyCase("near", measure, functional, McConfig(20_000, SeedSpec(42)))
        (r,) = verify_suite([case])
        assert r.verdict == "fail" and r.n == 0 and r.estimate is None
        assert r.diagnostics["error"] == "SamplerError"
        assert r.diagnostics["message"].startswith("p = 2 layer 1 at shapes")

    def test_rectangular_draw_outside_support_names_the_drawn_shapes(self):
        # the p = 1 layer of a rectangular measure draws its gammas at
        # alpha_j + n_j: (1.5, 0.01) here; the closing Gamma(0.01) underflows
        measure = MeasureSpec(kind="rect_type2_p1", p=1, k=1, alphas=(0.5, 0.01), ns=(1,))
        named = (r"^p = 1 layer 0 at shapes \(1\.5, 0\.01\): "
                 r"value not positive and finite at sample \d+$")
        with pytest.raises(SamplerError, match=named):
            sample_layers(measure, "each", SeedSpec(42), 20_000)


def _layer_law_cases():
    for p in (2, 3, 4):
        for k in (1, 2):
            alphas = tuple(p + 0.5 * j for j in range(1, k + 2))
            # a closing alpha 3 above the rest keeps the type-2 powers' fourth
            # moments finite
            wide = alphas[:-1] + (alphas[-1] + 3.0,)
            yield (f"det_type1_p{p}_k{k}", _t1(p, *alphas),
                   FunctionalSpec(kind="det_power", gammas=(1.0, 0.5)[:k]))
            yield (f"det_type2_p{p}_k{k}", _t2(p, *wide),
                   FunctionalSpec(kind="det_power", gammas=(0.25, 0.5)[:k]))
            yield (f"complement_type1_p{p}_k{k}", _t1(p, *alphas),
                   FunctionalSpec(kind="complement_power", delta=1.5))
            yield (f"complement_type2_p{p}_k{k}", _t2(p, *alphas),
                   FunctionalSpec(kind="complement_power", delta=0.5))


LAYER_LAW_CASES = list(_layer_law_cases())


class TestLayersLaw:
    """The integrand has one law on the matrix draws and on the layers:
    200k values from each, at fixed seeds, agree in mean and in variance
    within 4 two-sample standard errors."""

    @pytest.mark.parametrize("stream, measure, functional",
                             [(i, *c[1:]) for i, c in enumerate(LAYER_LAW_CASES)],
                             ids=[c[0] for c in LAYER_LAW_CASES])
    def test_same_mean_and_variance(self, stream, measure, functional):
        reads = FUNCTIONALS[functional.kind].reads
        drawn = measure.sums_measure(reads)
        integrand = make_integrand(drawn, functional)
        n, chunk = 200_000, 50_000
        layered = np.concatenate([
            integrand(sample_layers(drawn, reads, SeedSpec(14, stream), chunk, chunk=c))
            for c in range(n // chunk)
        ])
        grid = _values(drawn, functional, SeedSpec(13, stream), n, chunk)
        z_mean, z_var = _two_sample_z(grid, layered)
        assert abs(z_mean) <= 4 and abs(z_var) <= 4, (z_mean, z_var)

import gc
import math
import weakref

import numpy as np
import pytest
from scipy.special import gammaln

from mvda.averages import FunctionalSpec
from mvda.errors import DomainError, SamplerError
from mvda.linalg import (
    EIG_FLOOR_RTOL,
    HermitianMatrix,
    _cholesky,
    _forward,
    _gram,
    _pack,
    _refuse,
    is_pd,
)
from mvda.measures import (
    MeasureSpec,
    _matrix_gamma_batch,
    _pivot,
    _triangular_factor,
    floor_event_count,
    sample_batch,
    sample_matrix_gamma,
    sample_one,
)
from mvda.montecarlo import McConfig, VerifyCase, make_integrand, verify_suite
from mvda.rng import SeedSpec

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
        s = sample_one(spec, SeedSpec(7, 3))
        assert isinstance(s, tuple) and len(s) == 2
        assert all(isinstance(m, HermitianMatrix) and is_pd(m) for m in s)
        assert is_pd(HermitianMatrix(np.eye(2) - s[0].array - s[1].array))
        assert sample_one(spec, SeedSpec(7, 3)) == s


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
        s = sample_one(spec, SeedSpec(3, 1))
        assert all(is_pd(m) for m in s)


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
        u = [m.array[0, 0].real for m in sample_one(spec, SeedSpec(5, 2))]
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
        # single draws still come out as complex Hermitian matrices
        m = sample_one(spec, SeedSpec(42, 13))[0]
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


def _random_lower(rng, n, p):
    """n lower-triangular p x p matrices with positive real diagonals."""
    t = np.tril(rng.normal(size=(n, p, p)) + 1j * rng.normal(size=(n, p, p)), -1)
    t[:, range(p), range(p)] = rng.uniform(0.5, 2.0, size=(n, p))
    return t


def _grid(a):
    """The grid of an (n, p, p) stack: its lower triangle, with real diagonal
    entries."""
    p = a.shape[-1]
    return [[a[:, i, j].real if i == j else a[:, i, j] for j in range(i + 1)] for i in range(p)]


def _dense(rows):
    """The (n, p, p) stack of a lower-triangular grid, zero above it."""
    p = len(rows)
    out = np.zeros(np.shape(rows[0][0]) + (p, p), dtype=np.complex128)
    for i, row in enumerate(rows):
        for j, z in enumerate(row):
            out[..., i, j] = z
    return out


def _max_rel(x, ref):
    return np.max(np.linalg.norm(x - ref, axis=(1, 2)) / np.linalg.norm(ref, axis=(1, 2)))


def _herm(a):
    return a.conj().transpose(0, 2, 1)


class TestEntrywiseKernels:
    """Each grid kernel of linalg against numpy's LAPACK or matmul to 1e-12."""

    N = 2_000

    @pytest.mark.parametrize("p", [2, 3, 4, 5])
    def test_gram_matches_matmul(self, p):
        t = _random_lower(np.random.default_rng(p), self.N, p)
        assert _max_rel(_pack([_gram(_grid(t))])[0], t @ _herm(t)) <= 1e-12

    @pytest.mark.parametrize("p", [2, 3, 4, 5])
    def test_cholesky_matches_lapack(self, p):
        t = _random_lower(np.random.default_rng(10 + p), self.N, p)
        s = t @ _herm(t)
        assert _max_rel(_dense(_cholesky(_grid(s), _refuse)), np.linalg.cholesky(s)) <= 1e-12

    @pytest.mark.parametrize("p", [2, 3, 4, 5])
    def test_forward_substitution_matches_solve(self, p):
        rng = np.random.default_rng(20 + p)
        l, t = _random_lower(rng, self.N, p), _random_lower(rng, self.N, p)
        u = _dense(_forward(_grid(l), _grid(t)))
        assert _max_rel(u, np.linalg.solve(l, t)) <= 1e-12

    @pytest.mark.parametrize("p", [2, 3, 4, 5])
    def test_pack_rebuilds_hermitian_stacks(self, p):
        rng = np.random.default_rng(50 + p)
        s = [t @ _herm(t) for t in (_random_lower(rng, self.N, p) for _ in range(3))]
        packed = _pack([_grid(x) for x in s])
        assert packed.shape == (3, self.N, p, p)
        assert np.array_equal(packed, packed.conj().swapaxes(-1, -2))
        assert np.array_equal(np.tril(packed, -1), np.tril(np.stack(s), -1))
        assert _max_rel(packed.reshape(-1, p, p), np.concatenate(s)) <= 1e-12

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
        assert _max_rel(w, t @ _herm(t)) <= 1e-14


class TestPivotFloor:
    """A squared pivot of the type-1 S below EIG_FLOOR_RTOL times its largest
    diagonal entry is raised to that value and counted once."""

    @pytest.mark.parametrize("p", [2, 3])
    def test_cholesky_pivot_raised_and_counted(self, p):
        # integer factor with a zero second pivot: S = L0 L0* is exact in
        # floating point, so that pivot comes out exactly 0 and the rest exact
        l0 = np.array([[2, 0, 0], [1 + 1j, 0, 0], [1, 3 - 1j, 1]])[:p, :p]
        t = _random_lower(np.random.default_rng(60 + p), 1_000, p)
        t[:5] = l0
        s = t @ _herm(t)
        before = floor_event_count()
        l = _cholesky(_grid(s), _pivot)
        assert floor_event_count() - before == 5
        scale = np.max(np.einsum("nii->ni", s).real, axis=1)
        assert np.allclose(l[1][1][:5] ** 2, EIG_FLOOR_RTOL * scale[:5], rtol=1e-12, atol=0)
        assert _max_rel(_dense(l)[5:], np.linalg.cholesky(s[5:])) <= 1e-12

    @pytest.mark.parametrize("p", [2, 3])
    def test_type2_zero_pivot_raises_without_floor_event(self, p):
        # L at type-2 is T_{k+1} reversed, never factored, so nothing floors
        # its pivots. Gamma(0.001) at T_{k+1}'s last diagonal entry underflows
        # to exactly 0 in about half the draws: outside the support.
        spec = MeasureSpec(kind="type2", p=p, k=1, alphas=(p + 1.0, p - 1 + 1e-3))
        n = 2_000
        rng = SeedSpec(42, 14).child(0)
        _triangular_factor(rng, p, spec.alphas[0], n)
        last = _dense(_triangular_factor(rng, p, spec.alphas[1], n))
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
        diag = [np.einsum("nii->ni", _dense(_triangular_factor(rng, p, a, n))).real
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
        t = [_dense(_triangular_factor(rng, p, a, n)) for a in spec.alphas]
        l = np.flip(_herm(t[-1]), axis=(1, 2))
        assert np.array_equal(l, np.tril(l))
        w = t[-1] @ _herm(t[-1])
        assert _max_rel(_herm(l) @ l, np.flip(w, axis=(1, 2))) <= 1e-12
        c = np.linalg.inv(l)
        x = sample_batch(spec, SeedSpec(42, 16), n).stack()
        for j in range(spec.k):
            assert _max_rel(x[j], c @ t[j] @ _herm(t[j]) @ _herm(c)) <= 1e-12


class TestSupportByConstruction:
    @pytest.mark.parametrize("p", [2, 3, 4])
    def test_type1_complement_psd_near_the_alpha_bound(self, p):
        # I - sum X_j = L^{-1} W_{k+1} L^{-*} with alpha_{k+1} just above p - 1
        spec = MeasureSpec(kind="type1", p=p, k=2, alphas=(p + 0.5, p, p - 1 + 0.03))
        x = sample_batch(spec, SeedSpec(42, 15), 50_000).stack()
        assert np.linalg.eigvalsh(np.eye(p) - x.sum(axis=0)).min() >= -1e-12


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

    def test_sample_json_round_trip(self):
        spec = MeasureSpec(kind="type1", p=2, k=1, alphas=(2.0, 2.0))
        (x,) = sample_one(spec, SeedSpec(1, 1))
        assert HermitianMatrix.from_json(x.to_json()) == x

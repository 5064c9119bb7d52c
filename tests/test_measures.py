import math

import numpy as np
import pytest
from scipy.special import gammaln

from mvda.errors import DomainError, SamplerError
from mvda.linalg import HermitianMatrix, is_pd
from mvda.measures import (
    EIG_FLOOR_RTOL,
    DirichletSample,
    MeasureSpec,
    _check_type1_support_2x2,
    _congruence_2x2,
    _inv_sqrt_2x2,
    _inv_sqrt_batch,
    _matrix_gamma_2x2,
    _matrix_gamma_batch,
    _pack_2x2,
    floor_event_count,
    sample_batch,
    sample_matrix_gamma,
    sample_one,
)
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
        batch = sample_batch(spec, SeedSpec(42, 1), N)
        assert_within_4se(batch[0, :, 0, 0].real, 1 / 3, "x1 mean")
        assert_within_4se(batch[1, :, 0, 0].real, 1 / 3, "x2 mean")

    def test_support_constraints(self):
        spec = MeasureSpec(kind="type1", p=2, k=2, alphas=(2.0, 2.5, 3.0))
        batch = sample_batch(spec, SeedSpec(42, 2), 20_000)
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
        batch = sample_batch(spec, SeedSpec(42, 3), N)
        dets = np.abs(np.linalg.det(batch[0]))
        assert_within_4se(dets, closed, "det mean")

    def test_trace_aggregate_never_exceeds_p(self):
        spec = MeasureSpec(kind="type1", p=2, k=2, alphas=(2.0, 2.0, 2.0))
        batch = sample_batch(spec, SeedSpec(42, 4), 50_000)
        tr = np.einsum("knii->n", batch).real
        assert np.all(tr <= 2.0)

    def test_single_sample_api(self):
        spec = MeasureSpec(kind="type1", p=2, k=2, alphas=(2.0, 2.5, 3.0))
        s = sample_one(spec, SeedSpec(7, 3))
        assert isinstance(s, DirichletSample)
        assert len(s.matrices) == 2
        assert all(is_pd(m) for m in s.matrices)
        total = s.matrices[0].array + s.matrices[1].array
        assert is_pd(HermitianMatrix(np.eye(2) - total))
        again = sample_one(spec, SeedSpec(7, 3))
        for a, b in zip(s.matrices, again.matrices):
            assert np.array_equal(a.array, b.array)


class TestType2:
    def test_scalar_mean(self):
        spec = MeasureSpec(kind="type2", p=1, k=1, alphas=(2.0, 3.0))
        batch = sample_batch(spec, SeedSpec(42, 5), N)
        assert_within_4se(batch[0, :, 0, 0].real, 1.0, "type2 mean")

    def test_every_sample_pd(self):
        spec = MeasureSpec(kind="type2", p=2, k=1, alphas=(3.0, 4.0))
        batch = sample_batch(spec, SeedSpec(42, 6), 20_000)
        assert np.linalg.eigvalsh(batch[0]).min() > 0

    def test_complement_det_mean(self):
        # E|det(I+X)|^{-1} for p=2, k=1, alpha=(3,4): gamma-ratio oracle.
        def lgp2(a):
            return math.log(math.pi) + gammaln(a) + gammaln(a - 1)

        closed = math.exp(lgp2(5.0) - lgp2(4.0) + lgp2(7.0) - lgp2(8.0))
        spec = MeasureSpec(kind="type2", p=2, k=1, alphas=(3.0, 4.0))
        batch = sample_batch(spec, SeedSpec(42, 7), N)
        vals = 1.0 / np.abs(np.linalg.det(np.eye(2) + batch[0]))
        assert_within_4se(vals, closed, "complement det mean")

    def test_single_sample_api(self):
        spec = MeasureSpec(kind="type2", p=2, k=1, alphas=(3.0, 4.0))
        s = sample_one(spec, SeedSpec(3, 1))
        assert all(is_pd(m) for m in s.matrices)


class TestRectangular:
    def test_type1_mean(self):
        spec = MeasureSpec(kind="rect_type1_p1", p=1, k=1, alphas=(0.5, 2.0), ns=(2,))
        batch = sample_batch(spec, SeedSpec(42, 8), N)
        assert_within_4se(batch[0, :, 0, 0].real, 2.5 / 4.5, "u mean")

    def test_type1_support(self):
        spec = MeasureSpec(kind="rect_type1_p1", p=1, k=2, alphas=(0.5, 1.0, 2.0), ns=(2, 3))
        u = sample_batch(spec, SeedSpec(42, 9), 50_000)[:, :, 0, 0].real
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
        u = sample_batch(spec, SeedSpec(42, 10), N)[0, :, 0, 0].real
        assert_within_4se(u, closed, "h=1 moment")

    def test_type2_support(self):
        spec = MeasureSpec(kind="rect_type2_p1", p=1, k=2, alphas=(0.5, 1.0, 4.0), ns=(2, 3))
        u = sample_batch(spec, SeedSpec(42, 11), 50_000)[:, :, 0, 0].real
        assert np.all(u > 0)

    def test_single_sample_api(self):
        spec = MeasureSpec(kind="rect_type1_p1", p=1, k=2, alphas=(0.5, 1.0, 2.0), ns=(2, 3))
        s = sample_one(spec, SeedSpec(5, 2))
        u = s.scalars
        assert len(u) == 2 and all(x > 0 for x in u) and sum(u) < 1

    def test_type1_is_gamma_ratio_at_shifted_alphas(self):
        # k gammas at alpha_j + n_j, then the closing gamma, from one stream
        spec = MeasureSpec(kind="rect_type1_p1", p=1, k=2, alphas=(0.5, 1.0, 2.0), ns=(2, 3))
        rng = SeedSpec(42, 12).child(0)
        g = np.stack([rng.gammas(2.5, 1_000), rng.gammas(4.0, 1_000)])
        g0 = rng.gammas(2.0, 1_000)
        u = sample_batch(spec, SeedSpec(42, 12), 1_000)[:, :, 0, 0].real
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
        batch = sample_batch(spec, SeedSpec(42, 13), 1_000)
        assert batch.dtype == np.float64 and batch.shape == (2, 1_000, 1, 1)
        assert np.array_equal(batch[:, :, 0, 0], x)
        # single draws still come out as complex Hermitian matrices
        m = sample_one(spec, SeedSpec(42, 13)).matrices[0]
        assert m.array.dtype == np.complex128
        assert m.array[0, 0] == sample_batch(spec, SeedSpec(42, 13), 1)[0, 0, 0, 0]


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


def _random_hermitian_2x2(rng, n, lo=0.5, hi=2.0):
    """n positive definite 2 x 2 matrices with eigenvalues in [lo, hi]."""
    z = rng.normal(size=(n, 2, 2)) + 1j * rng.normal(size=(n, 2, 2))
    q, _ = np.linalg.qr(z)
    w = rng.uniform(lo, hi, size=(n, 1, 2))
    s = (q * w) @ q.conj().transpose(0, 2, 1)
    return (s + s.conj().transpose(0, 2, 1)) / 2


def _entries(s):
    return s[:, 0, 0].real, s[:, 1, 1].real, s[:, 1, 0]


def _max_rel(x, ref):
    return np.max(np.linalg.norm(x - ref, axis=(1, 2)) / np.linalg.norm(ref, axis=(1, 2)))


class TestClosedForm2x2:
    def test_matrix_gamma_matches_triangular_product(self):
        # the triangular construction T T* reads the stream in the same order
        alpha, n = 3.5, 2_000
        ref = _matrix_gamma_batch(SeedSpec(21).child(0), 2, alpha, n)
        w = _pack_2x2(*_matrix_gamma_2x2(SeedSpec(21).child(0), alpha, n))
        assert _max_rel(w, ref) <= 1e-14

    def test_inv_sqrt_matches_eigh(self):
        s = _random_hermitian_2x2(np.random.default_rng(1), 20_000)
        r = _pack_2x2(*_inv_sqrt_2x2(*_entries(s)))
        assert _max_rel(r, _inv_sqrt_batch(s)) <= 1e-12

    def test_congruence_matches_matmul(self):
        rng = np.random.default_rng(2)
        r = _random_hermitian_2x2(rng, 20_000)
        w = _random_hermitian_2x2(rng, 20_000, 0.01, 5.0)
        x = _pack_2x2(*_congruence_2x2(_entries(r), _entries(w)))
        assert _max_rel(x, r @ w @ r) <= 1e-12

    def test_floor_events_counted_as_on_eigh_path(self):
        s = _random_hermitian_2x2(np.random.default_rng(3), 1_000)
        w, v = np.linalg.eigh(s[:5])
        w[:, 0] = w[:, 1] * EIG_FLOOR_RTOL * 1e-3  # far below the floor
        s[:5] = (v * w[:, None, :]) @ v.conj().transpose(0, 2, 1)
        before = floor_event_count()
        ref = _inv_sqrt_batch(s)
        by_eigh = floor_event_count() - before
        r = _pack_2x2(*_inv_sqrt_2x2(*_entries(s)))
        by_closed_form = floor_event_count() - before - by_eigh
        assert by_eigh == by_closed_form == 5
        assert _max_rel(r[:5], ref[:5]) <= 1e-12
        assert _max_rel(r[5:], ref[5:]) <= 1e-12

    def test_type1_support_uses_smallest_eigenvalue(self):
        # trace 1.6 < p, but I - X has the eigenvalue -0.5
        x = np.diag([1.5, 0.1]).astype(np.complex128)[None, None]
        a, d, c = x[..., 0, 0].real, x[..., 1, 1].real, x[..., 1, 0]
        with pytest.raises(SamplerError):
            _check_type1_support_2x2(a, d, c)
        _check_type1_support_2x2(a / 2, d, c)


class TestMeasureSpec:
    def test_alpha_condition_named(self):
        spec = MeasureSpec(kind="type1", p=2, k=1, alphas=(1.0, 2.0))
        with pytest.raises(DomainError) as err:
            spec.validate()
        assert any("alpha_1" in c for c in err.value.violated)

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
        s = sample_one(spec, SeedSpec(1, 1))
        doc = s.to_json()
        back = [HermitianMatrix.from_json(m) for m in doc["matrices"]]
        assert np.allclose(back[0].array, s.matrices[0].array)

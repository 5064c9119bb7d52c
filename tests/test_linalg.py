import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mvda.errors import NotPositiveDefinite
from mvda.linalg import (
    PIVOT_RTOL,
    HermitianMatrix,
    _cholesky,
    _forward,
    _gram,
    _pack,
    _refuse,
    cholesky,
    eigvals_hermitian,
    inv_sqrt,
    is_pd,
    logdet_abs,
)
from grids import dense, grid, herm, max_rel, random_lower


def random_hermitian(p, rng, scale=1.0):
    g = rng.normal(size=(p, p)) + 1j * rng.normal(size=(p, p))
    return HermitianMatrix(scale * (g + g.conj().T) / 2)


def random_pd(p, rng, jitter=1.0):
    g = rng.normal(size=(p, p)) + 1j * rng.normal(size=(p, p))
    return HermitianMatrix(g @ g.conj().T + jitter * np.eye(p))


def cofactor_det(a):
    """Independent determinant oracle by first-row cofactor expansion."""
    n = a.shape[0]
    if n == 1:
        return a[0, 0]
    total = 0.0 + 0.0j
    for j in range(n):
        minor = np.delete(np.delete(a, 0, axis=0), j, axis=1)
        total += (-1) ** j * a[0, j] * cofactor_det(minor)
    return total


class TestHermitianMatrix:
    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            HermitianMatrix(np.ones((2, 3)))

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            HermitianMatrix([[1.0, 2.0], [0.0, 1.0]])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            HermitianMatrix([[np.inf]])

    def test_symmetrizes_tiny_asymmetry(self):
        a = np.array([[1.0, 0.5 + 1e-14j], [0.5, 2.0]])
        h = HermitianMatrix(a)
        assert np.array_equal(h.array, h.array.conj().T)
        assert np.all(np.diag(h.array).imag == 0)

    def test_array_is_read_only(self):
        h = HermitianMatrix.identity(2)
        with pytest.raises(ValueError):
            h.array[0, 0] = 5.0

    def test_json_round_trip(self):
        rng = np.random.default_rng(3)
        h = random_pd(3, rng)
        doc = h.to_json()
        assert doc["p"] == 3
        h2 = HermitianMatrix.from_json(doc)
        assert np.allclose(h.array, h2.array)

    @pytest.mark.parametrize("p", [2.0, "2", True])
    def test_from_json_refuses_a_non_integer_dimension(self, p):
        with pytest.raises(TypeError, match="^p must be a JSON integer"):
            HermitianMatrix.from_json({"p": p, "re": [[1, 0], [0, 1]], "im": [[0, 0], [0, 0]]})

    def test_equality_and_hash_by_value(self):
        a = HermitianMatrix([[2.0, 0.5j], [-0.5j, 1.0]])
        b = HermitianMatrix.from_json(a.to_json())
        assert a is not b and a == b and hash(a) == hash(b)
        assert {a: 1}[b] == 1
        assert HermitianMatrix([[0.0]]) == HermitianMatrix([[-0.0]])
        assert hash(HermitianMatrix([[0.0]])) == hash(HermitianMatrix([[-0.0]]))
        assert a != HermitianMatrix([[2.0, 0.5j], [-0.5j, 1.5]])
        assert HermitianMatrix.identity(1) != HermitianMatrix.identity(2)
        assert HermitianMatrix([[1.0]]) != [[1.0]]

    def test_json_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            HermitianMatrix.from_json({"p": 2, "re": [[1, 2], [0, 1]], "im": [[0, 0], [0, 0]]})


class TestCholesky:
    def test_identity(self):
        t = cholesky(HermitianMatrix.identity(3))
        assert np.array_equal(t, np.eye(3))
        assert t.dtype == np.complex128 and not t.flags.writeable

    def test_diagonal_square_roots(self):
        t = cholesky(HermitianMatrix.diagonal([4.0, 9.0]))
        assert np.allclose(np.diag(t), [2.0, 3.0])

    def test_reconstruction(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            h = random_pd(3, rng)
            t = cholesky(h)
            assert np.array_equal(t, np.tril(t))
            err = np.linalg.norm(t @ t.conj().T - h.array)
            assert err <= 1e-10 * np.linalg.norm(h.array)

    def test_not_pd_raises(self):
        with pytest.raises(NotPositiveDefinite):
            cholesky(HermitianMatrix.diagonal([1.0, -1.0]))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=10**6))
    def test_round_trip_property(self, p, seed):
        h = random_pd(p, np.random.default_rng(seed))
        t = cholesky(h)
        assert np.linalg.norm(t @ t.conj().T - h.array) <= 1e-10 * np.linalg.norm(h.array)


class TestLogdet:
    def test_identity_is_zero(self):
        assert logdet_abs(HermitianMatrix.identity(4)) == 0.0

    def test_diagonal(self):
        assert logdet_abs(HermitianMatrix.diagonal([2.0, 3.0])) == pytest.approx(
            np.log(6.0), rel=1e-12
        )

    def test_against_cofactor_expansion(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            h = random_pd(3, rng)
            want = np.log(abs(cofactor_det(h.array)))
            assert logdet_abs(h) == pytest.approx(want, rel=1e-10)

    def test_block_additivity(self):
        rng = np.random.default_rng(8)
        h1, h2 = random_pd(2, rng), random_pd(3, rng)
        block = np.zeros((5, 5), dtype=complex)
        block[:2, :2] = h1.array
        block[2:, 2:] = h2.array
        total = logdet_abs(HermitianMatrix(block))
        assert total == pytest.approx(logdet_abs(h1) + logdet_abs(h2), abs=1e-10)

    def test_propagates_not_pd(self):
        with pytest.raises(NotPositiveDefinite):
            logdet_abs(HermitianMatrix.diagonal([1.0, 0.0]))


class TestPivotThreshold:
    """A squared pivot at or below PIVOT_RTOL times the largest diagonal
    entry is refused by cholesky, is_pd and logdet_abs alike."""

    @staticmethod
    def refused(h):
        outcomes = []
        for fn in (cholesky, logdet_abs):
            try:
                fn(h)
            except NotPositiveDefinite:
                outcomes.append(True)
            else:
                outcomes.append(False)
        outcomes.append(not is_pd(h))
        assert len(set(outcomes)) == 1, outcomes
        return outcomes[0]

    def test_diagonal_boundary(self):
        assert PIVOT_RTOL == 1e-14
        assert self.refused(HermitianMatrix.diagonal([1.0, 1e-14]))
        assert not self.refused(HermitianMatrix.diagonal([1.0, 2e-14]))

    @pytest.mark.parametrize("ratio,refused", [(0.5, True), (2.0, False)])
    def test_complex_last_pivot(self, ratio, refused):
        # the elimination of L0 L0* is exact up to the last pivot, d^2, which
        # sits at ratio times PIVOT_RTOL times the largest diagonal entry, 4
        d = np.sqrt(ratio * PIVOT_RTOL * 4.0)
        l0 = np.array([[2, 0, 0], [1 + 1j, 1, 0], [1, 1 - 1j, d]])
        h = HermitianMatrix(l0 @ l0.conj().T)
        assert np.max(np.diag(h.array).real) == 4.0
        assert self.refused(h) is refused


class TestEigvals:
    def test_identity(self):
        assert np.allclose(eigvals_hermitian(HermitianMatrix.identity(2)), [1.0, 1.0])

    def test_diagonal_sorted_descending(self):
        w = eigvals_hermitian(HermitianMatrix.diagonal([5.0, 2.0, 7.0]))
        assert np.allclose(w, [7.0, 5.0, 2.0])

    def test_trace_identity(self):
        rng = np.random.default_rng(13)
        for _ in range(5):
            h = random_hermitian(4, rng)
            w = eigvals_hermitian(h)
            assert np.sum(w) == pytest.approx(h.trace(), rel=1e-10, abs=1e-10)
            assert np.all(np.diff(w) <= 0)

    def test_unitary_invariance(self):
        rng = np.random.default_rng(17)
        h = random_hermitian(3, rng)
        g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        u, _ = np.linalg.qr(g)
        rotated = HermitianMatrix(u @ h.array @ u.conj().T)
        assert np.allclose(eigvals_hermitian(rotated), eigvals_hermitian(h), atol=1e-8)


class TestIsPd:
    def test_identity(self):
        assert is_pd(HermitianMatrix.identity(3))

    def test_negative_eigenvalue(self):
        assert not is_pd(HermitianMatrix.diagonal([1.0, -1.0]))

    def test_constructed_pd(self):
        rng = np.random.default_rng(19)
        g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        assert is_pd(HermitianMatrix(g @ g.conj().T + 1e-6 * np.eye(3)))


class TestInvSqrt:
    def test_identity_exact(self):
        r = inv_sqrt(HermitianMatrix.identity(3))
        assert np.array_equal(r.array, np.eye(3))

    def test_diagonal(self):
        r = inv_sqrt(HermitianMatrix.diagonal([4.0]))
        assert r.array[0, 0] == 0.5

    def test_reconstruction(self):
        rng = np.random.default_rng(23)
        for _ in range(5):
            h = random_pd(3, rng)
            r = inv_sqrt(h).array
            err = np.linalg.norm(r @ h.array @ r - np.eye(3))
            assert err <= 1e-9

    def test_not_pd(self):
        with pytest.raises(NotPositiveDefinite):
            inv_sqrt(HermitianMatrix.diagonal([1.0, -2.0]))


class TestEntrywiseKernels:
    """Each grid kernel of linalg against numpy's LAPACK or matmul to 1e-12."""

    N = 2_000

    @pytest.mark.parametrize("p", [2, 3, 4, 5])
    def test_gram_matches_matmul(self, p):
        t = random_lower(np.random.default_rng(p), self.N, p)
        assert max_rel(_pack([_gram(grid(t))])[0], t @ herm(t)) <= 1e-12

    @pytest.mark.parametrize("p", [2, 3, 4, 5])
    def test_cholesky_matches_lapack(self, p):
        t = random_lower(np.random.default_rng(10 + p), self.N, p)
        s = t @ herm(t)
        assert max_rel(dense(_cholesky(grid(s), _refuse)), np.linalg.cholesky(s)) <= 1e-12

    @pytest.mark.parametrize("p", [2, 3, 4, 5])
    def test_forward_substitution_matches_solve(self, p):
        rng = np.random.default_rng(20 + p)
        l, t = random_lower(rng, self.N, p), random_lower(rng, self.N, p)
        u = dense(_forward(grid(l), grid(t)))
        assert max_rel(u, np.linalg.solve(l, t)) <= 1e-12

    @pytest.mark.parametrize("p", [2, 3, 4, 5])
    def test_pack_rebuilds_hermitian_stacks(self, p):
        rng = np.random.default_rng(50 + p)
        s = [t @ herm(t) for t in (random_lower(rng, self.N, p) for _ in range(3))]
        packed = _pack([grid(x) for x in s])
        assert packed.shape == (3, self.N, p, p)
        assert np.array_equal(packed, packed.conj().swapaxes(-1, -2))
        assert np.array_equal(np.tril(packed, -1), np.tril(np.stack(s), -1))
        assert max_rel(packed.reshape(-1, p, p), np.concatenate(s)) <= 1e-12

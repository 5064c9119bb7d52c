import math
import sys
import weakref
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mvda.errors import NotPositiveDefinite
from mvda.linalg import (
    PIVOT_RTOL,
    HermitianMatrix,
    _abs2,
    _cholesky,
    _forward,
    _gram,
    _gram_sum,
    _pack,
    _refuse,
    cholesky,
    eigvals_hermitian,
    inv_sqrt,
    is_pd,
    logdet_abs,
)
from grids import bits, dense, grid, herm, max_rel, random_lower


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

    @pytest.mark.parametrize("entries", [[[1.0, 1e308], [-1e308, 1.0]], [[1e308j]]],
                             ids=["off-diagonal", "diagonal"])
    def test_rejects_non_hermitian_past_half_of_double_max(self, entries):
        # A - A* overflows to inf, which is refused like any other asymmetry
        with pytest.raises(ValueError, match=r"not Hermitian: max \|A - A\*\| = inf"):
            HermitianMatrix(entries)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            HermitianMatrix([[np.inf]])

    def test_symmetrizes_tiny_asymmetry(self):
        a = np.array([[1.0, 0.5 + 1e-14j], [0.5, 2.0]])
        h = HermitianMatrix(a)
        assert np.array_equal(h.array, h.array.conj().T)
        assert np.all(np.diag(h.array).imag == 0)

    @pytest.mark.parametrize("entries", [
        [[1e308]],
        [[1.0, 1e308 + 1.5e308j], [1e308 - 1.5e308j, -1.7e308]],
    ], ids=["1x1", "off-diagonal"])
    def test_entries_above_half_of_double_max_kept(self, entries):
        # (A + A*) / 2 would overflow these to inf
        a = np.array(entries, dtype=np.complex128)
        assert HermitianMatrix(a).array.tobytes() == a.tobytes()

    def test_large_entry_symmetrized_without_overflow(self):
        a = np.array([[1.0, 1.6e308 + 1e-13j], [1.6e308, 1.0]])
        h = HermitianMatrix(a).array
        assert h[0, 1] == 1.6e308 + 5e-14j and h[1, 0] == np.conj(h[0, 1])

    def test_exactly_hermitian_input_stored_bit_for_bit(self):
        g = np.random.default_rng(8).normal(size=(2, 4, 4))
        z = g[0] + 1j * g[1]
        a = z + z.conj().T
        assert HermitianMatrix(a).array.tobytes() == a.tobytes()

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

    @pytest.mark.parametrize(
        "doc",
        [
            {"p": 2, "re": [[1, 0]], "im": [[0, 0]]},
            {"p": 2, "re": [[1, 0], [0, 1]], "im": [[0, 0]]},
            {"p": 1, "re": [[1, 0], [0, 1]], "im": [[0, 0], [0, 0]]},
        ],
        ids=["1x2", "im-1x2", "p-too-small"],
    )
    def test_from_json_refuses_arrays_not_p_by_p(self, doc):
        p = doc["p"]
        with pytest.raises(ValueError, match=f"^matrix arrays must be {p}x{p} row-major$"):
            HermitianMatrix.from_json(doc)

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

    def test_indefinite_non_diagonal(self):
        # eigenvalues 3 and -1: past the diagonal shortcut, refused by eigh
        with pytest.raises(NotPositiveDefinite, match="smallest eigenvalue -1.000e"):
            inv_sqrt(HermitianMatrix([[1.0, 2.0], [2.0, 1.0]]))


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


def componentwise(z, r):
    """z * r for a real r, one product per component, with no cast."""
    out = np.empty_like(z)
    np.multiply(z.real, r, out=out.real)
    np.multiply(z.imag, r, out=out.imag)
    return out


class TestMixedComplexReal:
    """The grid kernels divide a complex entry by a real pivot as the
    product with the pivot's reciprocal, and multiply it by a real diagonal
    entry without a cast. Both keep the bits of numpy's complex loops on
    nonzero components, so canonical reports do not move; a numpy that
    rounds otherwise fails here."""

    N = 200_000

    @pytest.fixture(scope="class")
    def operands(self):
        # components and positive reals at magnitudes e^-30 .. e^30, both signs
        rng = np.random.default_rng(71)
        mag = np.exp(rng.uniform(-30.0, 30.0, (3, self.N)))
        sign = rng.choice([-1.0, 1.0], (2, self.N))
        return sign[0] * mag[0] + 1j * sign[1] * mag[1], mag[2]

    def test_division_by_real_is_product_with_reciprocal(self, operands):
        z, d = operands
        r = 1.0 / d
        assert bits(z / d) == bits(z * r) == bits(componentwise(z, r))

    def test_product_with_real_is_componentwise(self, operands):
        z, d = operands
        assert bits(z * d) == bits(z * np.conj(d)) == bits(componentwise(z, d))

    def test_numpy_scalars_round_as_the_array_loop(self, operands):
        # cholesky() and logdet_abs() run the same kernel on numpy scalars
        z, d = (a[:2_000] for a in operands)
        quotients = np.array([zi / di for zi, di in zip(z, d)])
        products = np.array([zi * (1.0 / di) for zi, di in zip(z, d)])
        assert bits(quotients) == bits(products) == bits(z / d)

    @pytest.mark.parametrize("d", [1.0, 3.5, math.exp(30.0), math.exp(-30.0)])
    def test_signed_zero_components_keep_their_value(self, d):
        # complex division adds re * 0 to im (and im * 0 to re), so a zero
        # component may come out with the other sign; only its sign moves
        parts = [0.0, -0.0, 1.5, -1.5]
        z = np.array([complex(a, b) for a in parts for b in parts])
        dd = np.full(z.shape, d)
        for want, got in ((z / dd, componentwise(z, 1.0 / dd)), (z * dd, componentwise(z, dd))):
            assert np.array_equal(want, got)
            for part in ("real", "imag"):
                nonzero = getattr(z, part) != 0
                assert bits(getattr(want, part)[nonzero]) == bits(getattr(got, part)[nonzero])


def _gram_sum_from_zero(rows):
    # the kernels as first written: builtin sums from 0, every entry conjugated
    out = []
    for i, ri in enumerate(rows):
        out_i = [sum(a * np.conj(b) for a, b in zip(ri, rj)) for rj in rows[:i]]
        out_i.append(sum(_abs2(a) for a in ri))
        out.append(out_i)
    return out


def _cholesky_divided(s, pivot):
    scale = np.max([row[-1] for row in s], axis=0)
    l = []
    for i, si in enumerate(s):
        row = []
        for j in range(i):
            acc = sum(np.multiply(row[m], np.conj(l[j][m])) for m in range(j))
            row.append((si[j] - acc) / l[j][j])
        row.append(pivot(si[i] - sum(_abs2(z) for z in row), scale))
        l.append(row)
    return l


def _forward_divided(l, t):
    u = []
    for i, ti in enumerate(t):
        u.append([(ti[j] - sum(l[i][m] * u[m][j] for m in range(j, i))) / l[i][i]
                  for j in range(i + 1)])
    return u


class TestKernelsKeepTheirRounding:
    """The grid kernels, which sum from the first term, leave real pivots
    unconjugated and multiply by their reciprocals, against the same
    kernels summed from 0 with complex division: equal bit for bit."""

    N = 2_000

    @staticmethod
    def same(got, want):
        assert [len(row) for row in got] == [len(row) for row in want]
        for row_got, row_want in zip(got, want):
            for a, b in zip(row_got, row_want):
                assert a.dtype == b.dtype and bits(a) == bits(b)

    @pytest.mark.parametrize("p", [2, 3, 4, 5])
    def test_gram(self, p):
        t = grid(random_lower(np.random.default_rng(80 + p), self.N, p))
        self.same(_gram(t), _gram_sum_from_zero(t))

    @pytest.mark.parametrize("p", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("count", [1, 2, 3])
    def test_gram_sum(self, p, count):
        # entry by entry, the factors' own Gram entries added in factor order
        rng = np.random.default_rng(120 + 10 * count + p)
        factors = [grid(random_lower(rng, self.N, p)) for _ in range(count)]
        grams = [_gram_sum_from_zero(f) for f in factors]
        want = [[reduce(np.add, entries) for entries in zip(*rows)] for rows in zip(*grams)]
        self.same(_gram_sum(factors), want)

    @pytest.mark.parametrize("p", [2, 3, 4, 5])
    def test_cholesky(self, p):
        t = random_lower(np.random.default_rng(90 + p), self.N, p)
        s = grid(t @ herm(t))
        self.same(_cholesky(s, _refuse), _cholesky_divided(s, _refuse))

    @pytest.mark.parametrize("p", [2, 3, 4, 5])
    def test_forward(self, p):
        rng = np.random.default_rng(100 + p)
        l, t = grid(random_lower(rng, self.N, p)), grid(random_lower(rng, self.N, p))
        self.same(_forward(l, t), _forward_divided(l, t))

    @pytest.mark.parametrize("p", [2, 3, 4])
    def test_scalar_cholesky(self, p):
        # cholesky() factors one matrix on numpy scalars through the same kernel
        h = random_pd(p, np.random.default_rng(110 + p))
        a = h.array
        s = [[a[i, j] for j in range(i)] + [a[i, i].real] for i in range(p)]
        got, want = _cholesky(s, _refuse), _cholesky_divided(s, _refuse)
        assert bits(np.array([z for row in got for z in row], dtype=complex)) == bits(
            np.array([z for row in want for z in row], dtype=complex))


class TestCholeskyLetsRowsGo:
    @pytest.mark.skipif(sys.version_info < (3, 11),
                        reason="a call owns its arguments from CPython 3.11 on")
    def test_a_handed_over_grid_goes_row_by_row(self):
        p = 4
        box = [_gram(grid(random_lower(np.random.default_rng(130), 100, p)))]
        refs = [[weakref.ref(z) for z in row] for row in box[0]]
        alive = []

        def pivot(d2, scale):
            alive.append([[r() is not None for r in row] for row in refs])
            return np.sqrt(d2)

        _cholesky(box.pop(), pivot)
        # at row i's pivot, the rows of S above it are gone and those below held
        for i, rows in enumerate(alive):
            assert not any(any(row) for row in rows[:i])
            assert all(all(row) for row in rows[i + 1:])

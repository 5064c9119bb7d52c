"""Complex Hermitian linear algebra primitives.

Everything here operates on small dense Hermitian matrices (the dimension
is a handful, not thousands), one at a time or as grids of arrays over many
of them (the batched Cholesky layer). Values are immutable after
construction and safe to share between concurrent workers.
"""

from __future__ import annotations

from functools import reduce
from typing import Callable, Sequence

import numpy as np

from .errors import NotPositiveDefinite, _json_typed

# Construction-time gate on conjugate symmetry of raw input.
HERMITIAN_ATOL = 1e-12
# Relative to the largest diagonal entry, a squared Cholesky pivot at or below
# PIVOT_RTOL means an input matrix is not positive definite: it is refused.
PIVOT_RTOL = 1e-14
# A sampled sum of gamma draws is positive definite by construction, so a
# squared pivot below EIG_FLOOR_RTOL is rounding: it is raised to it, not refused.
EIG_FLOOR_RTOL = 1e-13


class HermitianMatrix:
    """Immutable p x p complex Hermitian matrix.

    Input is validated (square, finite, conjugate-symmetric within
    ``HERMITIAN_ATOL``) and then symmetrized as (A + A*)/2 so that tiny
    rounding asymmetries from upstream arithmetic do not propagate; a part
    above half of double max, whose sum would overflow, is halved before it
    is added. Exactly Hermitian input is stored as given. The stored array
    has exactly zero imaginary parts on the diagonal.
    """

    __slots__ = ("_a",)

    def __init__(self, entries) -> None:
        a = np.array(entries, dtype=np.complex128)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
            raise ValueError(f"expected a square matrix, got shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise ValueError("matrix entries must be finite")
        # a part above half of double max overflows A - A* and A + A* to inf,
        # and the complex division makes the other part of its entry nan
        with np.errstate(over="ignore", invalid="ignore"):
            asym = float(np.max(np.abs(a - a.conj().T)))
            h = (a + a.conj().T) / 2.0
        if asym > HERMITIAN_ATOL:
            raise ValueError(
                f"matrix is not Hermitian: max |A - A*| = {asym:.3e} > {HERMITIAN_ATOL:.0e}"
            )
        parts = h.view(np.float64)
        lost = ~np.isfinite(parts)
        if lost.any():
            parts[lost] = (a / 2.0 + a.conj().T / 2.0).view(np.float64)[lost]
        h.flags.writeable = False
        self._a = h

    @property
    def dim(self) -> int:
        return self._a.shape[0]

    @property
    def array(self) -> np.ndarray:
        """Read-only complex128 view of the entries."""
        return self._a

    def trace(self) -> float:
        return float(np.trace(self._a).real)

    @classmethod
    def identity(cls, p: int) -> "HermitianMatrix":
        return cls(np.eye(p, dtype=np.complex128))

    @classmethod
    def diagonal(cls, values: Sequence[float]) -> "HermitianMatrix":
        return cls(np.diag(np.asarray(values, dtype=np.complex128)))

    def to_json(self) -> dict:
        """Shared CLI matrix format: {"p": int, "re": [[...]], "im": [[...]]}."""
        return {
            "p": self.dim,
            "re": self._a.real.tolist(),
            "im": self._a.imag.tolist(),
        }

    @classmethod
    def from_json(cls, doc: dict) -> "HermitianMatrix":
        p = _json_typed(doc["p"], "p", "integer")
        re = np.asarray(doc["re"], dtype=np.float64)
        im = np.asarray(doc["im"], dtype=np.float64)
        if re.shape != (p, p) or im.shape != (p, p):
            raise ValueError(f"matrix arrays must be {p}x{p} row-major")
        return cls(re + 1j * im)

    def __eq__(self, other) -> bool:
        if not isinstance(other, HermitianMatrix):
            return NotImplemented
        return self._a.shape == other._a.shape and bool(np.array_equal(self._a, other._a))

    def __hash__(self) -> int:
        # from the entry values, so that 0.0 and -0.0 hash alike, as they compare
        return hash(tuple(self._a.ravel().tolist()))

    def __repr__(self) -> str:
        return f"HermitianMatrix(dim={self.dim})"


# ---------------------------------------------------------------------------
# the batched Cholesky layer
#
# A stack of n lower-triangular or Hermitian p x p matrices is held as a grid
# of rows, row i holding the entries (i, 0) .. (i, i) as length-n arrays: real
# on the diagonal, complex below it. A Hermitian grid keeps its lower triangle.
# A full grid (rows of length p) holds the general products C T_j.
#
# A real diagonal entry is never conjugated, and a complex entry meets it as
# numpy's mixed complex-real loop does: the real array is not cast ahead of
# time. Division by a real pivot is the product with the pivot's reciprocal,
# which is what numpy's complex division computes for a real divisor, bit
# for bit on every nonzero component (a zero component may change sign);
# the reciprocal costs a real pass, where complex division by the cast pivot
# costs several. A sum of arrays starts from its first term and adds in
# place (_sum), which builtin sum, starting from 0, would not.


def _sum(terms):
    """The sum of terms, in order, added in place into the first, which the
    caller must own (a fresh array, or a numpy scalar)."""
    terms = iter(terms)
    total = next(terms)
    for term in terms:
        total += term
        del term  # free it before a generator makes the next
    return total


def _abs2(z: np.ndarray) -> np.ndarray:
    # products, not squares: a numpy scalar's ** 2 calls pow, which rounds
    # differently from the product an array's ** 2 takes
    return z * z if z.dtype.kind != "c" else z.real * z.real + z.imag * z.imag


def _gram_entry(rows: list, i: int, j: int) -> np.ndarray:
    """Entry (i, j), j <= i, of R R* for a lower-triangular grid R: a fresh
    array, real on the diagonal."""
    ri = rows[i]
    if j == i:
        return _sum(_abs2(a) for a in ri)
    # row j is zero past its own length; rows[j][j] is the real diagonal,
    # which is not conjugated
    return _sum(a * (b if m == j else np.conj(b)) for m, (a, b) in enumerate(zip(ri, rows[j])))


def _gram_sum(factors: list) -> list:
    """The Hermitian grid of the sum of R R* over the lower-triangular grids
    R in factors, formed one entry at a time: each entry is the sum, in
    factor order, of the factors' own entries, and no factor's R R* is
    held whole."""
    return [
        [_sum(_gram_entry(r, i, j) for r in factors) for j in range(i + 1)]
        for i in range(len(factors[0]))
    ]


def _gram(rows: list) -> list:
    """The Hermitian grid R R* of a lower-triangular grid R."""
    return _gram_sum([rows])


def _cholesky(s: list, pivot: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> list:
    """The lower-triangular L with S = L L* of a Hermitian grid S.

    pivot(d2, scale) returns each diagonal entry of L from its squared
    pivot d2 and the largest diagonal entry of S, and decides what a small
    d2 means: _refuse raises, the sampler floors.

    Row i of S is let go as soon as row i of L exists. The caller's list
    is never changed; a list that only this call holds (a fresh _gram_sum
    passed straight in) is freed row by row, where the call owns its
    arguments (CPython 3.11 on).
    """
    scale = reduce(np.maximum, [row[-1] for row in s])  # no stacked copy
    rows = s[::-1]  # popped in row order
    del s
    p = len(rows)
    l, inv = [], []  # inv[j] = 1 / L_jj, for the columns with entries below
    for i in range(p):
        si = rows.pop()
        row = []
        for j in range(i):
            z = si[j]
            if j:
                # np.multiply, not *: on numpy scalars * rounds apart from
                # the fused multiply-adds of numpy's array loop
                z = z - _sum(np.multiply(row[m], np.conj(l[j][m])) for m in range(j))
            row.append(z * inv[j])
        d2 = si[i] - _sum(_abs2(z) for z in row) if i else si[i]
        row.append(pivot(d2, scale))
        if i < p - 1:
            inv.append(1.0 / row[i])
        l.append(row)
    return l


def _forward(l: list, t: list) -> list:
    """L^{-1} T for lower-triangular grids L and T, by forward substitution."""
    u = []
    for i, ti in enumerate(t):
        row = []
        if i:
            inv = 1.0 / l[i][i]
            for j in range(i):
                row.append((ti[j] - _sum(l[i][m] * u[m][j] for m in range(j, i))) * inv)
        row.append(ti[i] / l[i][i])  # real over real: a true division
        u.append(row)
    return u


def _pack(grids: list) -> np.ndarray:
    """The (k, n, p, p) complex stack of k Hermitian grids."""
    p = len(grids[0])
    out = np.empty((len(grids),) + np.shape(grids[0][0][0]) + (p, p), dtype=np.complex128)
    for o, h in zip(out, grids):
        for i, row in enumerate(h):
            o[..., i, i] = row[i]
            for j, z in enumerate(row[:i]):
                o[..., i, j] = z
                np.conjugate(z, out=o[..., j, i])
    return out


def _log_diagonal(rows: list) -> np.ndarray:
    """The summed logs of a triangular grid's diagonal entries; an entry
    that is 0 (a gamma that underflowed) gives -inf."""
    with np.errstate(divide="ignore"):
        return _sum(np.log(row[-1]) for row in rows)


def _refuse(d2: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """The pivot sqrt(d2); NotPositiveDefinite if d2 <= PIVOT_RTOL * scale."""
    tol = PIVOT_RTOL * scale
    if (d2 <= tol).any():
        raise NotPositiveDefinite(f"squared pivot {d2.min():.3e} is <= {tol.max():.3e}")
    return np.sqrt(d2)


def _factor(h: HermitianMatrix) -> list:
    """The Cholesky grid of H on numpy scalars, refusing small pivots: a
    length-1 grid would pay a numpy array call for every entry operation."""
    a = h.array
    return _cholesky(
        [[a[i, j] for j in range(i)] + [a[i, i].real] for i in range(h.dim)],
        _refuse,
    )


def cholesky(h: HermitianMatrix) -> np.ndarray:
    """The read-only lower-triangular T with H = T T*, for Hermitian
    positive definite H.

    Raises NotPositiveDefinite when a squared pivot falls at or below
    ``PIVOT_RTOL`` times the largest diagonal entry, which makes the test
    scale-relative rather than absolute.
    """
    t = np.zeros((h.dim, h.dim), dtype=np.complex128)
    t[np.tril_indices(h.dim)] = [z for row in _factor(h) for z in row]
    t.flags.writeable = False
    return t


def logdet_abs(h: HermitianMatrix) -> float:
    """log|det(H)| for Hermitian positive definite H, via the Cholesky diagonal."""
    return 2.0 * float(_log_diagonal(_factor(h)))


def eigvals_hermitian(h: HermitianMatrix) -> np.ndarray:
    """Real eigenvalues of H in non-increasing order."""
    return np.linalg.eigvalsh(h.array)[::-1].copy()


def is_pd(h: HermitianMatrix) -> bool:
    """True iff the Cholesky factorization of H succeeds."""
    try:
        _factor(h)
    except NotPositiveDefinite:
        return False
    return True


def inv_sqrt(h: HermitianMatrix) -> HermitianMatrix:
    """Hermitian R with R H R = I, for Hermitian positive definite H.

    Diagonal inputs take an exact entrywise shortcut, so inv_sqrt(I) == I
    with no floating error.
    """
    a = h.array
    p = h.dim
    if not np.any(a - np.diag(np.diag(a))):
        d = np.diag(a).real
        if np.any(d <= 0):
            raise NotPositiveDefinite("diagonal entry <= 0")
        return HermitianMatrix(np.diag((1.0 / np.sqrt(d)).astype(np.complex128)))
    w, v = np.linalg.eigh(a)
    if w[0] <= PIVOT_RTOL * max(w[-1], 0.0):
        raise NotPositiveDefinite(f"smallest eigenvalue {w[0]:.3e} is not positive")
    r = (v * (1.0 / np.sqrt(w))) @ v.conj().T
    return HermitianMatrix((r + r.conj().T) / 2.0)

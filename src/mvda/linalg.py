"""Complex Hermitian linear algebra primitives.

Everything here operates on small dense Hermitian matrices (the dimension
is a handful, not thousands). Values are immutable after construction and
safe to share between concurrent workers.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import NotPositiveDefinite

# Construction-time gate on conjugate symmetry of raw input.
HERMITIAN_ATOL = 1e-12
# A Cholesky pivot at or below PIVOT_RTOL * (largest diagonal magnitude)
# is treated as loss of positive definiteness.
PIVOT_RTOL = 1e-14


class HermitianMatrix:
    """Immutable p x p complex Hermitian matrix.

    Input is validated (square, finite, conjugate-symmetric within
    ``HERMITIAN_ATOL``) and then symmetrized as (A + A*)/2 so that tiny
    rounding asymmetries from upstream arithmetic do not propagate. The
    stored array has exactly zero imaginary parts on the diagonal.
    """

    __slots__ = ("_a",)

    def __init__(self, entries) -> None:
        a = np.array(entries, dtype=np.complex128)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
            raise ValueError(f"expected a square matrix, got shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise ValueError("matrix entries must be finite")
        asym = float(np.max(np.abs(a - a.conj().T)))
        if asym > HERMITIAN_ATOL:
            raise ValueError(
                f"matrix is not Hermitian: max |A - A*| = {asym:.3e} > {HERMITIAN_ATOL:.0e}"
            )
        h = (a + a.conj().T) / 2.0
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
        p = int(doc["p"])
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


class LowerTriangularFactor:
    """Lower-triangular Cholesky factor with strictly positive real diagonal."""

    __slots__ = ("_t",)

    def __init__(self, entries) -> None:
        t = np.array(entries, dtype=np.complex128)
        if t.ndim != 2 or t.shape[0] != t.shape[1]:
            raise ValueError("factor must be square")
        if np.any(np.triu(t, 1) != 0):
            raise ValueError("factor must be lower triangular")
        d = np.diag(t)
        if np.any(d.imag != 0) or np.any(d.real <= 0):
            raise ValueError("diagonal must be real and strictly positive")
        t.flags.writeable = False
        self._t = t

    @property
    def dim(self) -> int:
        return self._t.shape[0]

    @property
    def array(self) -> np.ndarray:
        return self._t

    def __repr__(self) -> str:
        return f"LowerTriangularFactor(dim={self.dim})"


def cholesky(h: HermitianMatrix) -> LowerTriangularFactor:
    """Factor a Hermitian positive definite H as T T* with T lower triangular.

    Raises NotPositiveDefinite when a pivot falls at or below
    ``PIVOT_RTOL`` times the largest diagonal magnitude, which makes the
    test scale-relative rather than absolute.
    """
    a = h.array
    p = h.dim
    tol = PIVOT_RTOL * float(np.max(np.abs(np.diag(a).real)))
    t = np.zeros((p, p), dtype=np.complex128)
    for j in range(p):
        pivot = a[j, j].real - float(np.sum(np.abs(t[j, :j]) ** 2))
        if pivot <= tol:
            raise NotPositiveDefinite(
                f"pivot {pivot:.3e} at column {j} is <= {tol:.3e}"
            )
        t[j, j] = math.sqrt(pivot)
        for i in range(j + 1, p):
            s = a[i, j] - np.sum(t[i, :j] * np.conj(t[j, :j]))
            t[i, j] = s / t[j, j]
    return LowerTriangularFactor(t)


def logdet_abs(h: HermitianMatrix) -> float:
    """log|det(H)| for Hermitian positive definite H, via the Cholesky diagonal."""
    t = cholesky(h).array
    return 2.0 * float(np.sum(np.log(np.diag(t).real)))


def eigvals_hermitian(h: HermitianMatrix) -> np.ndarray:
    """Real eigenvalues of H in non-increasing order."""
    return np.linalg.eigvalsh(h.array)[::-1].copy()


def is_pd(h: HermitianMatrix) -> bool:
    """True iff the Cholesky factorization of H succeeds."""
    try:
        cholesky(h)
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

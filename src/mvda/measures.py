"""Samplers for the complex matrix-variate gamma and Dirichlet measures.

The matrix gamma draw builds a lower-triangular factor T with chi-type
diagonal entries (squared diagonals are gamma variates with shapes
alpha - j + 1) and complex Gaussian strict-lower entries, then returns
T T*. Type-1 and type-2 Dirichlet samples are gamma ratios: with
independent W_1..W_{k+1},

    type-1:  X_j = S^{-1/2} W_j S^{-1/2},  S = W_1 + ... + W_{k+1}
    type-2:  X_j = W_{k+1}^{-1/2} W_j W_{k+1}^{-1/2}

At p = 2 the whole chain (matrix gamma, inverse square root, congruence,
type-1 support check) is written out in closed form on the entries of
Hermitian 2 x 2 matrices; p >= 3 uses batched eigh.

The rectangular measures are handled through the induced scalar variables
u_j (the values of the Hermitian forms), which follow ordinary Dirichlet
laws with the shifted parameters alpha_j + n_j (MeasureSpec.scalar_alphas).
So every kind at p = 1 is drawn the same way, as a ratio of scalar gammas.
Sampler correctness is not assumed: the Monte Carlo harness cross-checks
every construction against the closed-form averages.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import DomainError, SamplerError
from .linalg import HermitianMatrix
from .rng import CounterRng, SeedSpec

logger = logging.getLogger(__name__)

KINDS = ("type1", "type2", "rect_type1_p1", "rect_type2_p1")

# Relative eigenvalue floor applied before inverting near-singular gamma sums.
EIG_FLOOR_RTOL = 1e-13

_floor_events = 0


def floor_event_count() -> int:
    """Number of eigenvalues floored during inverse square roots so far."""
    return _floor_events


@dataclass(frozen=True)
class MeasureSpec:
    """Full parameterization of a Dirichlet measure.

    kind type1/type2 are the Hermitian p x p measures; the rect_* kinds are
    the p = 1 rectangular (Hermitian form) measures described through the
    induced scalar variables u_j, with per-form sizes ns and optional
    positive definite form matrices Bs (identity when omitted; the u_j law
    does not depend on them, only the normalizing constant does).
    """

    kind: str
    p: int
    k: int
    alphas: tuple[float, ...]
    ns: Optional[tuple[int, ...]] = None
    Bs: Optional[tuple[HermitianMatrix, ...]] = None

    def __post_init__(self):
        object.__setattr__(self, "alphas", tuple(float(a) for a in self.alphas))
        if self.ns is not None:
            object.__setattr__(self, "ns", tuple(int(n) for n in self.ns))
        if self.Bs is not None:
            object.__setattr__(self, "Bs", tuple(self.Bs))

    @property
    def rectangular(self) -> bool:
        return self.kind.startswith("rect_")

    @property
    def type1(self) -> bool:
        """True for the type-1 kinds, type1 and rect_type1_p1."""
        return self.kind in ("type1", "rect_type1_p1")

    @property
    def scalar_alphas(self) -> tuple[float, ...]:
        """Parameters of the scalar Dirichlet law at p = 1.

        The rectangular form values u_j follow it at (alpha_1 + n_1, ...,
        alpha_k + n_k, alpha_{k+1}); the other kinds at their own alphas.
        """
        if not self.rectangular:
            return self.alphas
        return tuple(a + n for a, n in zip(self.alphas, self.ns)) + self.alphas[-1:]

    def validate(self) -> None:
        """Raise DomainError naming every violated existence condition."""
        bad: list[str] = []
        if self.kind not in KINDS:
            raise ValueError(f"unknown measure kind {self.kind!r}")
        if self.p < 1 or self.k < 1:
            raise ValueError("p and k must be >= 1")
        if len(self.alphas) != self.k + 1:
            raise ValueError(
                f"need k + 1 = {self.k + 1} alpha parameters, got {len(self.alphas)}"
            )
        if not self.rectangular:
            if self.ns is not None or self.Bs is not None:
                raise ValueError("ns/Bs only apply to rectangular measures")
            for j, a in enumerate(self.alphas, start=1):
                if not a > self.p - 1:
                    bad.append(f"alpha_{j} > p - 1 (got {a!r}, p = {self.p})")
        else:
            if self.p != 1:
                bad.append(f"p == 1 for rectangular measures (got p = {self.p})")
            if self.ns is None or len(self.ns) != self.k:
                raise ValueError("rectangular measures need k form sizes ns")
            if any(n < 1 for n in self.ns):
                raise ValueError("form sizes must be >= 1")
            if self.Bs is not None:
                if len(self.Bs) != self.k:
                    raise ValueError("need one form matrix per component")
                for j, (b, n) in enumerate(zip(self.Bs, self.ns), start=1):
                    if b.dim != n:
                        raise ValueError(f"B_{j} must be {n}x{n}")
            for j in range(self.k):
                if not self.alphas[j] + self.ns[j] > 0:
                    bad.append(
                        f"alpha_{j + 1} + n_{j + 1} > 0 (got {self.alphas[j] + self.ns[j]!r})"
                    )
            if not self.alphas[-1] > 0:
                bad.append(f"alpha_{{k+1}} > 0 (got {self.alphas[-1]!r})")
        if bad:
            raise DomainError(bad, context=f"invalid {self.kind} measure")

    def to_json(self) -> dict:
        doc: dict = {
            "kind": self.kind,
            "p": self.p,
            "k": self.k,
            "alphas": list(self.alphas),
        }
        if self.ns is not None:
            doc["ns"] = list(self.ns)
        if self.Bs is not None:
            doc["Bs"] = [b.to_json() for b in self.Bs]
        return doc

    @classmethod
    def from_json(cls, doc: dict) -> "MeasureSpec":
        bs = doc.get("Bs")
        return cls(
            kind=doc["kind"],
            p=int(doc["p"]),
            k=int(doc["k"]),
            alphas=tuple(doc["alphas"]),
            ns=tuple(doc["ns"]) if doc.get("ns") is not None else None,
            Bs=tuple(HermitianMatrix.from_json(b) for b in bs) if bs else None,
        )


@dataclass(frozen=True)
class DirichletSample:
    """One draw from a Dirichlet measure: k Hermitian matrices (1x1 => scalars)."""

    matrices: tuple[HermitianMatrix, ...] = field(default_factory=tuple)

    @property
    def scalars(self) -> tuple[float, ...]:
        return tuple(float(m.array[0, 0].real) for m in self.matrices)

    def to_json(self) -> dict:
        return {"matrices": [m.to_json() for m in self.matrices]}


# ---------------------------------------------------------------------------
# batch generation (the Monte Carlo workhorses)


def _matrix_gamma_batch(rng: CounterRng, p: int, alpha: float, n: int) -> np.ndarray:
    """n draws of the p x p complex matrix gamma, as an (n, p, p) stack,
    by the triangular construction at every p."""
    t = np.zeros((n, p, p), dtype=np.complex128)
    for j in range(p):
        t[:, j, j] = np.sqrt(rng.gammas(alpha - j, n))
    for i in range(1, p):
        for j in range(i):
            t[:, i, j] = rng.complex_normals(n)
    return t @ t.conj().transpose(0, 2, 1)


def _inv_sqrt_batch(s: np.ndarray) -> np.ndarray:
    """Hermitian inverse square roots of an (n, p, p) positive definite stack.

    Eigenvalues below EIG_FLOOR_RTOL * lambda_max are floored (and counted)
    so that one near-singular sum cannot abort a long run.
    """
    global _floor_events
    w, v = np.linalg.eigh(s)
    floor = EIG_FLOOR_RTOL * w[:, -1:]
    n_floored = int(np.count_nonzero(w < floor))
    if n_floored:
        _floor_events += n_floored
        logger.warning("floored %d near-zero eigenvalues in inverse sqrt", n_floored)
        w = np.maximum(w, floor)
    return (v * (1.0 / np.sqrt(w))[:, None, :]) @ v.conj().transpose(0, 2, 1)


def _symmetrize(x: np.ndarray) -> np.ndarray:
    return (x + x.conj().transpose(0, 2, 1)) / 2.0


# ---------------------------------------------------------------------------
# closed-form 2 x 2 Hermitian kernels
#
# A stack of Hermitian 2 x 2 matrices is held as a struct of arrays (a, d, c):
# the real diagonal entries a = S[0, 0] and d = S[1, 1] and the complex entry
# below the diagonal c = S[1, 0], each an array over the draws.


def _pack_2x2(a: np.ndarray, d: np.ndarray, c: np.ndarray) -> np.ndarray:
    """The (..., 2, 2) complex stack of the Hermitian matrices (a, d, c)."""
    out = np.empty(a.shape + (2, 2), dtype=np.complex128)
    out[..., 0, 0] = a
    out[..., 1, 1] = d
    out[..., 1, 0] = c
    out[..., 0, 1] = np.conj(c)
    return out


def _matrix_gamma_2x2(rng: CounterRng, alpha: float, n: int):
    """n matrix gamma draws at p = 2 as (a, d, c).

    T T* for T = [[t11, 0], [t21, t22]] has a = t11^2, d = |t21|^2 + t22^2
    and c = t21 t11. The variates are drawn in the order of the triangular
    construction at p >= 3: diagonal gammas first, then the normals below.
    """
    g11 = rng.gammas(alpha, n)
    g22 = rng.gammas(alpha - 1, n)
    t21 = rng.complex_normals(n)
    return g11, t21.real**2 + t21.imag**2 + g22, t21 * np.sqrt(g11)


def _inv_sqrt_2x2(a: np.ndarray, d: np.ndarray, c: np.ndarray):
    """Hermitian inverse square roots of positive definite (a, d, c).

    With s = sqrt(det S) and t = sqrt(tr S + 2 s), sqrt(S) = (S + s I) / t,
    so S^{-1/2} = [[d + s, -conj(c)], [-c, a + s]] / (s t). Rows whose
    smallest eigenvalue lies below EIG_FLOOR_RTOL * lambda_max go through
    _inv_sqrt_batch, which floors and counts them exactly as at p >= 3.
    """
    cc = c.real**2 + c.imag**2
    det = a * d - cc
    lmax = 0.5 * (a + d) + np.sqrt((0.5 * (a - d)) ** 2 + cc)
    low = det / lmax < EIG_FLOOR_RTOL * lmax
    floored = np.flatnonzero(low)
    if floored.size:
        det = np.where(low, 1.0, det)  # placeholder; these rows are replaced below
    s = np.sqrt(det)
    scale = 1.0 / (s * np.sqrt(a + d + 2.0 * s))
    ra, rd, rc = (d + s) * scale, (a + s) * scale, -c * scale
    if floored.size:
        r = _inv_sqrt_batch(_pack_2x2(a[floored], d[floored], c[floored]))
        ra[floored] = r[:, 0, 0].real
        rd[floored] = r[:, 1, 1].real
        rc[floored] = r[:, 1, 0]
    return ra, rd, rc


def _congruence_2x2(r, w):
    """R W R for Hermitian (a, d, c) stacks R and W, entry by entry."""
    ra, rd, rc = r
    wa, wd, wc = w
    rc2 = rc.real**2 + rc.imag**2
    cross = 2.0 * (rc.real * wc.real + rc.imag * wc.imag)  # 2 Re(conj(rc) wc)
    return (
        ra * ra * wa + ra * cross + rc2 * wd,
        rc2 * wa + rd * cross + rd * rd * wd,
        rc * (ra * wa + rd * wd) + (ra * rd) * wc + rc * rc * np.conj(wc),
    )


def _check_type1_support_2x2(a: np.ndarray, d: np.ndarray, c: np.ndarray) -> None:
    """Raise unless I - sum X_j is positive semidefinite (to 1e-9) at p = 2.

    a, d, c are the entries of the k components stacked as (k, n) arrays.
    """
    ta, td, tc = a.sum(axis=0), d.sum(axis=0), c.sum(axis=0)
    half_gap = np.sqrt((0.5 * (ta - td)) ** 2 + (tc.real**2 + tc.imag**2))
    lmin = 1.0 - 0.5 * (ta + td) - half_gap
    bad = lmin < -1e-9
    if np.any(bad):
        raise SamplerError(
            f"type-1 complement I - sum X_j not positive semidefinite at sample {int(np.argmax(bad))}"
        )


def sample_batch(spec: MeasureSpec, seed: SeedSpec, n: int, chunk: int = 0) -> np.ndarray:
    """n draws from the measure as a (k, n, p, p) stack, complex at p >= 2
    and real float64 at p = 1.

    The output is a pure function of (seed, stream, chunk, n), which is
    what makes chunked Monte Carlo independent of worker scheduling.
    """
    spec.validate()
    rng = seed.child(chunk)
    k, p = spec.k, spec.p

    if p == 1:
        # the scalar Dirichlet law: k gammas, then the closing one
        w = np.stack([rng.gammas(a, n) for a in spec.scalar_alphas])
        with np.errstate(all="ignore"):  # _check_p1_support reports 0, inf and nan
            x = w[:k] / (w.sum(axis=0) if spec.type1 else w[-1])
        _check_p1_support(x, w[-1] if spec.type1 else None)
        return x.reshape(k, n, 1, 1)

    if p == 2:
        w = [_matrix_gamma_2x2(rng, a, n) for a in spec.alphas]
        if spec.type1:
            r = _inv_sqrt_2x2(*(sum(parts) for parts in zip(*w)))
        else:
            r = _inv_sqrt_2x2(*w[-1])
        x = [np.stack(parts) for parts in zip(*(_congruence_2x2(r, wj) for wj in w[:k]))]
        if spec.type1:
            _check_type1_support_2x2(*x)
        return _pack_2x2(*x)

    w = [_matrix_gamma_batch(rng, p, a, n) for a in spec.alphas]
    if spec.type1:
        r = _inv_sqrt_batch(np.sum(w, axis=0))
    else:
        r = _inv_sqrt_batch(w[-1])
    out = np.stack([_symmetrize(r @ wj @ r) for wj in w[:k]])
    if spec.type1:
        # I - sum X_j > O forces the traces to sum below p.
        tr = np.einsum("knii->n", out).real
        if np.any(tr > p + 1e-9):
            raise SamplerError(
                f"type-1 trace aggregate exceeded p at sample {int(np.argmax(tr > p + 1e-9))}"
            )
    return out


def _check_p1_support(x: np.ndarray, closing: Optional[np.ndarray] = None) -> None:
    """Raise unless every p = 1 value x_j is positive and finite and, at
    type-1, the closing gamma is positive.

    A gamma draw at a shape below 1 can underflow to 0, which puts x_j at
    0 or at inf. The type-1 complement 1 - sum(x) = closing / sum(gammas)
    is checked through the closing gamma: next to the other gammas it can
    be too small for the rounded sum of x to stay below 1, although the
    draw is inside the support.
    """
    if not (x.min() > 0 and x.max() < np.inf):  # a nan fails both
        bad = ~((x > 0) & (x < np.inf)).all(axis=0)
        raise SamplerError(f"p = 1 value not positive and finite at sample {int(np.argmax(bad))}")
    if closing is not None and np.any(closing <= 0):
        raise SamplerError(
            f"type-1 complement 1 - sum x_j is 0 at sample {int(np.argmax(closing <= 0))}"
        )


# ---------------------------------------------------------------------------
# single-draw operations


def sample_matrix_gamma(p: int, alpha: float, seed: SeedSpec) -> HermitianMatrix:
    """One draw with density proportional to |det W|^(alpha-p) exp(-tr W)."""
    if not alpha > p - 1:
        raise DomainError(
            [f"alpha > p - 1 (got {alpha!r}, p = {p})"],
            context="matrix gamma sampler",
        )
    w = _matrix_gamma_batch(seed.child(0), p, float(alpha), 1)
    return HermitianMatrix(_symmetrize(w)[0])


def sample_one(spec: MeasureSpec, seed: SeedSpec) -> DirichletSample:
    """One draw of the measure: the k matrices X_j, or at the rectangular
    kinds the induced Hermitian form values u_j as 1 x 1 matrices."""
    batch = sample_batch(spec, seed, 1)
    return DirichletSample(
        matrices=tuple(HermitianMatrix(batch[j, 0]) for j in range(spec.k))
    )

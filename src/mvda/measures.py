"""Samplers for the complex matrix-variate gamma and Dirichlet measures.

The matrix gamma draw builds a lower-triangular factor T with chi-type
diagonal entries (squared diagonals are gamma variates with shapes
alpha - j + 1) and complex Gaussian strict-lower entries, then returns
T T*. Type-1 and type-2 Dirichlet samples are congruences X_j = C W_j C*
of independent gamma draws W_j = T_j T_j*, j = 1..k+1. By a change of
variables in the densities, both kinds take C = L^{-1} for a lower-triangular
L with

    type-1:  L L* = S = W_1 + ... + W_{k+1}  (Olkin & Rubin, 1964)
    type-2:  L* L = J W_{k+1} J,  L = J T_{k+1}* J

where J reverses the order of rows and columns (J W_{k+1} J has the law of
W_{k+1}), so X_j = U_j U_j* with U_j = L^{-1} T_j by forward substitution.

At type-1 the complement I - sum X_j = L^{-1} W_{k+1} L^{-*} is positive
semidefinite by construction. Every p >= 2 runs one entrywise path on p x p
grids of arrays over the draws (the batched Cholesky, forward substitution
and Gram products of linalg) and calls no LAPACK. A grid is held only
while it is read: a sum of gamma draws is summed entry by entry from the
factors, so no W_j's grid is formed; the Cholesky lets each row of the
sum go once it has factored it; and the type-1 T_{k+1} is cut to its
pivots once S holds it, and dropped once they are checked. Wherever the
sampler factors a sum of gamma draws (S at type-1, and L L* + sum W_j in
Draws.logdet_eye_plus at either kind), a squared pivot below
EIG_FLOOR_RTOL times the largest diagonal entry of the sum is raised to
that value and counted by floor_event_count(). The type-2 L is never
factored, so nothing floors its diagonal, which is T_{k+1}'s own.

The rectangular measures are handled through the induced scalar variables
u_j (the values of the Hermitian forms), which follow ordinary Dirichlet
laws with the shifted parameters alpha_j + n_j (MeasureSpec.scalar_alphas).
So every kind at p = 1 is drawn the same way, as a ratio of scalar gammas.
A draw outside the support (a p = 1 value at 0 or inf, a layer's value
likewise, or at p >= 2 a gamma pivot that underflowed to 0) raises
SamplerError.

sample_batch returns the matrix draws in the form it built them (Draws),
and integrands ask a Draws the same questions at every p: tr(A X_j),
log det(I + sum X_j) and, for output, the packed matrices. At p >= 2 the
support check reads the pivots: every T_j,ii and L_ii, and at type-1
every pivot of T_{k+1} too, must be in (0, inf). Each answer is formed
only when an integrand asks for it; the trace reads the entries of X_j
from U_j = L^{-1} T_j one at a time, so only Draws.stack(), which packs
the (k, n, p, p) matrices for output, forms the Hermitian grids of the
X_j.

A sum of independent complex matrix gammas with one scale is itself a
matrix gamma at the summed shape (Goodman, Ann. Math. Statist. 34, 1963).
So a functional that reads only one group sum, X_1 + ... + X_k or X_1
alone, has the law it takes under a k = 1 measure at the group's summed
alpha: at type-1 the group's W_j sum to one gamma and the other
components' W_j to another, which joins W_{k+1} in S, so the closing
alpha takes in the other alphas; at type-2, X_j = C W_j C* involves only
W_j and W_{k+1}, so the other components drop out. This is the
aggregation property of the Dirichlet (Olkin & Rubin, 1964).
MeasureSpec.sums_measure gives that measure, and the Monte Carlo harness
draws it in place of the full one for a functional that reads only
X_1 + ... + X_k or only X_1.

A functional that reads only determinants needs no matrices at all. The
complex matrix gamma function is Gamma_p(a) = pi^(p(p-1)/2) prod_{i<p}
Gamma(a - i) (Goodman, 1963), and det W = prod_i |T_ii|^2 is a product of
p independent gammas at shapes a - i. So sample_layers draws p independent
p = 1 "layers" of the sums measure, layer i = 0..p-1 a scalar Dirichlet
draw of the same kind at the alphas MeasureSpec.layers gives, and sums
their logs: log det X_j = sum_i log x_ij, and the log complement is
sum_i log(1 - sum_j x_ij) = log det(I - sum X_j) at type-1 and
-sum_i log(1 + sum_j x_ij) = -log det(I + sum X_j) at type-2. For reads
"each" layer i is at (alpha_1 - i, ..., alpha_k - i, alpha_{k+1} +
(k - 1) i) at type-1 and at (alpha_1 - i, ..., alpha_{k+1} - i) at
type-2; for reads "sum", whose sums measure has k = 1 and alphas (a, b),
it is at (a, b - i) at either kind. The law is exact:

- Type-2, reads "each": det X_j = det W_j / det W_{k+1}, since |det C|^2
  = 1 / det W_{k+1}. Each determinant is a product over the Bartlett
  diagonal gammas, prod_i g_ij / g_i,k+1 with g_ij at shape alpha_j - i,
  which is draw for draw the product of the layers' x_ij.
- Every other case reads bounded values: det X_j in (0, 1) at type-1, the
  type-1 complement determinant in (0, 1], and det(I + X)^-1 in (0, 1) at
  type-2. A law on a bounded box is fixed by its integer moments
  (Hausdorff), and the closed forms give those moments. At type-1, reads
  "each", E prod_j det X_j^m_j = prod_j Gamma_p(alpha_j + m_j) /
  Gamma_p(alpha_j) Gamma_p(A) / Gamma_p(A + M), A = sum alpha,
  M = sum m. Written out, the pi heads cancel and this is prod_i of
  prod_j Gamma(alpha_j - i + m_j) / Gamma(alpha_j - i) Gamma(A - i) /
  Gamma(A - i + M), the scalar Dirichlet moment E prod_j x_ij^m_j at
  (alpha_1 - i, ..., alpha_k - i, c_i) whenever the layer's alphas sum to
  A - i, that is c_i = alpha_{k+1} + (k - 1) i; independent layers
  multiply these moments. For reads "sum", E det(I - X)^m at type-1 and
  E det(I + X)^-m at type-2 are both Gamma_p(b + m) Gamma_p(a + b) /
  (Gamma_p(b) Gamma_p(a + b + m)) = prod_i Gamma(b - i + m) Gamma(a + b -
  i) / (Gamma(b - i) Gamma(a + b - i + m)), the m-th moment of a
  Beta(b - i, a) variable, which 1 - x_i is at type-1 and 1 / (1 + x_i)
  at type-2 for layer i at (a, b - i).

Layers drawn for one reads give only those determinants: the complement
of "each" layers and the det X of "sum" layers have other laws. So
sample_layers returns only the summed log array it was drawn for. Every
layer of a chunk comes from the one substream seed.child(chunk), in layer
order. At p = 1 the one layer is the sums measure at its scalar_alphas,
drawn from the same gammas in the same order as sample_batch draws it.

A MeasureSpec checks its existence conditions when it is built
(MeasureSpec.validate): alpha_j > p - 1 at type-1 and type-2, alpha_j +
n_j > 0 and alpha_{k+1} > 0 at the rectangular kinds, every alpha finite
and their sum too. So every measure that reaches a sampler or a closed
form has a density, and none of them checks it again. The sums measures
and layers derived from a valid measure meet the same conditions: their
alphas are sums of its scalar_alphas, or those less i < p. (Only a sum
regrouped within half an ulp of double range can round past it and make
a derived measure refuse.)

Sampler correctness is not assumed: the Monte Carlo harness cross-checks
every construction against the closed-form averages.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import reduce
from typing import Optional

import numpy as np

from .errors import DomainError, SamplerError, _json_typed
from .linalg import (
    EIG_FLOOR_RTOL,
    HermitianMatrix,
    _cholesky,
    _forward,
    _gram,
    _gram_entry,
    _gram_sum,
    _log_diagonal,
    _pack,
    _sum,
)
from .rng import CounterRng, SeedSpec

logger = logging.getLogger(__name__)

KINDS = ("type1", "type2", "rect_type1_p1", "rect_type2_p1")
# the component sums an integrand can read (MeasureSpec.sums_measure)
READS = ("each", "sum", "first")

_floor_events = 0


def floor_event_count() -> int:
    """Number of squared pivots raised to the floor so far."""
    return _floor_events


@dataclass(frozen=True)
class MeasureSpec:
    """Full parameterization of a Dirichlet measure.

    kind type1/type2 are the Hermitian p x p measures; the rect_* kinds are
    the p = 1 rectangular (Hermitian form) measures described through the
    induced scalar variables u_j, with per-form sizes ns and optional
    positive definite form matrices Bs (identity when omitted; the u_j law
    does not depend on them, only the normalizing constant does).

    A MeasureSpec is valid once built: construction runs validate(), so a
    measure whose density does not exist cannot be made, and the samplers
    and closed forms take it as given. validate() stays callable, and on a
    built spec it passes.
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
        self.validate()

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

    def sums_measure(self, reads: str) -> "MeasureSpec":
        """The Dirichlet measure of the component sums an integrand reads.

        reads is one of READS: "each" X_j, which is this measure itself;
        "sum", X_1 + ... + X_k alone; "first", X_1 alone. Either of the last
        two is the k = 1 measure of one group, whose alpha is the sum of the
        group's. Components outside the group fold into the closing alpha at
        type-1 and are dropped at type-2 (see the module docstring). A
        rectangular measure becomes the p = 1 kind at its scalar_alphas.
        """
        if reads not in READS:
            raise ValueError(f"unknown reads {reads!r}; choose from {', '.join(READS)}")
        if reads == "each":
            return self
        alphas = self.scalar_alphas
        group = alphas[:-1] if reads == "sum" else alphas[:1]
        closing = alphas[-1] + (sum(alphas[len(group):-1]) if self.type1 else 0.0)
        kind = "type1" if self.type1 else "type2"
        return MeasureSpec(kind=kind, p=self.p, k=1, alphas=(sum(group), closing))

    def layers(self, reads: str) -> tuple["MeasureSpec", ...]:
        """The p independent p = 1 layers of the determinants an integrand
        reads, drawn by sample_layers (proof in the module docstring).

        The layers are those of the sums measure. reads "each" gives the
        layers of log det X_j: layer i (i = 0..p-1) at (alpha_1 - i, ...,
        alpha_k - i, alpha_{k+1} + (k - 1) i) at type-1, and at every alpha
        less i at type-2. reads "sum" gives the layers of the complement
        determinant of the k = 1 sums measure (a, b), layer i at
        (a, b - i) at either kind. The alphas are the sums measure's
        scalar_alphas and the layers of kind type1 or type2, so at p = 1
        the one layer is the sums measure itself, a rectangular one as the
        Hermitian kind at alpha_j + n_j.
        """
        drawn = self.sums_measure(reads)
        if reads not in ("each", "sum"):
            raise ValueError(f"layers take reads 'each' or 'sum', got {reads!r}")
        a, k, p = drawn.scalar_alphas, drawn.k, drawn.p
        if reads == "sum":
            rows = [(a[0], a[1] - i) for i in range(p)]
        else:
            # the closing alpha gains (k - 1) i at type-1 and loses i at type-2
            fold = k - 1 if drawn.type1 else -1
            rows = [tuple(x - i for x in a[:-1]) + (a[-1] + fold * i,) for i in range(p)]
        kind = "type1" if drawn.type1 else "type2"
        return tuple(MeasureSpec(kind=kind, p=1, k=k, alphas=row) for row in rows)

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
        bad += [f"alpha_{j} finite (got inf)"
                for j, a in enumerate(self.alphas, start=1) if a == math.inf]
        if all(map(math.isfinite, self.alphas)) and math.isinf(sum(self.scalar_alphas)):
            bad.append("sum(alphas) finite (got inf)")
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
        ns, bs = doc.get("ns"), doc.get("Bs")
        return cls(
            kind=doc["kind"],
            p=_json_typed(doc["p"], "p", "integer"),
            k=_json_typed(doc["k"], "k", "integer"),
            alphas=tuple(_json_typed(doc["alphas"], "alphas", "array", "number")),
            ns=tuple(_json_typed(ns, "ns", "array", "integer")) if ns is not None else None,
            Bs=(tuple(HermitianMatrix.from_json(b) for b in _json_typed(bs, "Bs", "array"))
                if bs is not None else None),
        )


# ---------------------------------------------------------------------------
# the sampler on grids (layout and kernels in linalg)


def _pivot(d2: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """The pivot sqrt(d2), with squared pivots below EIG_FLOOR_RTOL * scale
    raised to that value (and counted), so that one near-singular matrix
    cannot abort a long run."""
    global _floor_events
    floor = EIG_FLOOR_RTOL * scale
    low = d2 < floor
    n_low = int(np.count_nonzero(low))
    if n_low:
        _floor_events += n_low
        logger.warning("raised %d near-zero squared pivots to the floor", n_low)
        d2 = np.where(low, floor, d2)
    return np.sqrt(d2)


def _triangular_factor(rng: CounterRng, p: int, alpha: float, n: int) -> list:
    """The lower-triangular factor T of n matrix gamma draws W = T T*.

    Squared diagonal entries are gammas at shapes alpha, alpha - 1, ...,
    drawn first; the complex normals below the diagonal follow row by row.
    """
    diag = [np.sqrt(rng.gammas(alpha - i, n)) for i in range(p)]
    return [[rng.complex_normals(n) for _ in range(i)] + [diag[i]] for i in range(p)]


class Draws:
    """n matrix draws of a Dirichlet measure, in the form sample_batch built
    them.

    trace(a, j) is tr(A X_j), logdet_eye_plus(js) is log det(I + the sum of
    X_j over js) and stack() packs the matrices, with one meaning at every
    p. Each is computed when it is asked for.

    At p = 1, values holds the (k, n) values x_j. At p >= 2,
    X_j = C W_j C* with C = L^{-1} and W_j = T_j T_j*: t holds the k factor
    grids T_j and l the grid L. U_j = L^{-1} T_j is formed for trace and
    stack: trace forms each entry of X_j = U_j U_j* as it adds it, and
    stack the whole Hermitian grid of X_j. Nothing in a Draws refers back
    to it, so its arrays go as soon as the last reference to it does.
    """

    def __init__(self, values=None, t=None, l=None):
        self.values = values
        self.t = t
        self.l = l

    @property
    def n(self) -> int:
        return (self.values if self.values is not None else self.l[0][0]).shape[-1]

    def _u(self, j: int) -> list:
        """The grid of U_j = L^{-1} T_j, with X_j = U_j U_j*."""
        return _forward(self.l, self.t[j])

    def trace(self, a: np.ndarray, j: int) -> np.ndarray:
        """tr(A X_j) for a Hermitian array A: the diagonal products plus
        twice the real part of conj(A_im) X_im over the strict lower
        triangle, each entry of X_j formed from U_j when it is added and
        let go, so X_j's grid is never held."""
        if self.values is not None:
            return a[0, 0].real * self.values[j]
        u = self._u(j)
        p = len(u)
        diag = _sum(a[i, i].real * _gram_entry(u, i, i) for i in range(p))
        off = _sum(np.conj(a[i, m]) * _gram_entry(u, i, m) for i in range(p) for m in range(i))
        diag += 2 * off.real
        return diag

    def logdet_eye_plus(self, js) -> np.ndarray:
        """log det(I + the sum of X_j over js).

        I + sum X_j = C (L L* + sum W_j) C*, so this is log det(L L* + sum W_j)
        - log det L L*. That sum of gamma-sized terms factors accurately
        however large the X_j are, where I + sum X_j, formed directly, loses
        its eigenvalues near 1 to rounding once the X_j are large. At p = 1
        it is log1p of the summed values.
        """
        if self.values is not None:
            return np.log1p(reduce(np.add, [self.values[j] for j in js]))
        log = _log_diagonal(_cholesky(_gram_sum([self.l] + [self.t[j] for j in js]), _pivot))
        log -= _log_diagonal(self.l)
        log *= 2
        return log

    def stack(self) -> np.ndarray:
        """The draws as a (k, n, p, p) stack: real float64 at p = 1, else the
        packed complex Hermitian matrices."""
        if self.values is not None:
            return self.values.reshape(self.values.shape + (1, 1))
        return _pack([_gram(self._u(j)) for j in range(len(self.t))])


def sample_layers(layers: tuple, reads: str, seed: SeedSpec, n: int, chunk: int = 0) -> np.ndarray:
    """n draws of the determinants an integrand reads, from the p = 1
    layers = spec.layers(reads) of a p x p measure spec, at every p: for
    reads "each" the (k, n) array sum_i log x_ij = log det X_j, for reads
    "sum" the (n,) array of the layers' summed log complements, which is
    log det(I - X) at type-1 and -log det(I + X) at type-2. A caller that
    draws many chunks builds the layers once.

    Every layer of a chunk is drawn in order from the one substream
    seed.child(chunk), so the layers are independent of each other and the
    output is a pure function of (seed, stream, chunk, n), as in
    sample_batch. The logs are summed layer by layer, so one layer's
    gammas are held at a time. A draw outside a layer's support raises
    SamplerError naming p, the layer and its shapes.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0 (got {n})")
    rng = seed.child(chunk)
    p = len(layers)

    def logs(i: int, layer: MeasureSpec) -> np.ndarray:
        where = f"p = {p} layer {i} at shapes {layer.scalar_alphas}:"
        x, complement = _scalar_draws(rng, layer, n, where)
        if reads == "each":
            return np.log(x)
        # a "sum" layer has k = 1: its complement is the closing ratio
        # 1 - x at type-1 and 1 / (1 + x) at type-2
        if complement is not None:
            return np.log(complement)
        log = np.log1p(x[0])
        return np.negative(log, out=log)

    return _sum(logs(i, layer) for i, layer in enumerate(layers))


def _matrix_gamma_batch(rng: CounterRng, p: int, alpha: float, n: int) -> np.ndarray:
    """n draws of the p x p complex matrix gamma, as an (n, p, p) stack.

    A diagonal gamma of the factor that underflowed to 0 leaves W singular,
    outside the support, and raises SamplerError as in sample_batch.
    """
    t = _triangular_factor(rng, p, alpha, n)
    _check_support([t])
    return _pack([_gram(t)])[0]


def _scalar_draws(
    rng: CounterRng, spec: MeasureSpec, n: int, where: str = "p = 1"
) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """n draws of a p = 1 measure from rng, the scalar Dirichlet law: the
    (k, n) values x_j and, at the type-1 kinds, the complement
    1 - sum x_j as the closing ratio w_{k+1} / sum w (else None), which
    stays positive where the rounded sum of the x_j reaches 1.

    k gammas, then the closing one, each drawn into its row of one
    buffer and divided in place: by their sum at type-1, which leaves the
    complement in the last row, and by the closing gamma at type-2. where
    names the draw in a SamplerError.
    """
    k = spec.k
    w = np.empty((k + 1, n))
    for a, row in zip(spec.scalar_alphas, w):
        rng.gammas(a, n, out=row)
    with np.errstate(all="ignore"):  # _check_p1_support reports 0, inf and nan
        if spec.type1:
            np.divide(w, w.sum(axis=0), out=w)
        else:
            np.divide(w[:k], w[k], out=w[:k])
    x, complement = w[:k], (w[k] if spec.type1 else None)
    _check_p1_support(x, complement, where)
    return x, complement


def sample_batch(spec: MeasureSpec, seed: SeedSpec, n: int, chunk: int = 0) -> Draws:
    """n draws from the measure (see Draws).

    The output is a pure function of (seed, stream, chunk, n), which is
    what makes chunked Monte Carlo independent of worker scheduling.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0 (got {n})")
    rng = seed.child(chunk)
    k, p = spec.k, spec.p

    if p == 1:
        return Draws(values=_scalar_draws(rng, spec, n)[0])

    t = [_triangular_factor(rng, p, a, n) for a in spec.alphas]
    if spec.type1:
        # S = L L*, boxed so that _cholesky gets its only reference and lets
        # its rows go as it factors them; T_{k+1} is cut to its pivots once
        # S holds it
        s = [_gram_sum(t)]
        t[k] = [row[-1:] for row in t[k]]
        l = _cholesky(s.pop(), _pivot)
    else:
        # L = J T_{k+1}* J: its diagonal is T_{k+1}'s own, reversed, which
        # nothing factors, so no pivot is floored
        last = t[-1]
        l = [
            [np.conj(last[p - 1 - j][p - 1 - i]) for j in range(i)] + [last[p - 1 - i][p - 1 - i]]
            for i in range(p)
        ]
    # at type-2, L's pivots are T_{k+1}'s own; at type-1 T_{k+1}'s pivots go
    # once they are checked
    _check_support((t if spec.type1 else t[:k]) + [l])
    return Draws(t=t[:k], l=l)


def _check_p1_support(x: np.ndarray, complement: Optional[np.ndarray], where: str) -> None:
    """Raise unless every p = 1 value x_j is positive and finite and, at
    type-1, the complement is positive; where names the draw in the message.

    A gamma draw at a shape below 1 can underflow to 0, which puts x_j at
    0 or at inf. The type-1 complement 1 - sum(x) is the ratio
    closing / sum(gammas), which is 0 only when the closing gamma (next to
    the others) underflows; the rounded sum of x can reach 1 well before.
    """
    # initial=1.0 passes an empty batch (n = 0); a nan fails both. A type-1
    # x_j is a gamma over a sum that holds it, in [0, 1] or nan, so its
    # minimum decides alone.
    if not (x.min(initial=1.0) > 0 and (complement is not None or x.max(initial=1.0) < np.inf)):
        bad = ~((x > 0) & (x < np.inf)).all(axis=0)
        raise SamplerError(f"{where} value not positive and finite at sample {int(np.argmax(bad))}")
    if complement is not None and not complement.min(initial=1.0) > 0:
        first = int(np.argmax(~(complement > 0)))
        raise SamplerError(f"{where} type-1 complement 1 - sum x_j is 0 at sample {first}")


def _check_support(factors: list) -> None:
    """Raise unless every pivot of the triangular factor grids is in
    (0, inf), which is exactly when every log det X_j = 2 sum_i (log T_j,ii
    - log L_ii), and at type-1 log det(I - sum X_j), the same with T_{k+1},
    is finite; the message names the first sample where one is not.

    A diagonal entry of some T_j or of the closing T_{k+1} (at type-2 also
    L's, and in sample_matrix_gamma the factor's own) is the square root
    of a gamma draw; one that is exactly 0 underflowed, which puts the
    draw outside the support and its log at -inf.
    """
    pivots = [row[-1] for f in factors for row in f]
    # initial=1.0 passes an empty batch (n = 0); a nan fails both
    if all(d.min(initial=1.0) > 0 and d.max(initial=1.0) < np.inf for d in pivots):
        return
    ok = np.logical_and.reduce([(d > 0) & (d < np.inf) for d in pivots])
    raise SamplerError(f"gamma pivot underflowed to 0 at sample {int(np.argmin(ok))}")


# ---------------------------------------------------------------------------
# single-draw operations


def sample_matrix_gamma(p: int, alpha: float, seed: SeedSpec) -> HermitianMatrix:
    """One draw with density proportional to |det W|^(alpha-p) exp(-tr W)."""
    conditions = [(f"alpha > p - 1 (got {alpha!r}, p = {p})", alpha > p - 1),
                  ("alpha finite (got inf)", alpha != math.inf)]
    bad = [name for name, ok in conditions if not ok]
    if bad:
        raise DomainError(bad, context="matrix gamma sampler")
    return HermitianMatrix(_matrix_gamma_batch(seed.child(0), p, float(alpha), 1)[0])


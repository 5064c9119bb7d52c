"""Scalar and matrix-argument special functions.

The polynomial layer is built on integer partitions: Schur polynomials are
evaluated at eigenvalues through Jacobi-Trudi determinants in complete
homogeneous symmetric polynomials (obtained from power sums by Newton's
identities), and the zonal polynomials used throughout are Schur
polynomials scaled by the standard-Young-tableaux count of their shape.
That scaling is the unique one for which the weight-m class sums to
(tr X)^m, which is the normalization every series here relies on. The
1F1 series reads each weight's partitions from one cached table, and takes
the Schur values of partitions with p parts in p variables as e_p times
those of weight m - p (Macdonald, ch. I section 3). By the hook-content
formula (ibid., example 4), its coefficient of kappa is the Weyl dimension
s_kappa(1^p) times one factor per cell of kappa.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from functools import lru_cache, reduce
from typing import Sequence

import numpy as np

from .errors import BadSupport, BadWeights, DomainError, PochhammerPole
from .linalg import HermitianMatrix, eigvals_hermitian

LOG_PI = math.log(math.pi)


# ---------------------------------------------------------------------------
# partitions


@dataclass(frozen=True)
class Partition:
    """Non-increasing tuple of positive parts indexing a symmetric polynomial."""

    parts: tuple[int, ...]

    def __post_init__(self):
        parts = tuple(self.parts)
        if not all(x % 1 == 0 for x in parts):  # refuses 2.5, inf and nan
            raise ValueError(f"parts must be integers, got {parts}")
        parts = tuple(int(x) for x in parts if x != 0)
        if any(x < 0 for x in parts):
            raise ValueError("parts must be non-negative")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError(f"parts must be non-increasing, got {parts}")
        object.__setattr__(self, "parts", parts)

    @property
    def weight(self) -> int:
        return sum(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)


@lru_cache(maxsize=None)
def _partitions_tuple(m: int, max_len: int, max_part: int) -> tuple[tuple[int, ...], ...]:
    if m == 0:
        return ((),)
    if max_len == 0:
        return ()
    out = []
    for first in range(min(m, max_part), 0, -1):
        for rest in _partitions_tuple(m - first, max_len - 1, first):
            out.append((first, *rest))
    return tuple(out)


def partitions_of(m: int, max_len: int) -> list[Partition]:
    """All partitions of weight m with at most max_len parts.

    Ordered lexicographically decreasing: (4), (3,1), (2,2), (2,1,1), ...
    """
    if m < 0:
        raise ValueError("m must be >= 0")
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    return [Partition(p) for p in _partitions_tuple(m, max_len, m)]


def syt_count(parts: tuple[int, ...]) -> int:
    """Number of standard Young tableaux of the given shape (hook lengths).

    Exact integer arithmetic; this is the proportionality constant between
    the Schur polynomial and the zonal polynomial of the same shape.
    """
    parts = tuple(x for x in parts if x)
    m = sum(parts)
    if m == 0:
        return 1
    conj = [sum(1 for row in parts if row > j) for j in range(parts[0])]
    hooks = []
    for i, row in enumerate(parts):
        for j in range(row):
            hooks.append(row - j + conj[j] - i - 1)
    return math.factorial(m) // reduce(lambda a, b: a * b, hooks)


# ---------------------------------------------------------------------------
# classical power mean


def power_mean(w: Sequence[float], z: Sequence[float], b: float) -> float:
    """Weighted power mean [sum w_j z_j^b]^(1/b), with the b=0 geometric limit.

    With the weights normalized to sum to 1 and z_c the value that
    maximizes b log z_j, the mean is
    z_c exp(log1p(sum w_j expm1(b (log z_j - log z_c))) / b): every expm1
    argument is <= 0, so no |b| overflows, and as b -> 0 the expression
    tends to the geometric mean without a jump. Once every |b log(z_j / z_c)|
    is below 2**-53, the geometric mean is the value to double precision
    and is returned as such, so subnormal b does not lose digits. At
    b = +inf and -inf the mean is its limit, max z and min z; b = NaN
    raises DomainError.
    """
    w = np.asarray(w, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    if w.shape != z.shape or w.ndim != 1 or w.size == 0:
        raise BadWeights("weights and values must be 1-d sequences of equal length")
    if np.any(w <= 0) or not np.all(np.isfinite(w)):
        raise BadWeights("all weights must be finite and > 0")
    if abs(float(np.sum(w)) - 1.0) > 1e-12:
        raise BadWeights(f"weights must sum to 1, got {float(np.sum(w))!r}")
    if np.any(z <= 0) or not np.all(np.isfinite(z)):
        raise BadSupport("all values must be finite and > 0")
    if math.isnan(b):
        raise DomainError([f"b is a number (b = {b!r})"], context="power mean undefined")
    if math.isinf(b):
        return float(np.max(z) if b > 0 else np.min(z))
    w = w / np.sum(w)
    logz = np.log(z)
    if abs(b) * np.ptp(logz) < 2.0**-53:
        return float(np.exp(np.dot(w, logz)))
    c = int(np.argmax(logz) if b > 0 else np.argmin(logz))
    s = np.dot(w, np.expm1(b * (logz - logz[c])))
    return float(z[c] * np.exp(np.log1p(s) / b))


# ---------------------------------------------------------------------------
# complex matrix-variate gamma and generalized Pochhammer


def gamma_p_ln(p: int, alpha: complex) -> complex | float:
    """log of the complex matrix-variate gamma function of dimension p.

    Equals (p(p-1)/2) log pi plus the sum of log-gammas at alpha - j + 1
    for j = 1..p. Real input yields a real result; a log value that
    overflows raises DomainError instead of returning inf.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    if not isinstance(alpha, complex):
        alpha = float(alpha)
    if not alpha.real > p - 1:
        raise DomainError(
            [f"Re(alpha) > p - 1 (got Re(alpha) = {alpha.real!r}, p = {p})"],
            context="matrix gamma function undefined",
        )
    head = 0.5 * p * (p - 1) * LOG_PI
    if alpha.imag != 0.0:
        from scipy.special import loggamma  # only complex alpha needs scipy

        total = complex(sum(loggamma(alpha - j) for j in range(p)))
    else:
        try:
            total = sum(math.lgamma(alpha.real - j) for j in range(p))
        except OverflowError:
            total = math.inf
    if not cmath.isfinite(total):
        raise DomainError(
            [f"log Gamma_p(alpha) finite (alpha = {alpha!r}, p = {p})"],
            context="matrix gamma function overflows",
        )
    return head + total


def pochhammer_gen(a: complex, kappa) -> complex | float:
    """Generalized Pochhammer symbol: product over rows j of (a - j + 1)
    rising to the j-th part.

    Computed as a direct product, so legitimate zeros come out as exact
    zeros instead of gamma-ratio NaNs.
    """
    a = complex(a) if np.iscomplexobj(a) else float(a)
    rows = (math.prod(a - j + i for i in range(r)) for j, r in enumerate(Partition(kappa)))
    return math.prod(rows, start=a**0)  # a**0 is 1 of a's type


# ---------------------------------------------------------------------------
# Schur and zonal polynomials


def _h_table(lambdas: np.ndarray, degree: int) -> np.ndarray:
    """Complete homogeneous symmetric polynomials h_0..h_degree at lambdas,
    followed by one zero that index -1 reads for every negative degree.

    Newton's identities from power sums: k h_k = sum_{i<=k} p_i h_{k-i}.
    """
    h = np.zeros(degree + 2)
    h[0] = 1.0
    pows = np.power.outer(lambdas, np.arange(1, degree + 1)).sum(axis=0)
    for k in range(1, degree + 1):
        h[k] = np.dot(pows[:k][::-1], h[:k]) / k
    return h


def _schur_block(parts: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Schur values of an (N, ell) stack of zero-padded partitions, ell >= 1.

    Row n's Jacobi-Trudi matrix is h[parts[n, i] - i + j], in which a zero
    part is a unit row of an upper-triangular tail; one batched call.
    """
    ell = parts.shape[1]
    if ell == 1:
        return h[parts[:, 0]]
    shift = np.arange(ell)
    idx = parts[:, :, None].astype(np.intp) - shift[:, None] + shift
    return np.linalg.det(h[np.maximum(idx, -1)])


@lru_cache(maxsize=None)
def _weight_table(m: int, p: int) -> tuple[np.ndarray, np.ndarray, int]:
    """(parts, dim, n_short) for the partitions of weight m with at most p
    parts: the (N, p) zero-padded small-int parts; their Weyl dimensions
    s_kappa(1^p) = prod_{i<j} (kappa_i - kappa_j + j - i) / (j - i) as
    floats; and the number of rows with fewer than p parts. The first
    n_short rows are table (m, p - 1) with a zero appended, and row
    n_short + r is row r of table (m - p, p) plus one in every part
    (Macdonald, ch. I section 1), so rows run by increasing length. A cold
    call recurses through the smaller tables; the series asks for m in
    increasing order, so its calls recurse at most p + 1 deep."""
    if p == 0 or m < 0:
        n = int(m == 0)  # the empty partition
        return np.zeros((n, p), dtype=np.uint8), np.ones(n), 0
    short = _weight_table(m, p - 1)[0]
    # cast before adding one: a uint8 255 would wrap
    full = _weight_table(m - p, p)[0].astype(np.min_scalar_type(m)) + 1
    parts = np.concatenate((np.pad(short, ((0, 0), (0, 1))), full))
    shifted = parts - np.arange(p, dtype=float)
    i, j = np.triu_indices(p, 1)
    dim = (shifted[:, i] - shifted[:, j]).prod(axis=1) / np.prod(j - i)
    return parts, dim, len(short)


def schur_eval(kappa, lambdas: Sequence[float]) -> float:
    """Schur polynomial s_kappa at the given (real) eigenvalues.

    Returns 0 when kappa has more nonzero parts than variables. Uses the
    Jacobi-Trudi determinant, which stays well conditioned at coincident
    eigenvalues where the bialternant ratio degenerates.
    """
    parts = Partition(kappa).parts
    lam = np.asarray(lambdas, dtype=np.float64)
    if len(parts) > lam.size:
        return 0.0
    if len(parts) == 0:
        return 1.0
    h = _h_table(lam, parts[0] + len(parts) - 1)
    return float(_schur_block(np.array([parts]), h)[0])


def zonal_from_eigs(kappa, lambdas: Sequence[float]) -> float:
    """Zonal polynomial value from eigenvalues: SYT count times Schur value."""
    parts = Partition(kappa).parts
    return syt_count(parts) * schur_eval(parts, lambdas)


def zonal_c(kappa, x: HermitianMatrix) -> float:
    """Zonal polynomial of a Hermitian matrix argument.

    Normalized so that the weight-m polynomials sum to (tr X)^m; depends on
    X only through its eigenvalues, hence is unitarily invariant.
    """
    return zonal_from_eigs(kappa, eigvals_hermitian(x))


# ---------------------------------------------------------------------------
# confluent hypergeometric function of matrix argument


# Stopping rule of the partition-weight series: it stops once
# CONSECUTIVE_ORDERS successive order increments each fall below REL_STOP
# times the running partial sum.
REL_STOP = 1e-12
CONSECUTIVE_ORDERS = 3


@dataclass(frozen=True)
class TruncationPolicy:
    """Budget of partition-weight series: max_order caps the partition weight."""

    max_order: int = 25

    def __post_init__(self):
        if self.max_order < 0:
            raise ValueError("max_order must be >= 0")


DEFAULT_TRUNCATION = TruncationPolicy()


@dataclass(frozen=True)
class Hyp1F1Result:
    value: float
    order_reached: int
    last_increment: float
    converged: bool


def hyp1f1_matrix(
    a: complex,
    c: complex,
    x: HermitianMatrix | Sequence[float],
    policy: TruncationPolicy = DEFAULT_TRUNCATION,
) -> Hyp1F1Result:
    """Confluent hypergeometric function of Hermitian matrix argument.

    Partial sum over partition weights m <= policy.max_order of
    [a]_M / [c]_M * C_M(X) / m!, with C_M the zonal polynomial. The matrix
    may be passed directly or as a sequence of eigenvalues. A vanishing
    denominator symbol [c]_M raises PochhammerPole, and a partial sum
    beyond double range DomainError. converged=True means the stopping
    rule (REL_STOP, CONSECUTIVE_ORDERS) was met within max_order and the
    rounding error of the summed order terms, 2**-52 times the sum of their
    magnitudes, is within REL_STOP of the value; anything else is reported
    via converged=False, not an error.

    When no eigenvalue is positive and one is negative, the Kummer relation
    1F1(a; c; X) = etr(X) 1F1(c - a; c; -X) (Herz 1955) is summed instead:
    the series at X alternates and loses digits while still meeting the
    stopping rule. Mixed-sign spectra are summed as given.
    """
    if isinstance(x, HermitianMatrix):
        lam = eigvals_hermitian(x)
    else:
        lam = np.asarray(x, dtype=np.float64)
        if lam.ndim != 1:
            raise ValueError("eigenvalues must be 1-d; pass a matrix as a HermitianMatrix")
    if lam.size and lam.max() <= 0.0 and lam.min() < 0.0:
        res = _hyp1f1_series(c - a, c, -lam, policy)
        scale = math.exp(float(lam.sum()))
        return replace(res, value=scale * res.value, last_increment=scale * res.last_increment)
    return _hyp1f1_series(a, c, lam, policy)


def _hyp1f1_series(
    a: complex, c: complex, lam: np.ndarray, policy: TruncationPolicy
) -> Hyp1F1Result:
    """The zonal series of hyp1f1_matrix, one batched step per weight m.

    The term of kappa is its Weyl dimension times s_kappa(lambda / scale)
    times the product over its cells of (a + q) scale / ((c + q) (p + q)),
    q = column - row the cell's content and scale = max |lambda_i|, so no
    factor overflows alone; cell[j, k] is that product over the first k
    cells of row j. Rows with fewer than p parts take one batched
    Jacobi-Trudi determinant of width p - 1: zero parts only add a unit
    upper-triangular tail. Rows with p parts take s_kappa = e_p
    s_{kappa - (1^p)}, e_p the product of lambda / scale (Macdonald,
    ch. I section 3), from the Schur values of order m - p, row for row.
    """
    p = lam.size
    scale = float(np.abs(lam).max(initial=0.0)) or 1.0
    lam = lam / scale
    e_p = float(np.prod(lam))
    h = _h_table(lam, policy.max_order + p) if p > 1 else None  # p = 1 rows are all full
    rows = np.arange(p)
    # [c]_kappa vanishes only at an integer c < p, first at the one partition
    # (1 - c) for c <= 0 and (1^(c + 1)) for c >= 1; no cell past it is read
    pole = ()
    if p and c.imag == 0 and float(c.real).is_integer() and c.real < p:
        n = int(c.real)
        pole = (1 - n,) if n <= 0 else (1,) * (n + 1)
    schur = [np.ones(1)]  # schur[m]: Schur values of table m; m = 0 is s_() = 1
    total = 1.0 + 0.0j  # m = 0 term
    abs_sum = 1.0  # sum of |term_m|, which bounds the rounding error of total
    streak = 0
    order_reached = 0
    last_inc = 0.0
    converged = False
    # cells past a pole or beyond double range may be inf or nan; none is returned
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        j, t = rows[:, None], np.arange(policy.max_order)
        factors = (a - j + t) * scale / ((c - j + t) * (p - j + t))
        cell = np.ones((p, policy.max_order + 1), dtype=factors.dtype)
        np.cumprod(factors, axis=1, out=cell[:, 1:])
        for m in range(1, policy.max_order + 1):
            if m == sum(pole):
                raise PochhammerPole(f"denominator symbol vanishes at partition {pole} "
                                     f"for c = {c!r}")
            parts, dim, n_short = _weight_table(m, p)
            s = e_p * schur[m - p] if len(parts) > n_short else np.empty(0)
            if n_short:
                s = np.concatenate((_schur_block(parts[:n_short, : p - 1], h), s))
            schur.append(s)
            term = np.dot(cell[rows, parts].prod(axis=1) * dim, s)
            total += term
            order_reached = m
            last_inc = float(abs(term))
            abs_sum += last_inc
            if not abs_sum < math.inf:
                raise DomainError([f"1F1 value finite (order {m})"], context="1F1 overflows")
            if last_inc < REL_STOP * abs(total):
                streak += 1
                if streak >= CONSECUTIVE_ORDERS:
                    # cancelled digits cannot come back at higher orders
                    converged = bool(2.0**-52 * abs_sum <= REL_STOP * abs(total))
                    break
            else:
                streak = 0

    total = complex(total)
    value = total.real if abs(total.imag) <= 1e-12 * max(1.0, abs(total.real)) else total
    return Hyp1F1Result(
        value=value,
        order_reached=order_reached,
        last_increment=last_inc,
        converged=converged,
    )

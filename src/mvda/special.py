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
those of weight m - p (Macdonald, ch. I section 3).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
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
        parts = tuple(int(x) for x in self.parts if x != 0)
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


def _as_parts(kappa) -> tuple[int, ...]:
    if isinstance(kappa, Partition):
        return kappa.parts
    return Partition(tuple(kappa)).parts


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


def _pochhammer_table(a: complex, rows: int, order: int) -> np.ndarray:
    """t[j, r] = prod_{i<r} (a - j + i), so [a]_kappa is the product of
    t[j, kappa_j] over the rows j of kappa."""
    t = np.ones((rows, order + 1), dtype=np.result_type(a, float))
    base = a - np.arange(rows)[:, None] + np.arange(order)
    np.cumprod(base, axis=1, out=t[:, 1:])
    return t


def pochhammer_gen(a: complex, kappa) -> complex | float:
    """Generalized Pochhammer symbol: product over rows j of (a - j + 1)
    rising to the j-th part.

    Computed as a direct product, so legitimate zeros come out as exact
    zeros instead of gamma-ratio NaNs.
    """
    parts = _as_parts(kappa)
    t = _pochhammer_table(a, len(parts), max(parts, default=0))
    return t[np.arange(len(parts)), np.array(parts, dtype=int)].prod().item()


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
def _weight_table(m: int, p: int) -> tuple[np.ndarray, np.ndarray, int, np.ndarray]:
    """(parts, syt, n_short, lower) for the partitions of weight m with at
    most p parts: the (N, p) zero-padded small-int parts, those with fewer
    than p parts first, each group lexicographically decreasing; their SYT
    counts as floats; the number of rows with fewer than p parts; and for
    each later row kappa the int32 row of kappa - (1^p) in table m - p."""
    kappas = sorted(_partitions_tuple(m, p, m), key=lambda k: len(k) == p)
    parts = np.zeros((len(kappas), p), dtype=np.min_scalar_type(m))
    for row, kappa in zip(parts, kappas):
        row[: len(kappa)] = kappa
    n_short = sum(len(k) < p for k in kappas)
    below = {}
    if n_short < len(kappas):
        below = {tuple(r): i for i, r in enumerate(_weight_table(m - p, p)[0].tolist())}
    lower = [below[tuple(x - 1 for x in k)] for k in kappas[n_short:]]
    syt = np.array([float(syt_count(k)) for k in kappas])
    return parts, syt, n_short, np.array(lower, dtype=np.int32)


def schur_eval(kappa, lambdas: Sequence[float]) -> float:
    """Schur polynomial s_kappa at the given (real) eigenvalues.

    Returns 0 when kappa has more nonzero parts than variables. Uses the
    Jacobi-Trudi determinant, which stays well conditioned at coincident
    eigenvalues where the bialternant ratio degenerates.
    """
    parts = _as_parts(kappa)
    lam = np.asarray(lambdas, dtype=np.float64)
    if len(parts) > lam.size:
        return 0.0
    if len(parts) == 0:
        return 1.0
    h = _h_table(lam, parts[0] + len(parts) - 1)
    return float(_schur_block(np.array([parts]), h)[0])


def zonal_from_eigs(kappa, lambdas: Sequence[float]) -> float:
    """Zonal polynomial value from eigenvalues: SYT count times Schur value."""
    parts = _as_parts(kappa)
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


def _first_pole(parts: np.ndarray, den: np.ndarray) -> tuple[int, ...]:
    """The lexicographically first row of a weight table whose denominator
    symbol den vanishes."""
    return max(tuple(int(v) for v in row if v) for row in parts[den == 0])


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
    denominator symbol [c]_M raises PochhammerPole. converged=True means
    the stopping rule (REL_STOP, CONSECUTIVE_ORDERS) was met within
    max_order and the rounding error of the summed order terms, 2**-52
    times the sum of their magnitudes, is within REL_STOP of the value;
    anything else is reported via converged=False, not an error.

    When no eigenvalue is positive and one is negative, the Kummer relation
    1F1(a; c; X) = etr(X) 1F1(c - a; c; -X) (Herz 1955) is summed instead:
    the series at X alternates and loses digits while still meeting the
    stopping rule. Mixed-sign spectra are summed as given.
    """
    if isinstance(x, HermitianMatrix):
        lam = eigvals_hermitian(x)
    else:
        lam = np.asarray(x, dtype=np.float64)
    if lam.size and lam.max() <= 0.0 and lam.min() < 0.0:
        res = _hyp1f1_series(c - a, c, -lam, policy)
        scale = math.exp(float(lam.sum()))
        return Hyp1F1Result(
            value=scale * res.value,
            order_reached=res.order_reached,
            last_increment=scale * res.last_increment,
            converged=res.converged,
        )
    return _hyp1f1_series(a, c, lam, policy)


def _hyp1f1_series(
    a: complex, c: complex, lam: np.ndarray, policy: TruncationPolicy
) -> Hyp1F1Result:
    """The zonal series of hyp1f1_matrix, one batched step per weight m.

    Each order gathers both Pochhammer tables once over its _weight_table
    (a zero part reads t[j, 0] = 1). Rows with fewer than p parts take one
    batched Jacobi-Trudi determinant of width p - 1: zero parts only add a
    unit upper-triangular tail. Rows with p parts take
    s_kappa = e_p s_{kappa - (1^p)}, e_p the product of the eigenvalues
    (Macdonald, ch. I section 3), from the Schur values of order m - p.
    """
    p = lam.size
    e_p = float(np.prod(lam))
    h = _h_table(lam, policy.max_order + p) if p > 1 else None  # p = 1 rows are all full
    num_t = _pochhammer_table(a, p, policy.max_order)
    den_t = _pochhammer_table(c, p, policy.max_order)
    rows = np.arange(p)
    schur = [np.ones(1)]  # schur[m]: Schur values of table m; m = 0 is s_() = 1
    total = 1.0 + 0.0j  # m = 0 term
    abs_sum = 1.0  # sum of |term_m|, which bounds the rounding error of total
    inv_mfact = 1.0
    streak = 0
    order_reached = 0
    last_inc = 0.0
    converged = False
    for m in range(1, policy.max_order + 1):
        inv_mfact /= m
        parts, syt, n_short, lower = _weight_table(m, p)
        den = den_t[rows, parts].prod(axis=1)
        if not den.all():
            pole = _first_pole(parts, den)
            raise PochhammerPole(f"denominator symbol vanishes at partition {pole} for c = {c!r}")
        num = num_t[rows, parts].prod(axis=1)
        s = e_p * schur[m - p][lower] if lower.size else np.empty(0)
        if n_short:
            s = np.concatenate((_schur_block(parts[:n_short, : p - 1], h), s))
        schur.append(s)
        term = np.dot(num / den, syt * s) * inv_mfact
        total += term
        order_reached = m
        last_inc = float(abs(term))
        abs_sum += last_inc
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

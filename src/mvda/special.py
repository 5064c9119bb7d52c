"""Scalar and matrix-argument special functions.

The polynomial layer is built on integer partitions: schur_eval takes a
Schur polynomial at eigenvalues by the branching rule over horizontal
strips, and the zonal polynomials used throughout are Schur polynomials
scaled by the standard-Young-tableaux count of their shape. That scaling
is the unique one for which the weight-m class sums to (tr X)^m, which is
the normalization every series here relies on. The 1F1 series reads each
weight's gather indices from one cached table. Over complete homogeneous
symmetric polynomials (from power sums by Newton's identities), it takes
the Schur values of partitions with fewer than p parts from the cofactor
expansion of their Jacobi-Trudi determinants along the last column, over
Schur values of lower weight that it already holds, and those of
partitions with p parts in p variables as e_p times those of weight m - p
(Macdonald, ch. I section 3). By the hook-content formula (ibid.,
example 4), its coefficient of kappa is the Weyl dimension s_kappa(1^p)
times one factor per cell of kappa.
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
    """Complete homogeneous symmetric polynomials h_0..h_degree at lambdas.

    Newton's identities from power sums: k h_k = sum_{i<=k} p_i h_{k-i}.
    """
    h = np.zeros(degree + 1)
    h[0] = 1.0
    pows = np.power.outer(lambdas, np.arange(1, degree + 1)).sum(axis=0)
    for k in range(1, degree + 1):
        h[k] = np.dot(pows[:k][::-1], h[:k]) / k
    return h


def _narrow(index: np.ndarray) -> np.ndarray:
    """index in the smallest unsigned type that holds its largest entry."""
    return index.astype(np.min_scalar_type(index.max(initial=0)))


@lru_cache(maxsize=None)
def _partition_cells(m: int, p: int) -> np.ndarray:
    """cells[r, j] = kappa_j p + j for the partitions kappa of weight m with
    at most p parts, so row r's parts are cells[r] // p.

    The n_short rows with fewer than p parts come first: they are table
    (m, p - 1) with a zero appended, and row n_short + r is row r of table
    (m - p, p) plus one in every part (Macdonald, ch. I section 1). A cold call
    recurses through the smaller tables; the series asks for m in
    increasing order, so its calls recurse at most p + 1 deep. The index
    is built in intp and then narrowed, so no small type wraps."""
    if p == 0 or m < 0:
        return np.zeros((int(m == 0), p), dtype=np.uint8)  # the empty partition
    short = _partition_cells(m, p - 1)
    full = _partition_cells(m - p, p)
    parts = np.zeros((len(short) + len(full), p), dtype=np.intp)
    parts[:len(short), :-1] = short // max(p - 1, 1)  # table (m, 0) has no columns
    parts[len(short):] = full.astype(np.intp) // p + 1
    return _narrow(parts * p + np.arange(p))


@lru_cache(maxsize=None)
def _partition_counts(n: int, p: int) -> tuple[np.ndarray, np.ndarray]:
    """(counts, offsets): counts[w, q], w <= n and q <= p, is the number of
    partitions of w with at most q parts, the length of table (w, q), and
    offsets[w] = counts[0, p] + ... + counts[w - 1, p]. counts[w, q] is the
    sum over t >= 0 of counts[w - t q, q - 1], since table (w, q) is table
    (w, q - 1) followed by table (w - q, q)."""
    counts = np.zeros((n + 1, p + 1), dtype=np.int64)
    counts[0] = 1
    for q in range(1, p + 1):
        for r in range(q):
            np.cumsum(counts[r::q, q - 1], out=counts[r::q, q])
    return counts, np.concatenate(([0], np.cumsum(counts[:-1, p])))


def _flat_positions(nu: np.ndarray, p: int) -> np.ndarray:
    """Position of each partition nu[:, r, n], its q <= p parts along the
    first axis, zero-padded, among the partitions of every weight with at
    most p parts in table order: tables (0, p), (1, p), ... one after
    another. Its row in table (w, p) is its row in table (w, q), which is,
    by the recursion of _partition_cells, the sum over t = 1..q of
    counts[w_t, t] - counts[w_{t-1}, t], where
    w_t = nu_1 + ... + nu_t - t nu_{t+1} is the weight left once the parts
    past t are gone, w_0 = 0 and w_q = w."""
    q = len(nu)
    t = np.arange(1, q + 1)[:, None, None]
    weight = nu.sum(axis=0)
    # counts up to a power of two, so few arrays are cached
    counts, offsets = _partition_counts(1 << int(weight.max(initial=0)).bit_length(), p)
    left = nu.cumsum(axis=0)
    left[:-1] -= t[:-1] * nu[1:]
    below = np.zeros_like(left)
    below[1:] = left[:-1]
    # flat indices of counts[left, t] and counts[below, t]
    left *= p + 1
    left += t
    below *= p + 1
    below += t
    return offsets[weight] + counts.take(left).sum(axis=0) - counts.take(below).sum(axis=0)


def _cofactor_indices(short: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """(h_index, s_index) of _weight_table for the (n_short, p - 1)
    zero-padded parts of its short rows."""
    parts = short.T
    ell = np.count_nonzero(parts, axis=0)
    r = np.arange(1, p)[:, None]
    live = r <= ell
    h_index = np.where(live, 1 + 2 * (parts - r + ell) + (r + ell) % 2, 0)
    # nu[i, r - 1]: part i + 1 of nu(r), i < p - 2; nu(r) has at most
    # p - 2 parts
    lowered = np.maximum(parts[1:] - 1, 0)[:, None]
    nu = np.where(np.arange(1, p - 1)[:, None, None] < r, parts[:-1, None], lowered)
    s_index = np.where(live, _flat_positions(nu, p - 1), 0)
    return _narrow(h_index), _narrow(s_index)


@lru_cache(maxsize=None)
def _weight_table(
    m: int, p: int
) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray], np.ndarray, int]:
    """(cells, (h_index, s_index), dim, n_short) for the partitions kappa
    of weight m with at most p parts, in the row order of
    _partition_cells; nothing in it depends on the eigenvalues.

    cells[r, j] = kappa_j p + j is the flat index of cell[kappa_j, j] in
    the series' (max_order + 1, p) cell table. dim holds the Weyl
    dimensions s_kappa(1^p) = prod_{i<j} (kappa_i - kappa_j + j - i) / (j - i).

    The first n_short rows have ell < p parts, and their Jacobi-Trudi
    determinant expands along its last column (Macdonald, ch. I (3.4)):
    s_kappa = sum_{r <= ell} (-1)^(r + ell) h_{kappa_r - r + ell} s_nu(r),
    nu(r) = (kappa_1, ..., kappa_{r-1}, kappa_{r+1} - 1, ..., kappa_ell - 1)
    of weight m - kappa_r - (ell - r) < m. Row r - 1 of the (p - 1,
    n_short) h_index holds 1 + 2 k + (sign < 0) at degree
    k = kappa_r - r + ell, the position of h_k, or of -h_k, in the series'
    interleaved [0, h_0, -h_0, h_1, -h_1, ...]; s_index holds the position
    of nu(r) among the short rows of tables (0, p), (1, p), ... one after
    another, which are tables (0, p - 1), (1, p - 1), ... (_flat_positions).
    Rows r > ell hold 0 in both, which reads 0 times s_() = 1. Both are narrowed like cells. Up to
    order 40 at p = 1..6 the two take 0.37 MB."""
    cells = _partition_cells(m, p)
    if p == 0:  # an empty spectrum: only the empty partition, of weight 0
        empty = np.zeros((0, 0), dtype=np.uint8)
        return cells, (empty, empty), np.ones(len(cells)), 0
    parts = cells.astype(np.intp) // p
    n_short = len(_partition_cells(m, p - 1))
    shifted = parts.T - np.arange(p, dtype=float)[:, None]
    i, j = np.triu_indices(p, 1)
    dim = (shifted[i] - shifted[j]).prod(axis=0) / np.prod(j - i)
    return cells, _cofactor_indices(parts[:n_short, :-1], p), dim, n_short


def schur_eval(kappa, lambdas: Sequence[float]) -> float:
    """Schur polynomial s_kappa at the given (real) eigenvalues.

    Returns 0 when kappa has more nonzero parts than variables. Uses the
    branching rule over horizontal strips (Koev & Edelman, Math. Comp. 75,
    2006), a sum of products with no cancellation of its own: its error
    relative to s_kappa(|lambda|) is a few ulps, also at widely spread or
    coincident eigenvalues. It runs at lambda / scale, scale = max
    |lambda_i|, and scales back one factor per cell, so no power of an
    eigenvalue overflows; a value itself beyond double range raises
    DomainError.
    """
    parts = Partition(kappa).parts
    lam = np.asarray(lambdas, dtype=np.float64)
    if lam.ndim != 1:
        raise ValueError("eigenvalues must be 1-d; pass a matrix to zonal_c")
    if len(parts) > lam.size:
        return 0.0
    if len(parts) == 0:
        return 1.0
    scale = float(np.abs(lam).max()) or 1.0
    value = _branching(parts, lam / scale)
    for _ in range(sum(parts)):
        value *= scale
    if not math.isfinite(value):
        raise DomainError([f"Schur value finite (partition {parts})"],
                          context="Schur value overflows")
    return value


# entries of the largest array _branching forms
_BRANCHING_LIMIT = 1 << 22


def _branching(parts: tuple[int, ...], x: np.ndarray) -> float:
    """s_kappa(x_1..x_n) for a partition kappa with 1 <= len(kappa) <= n, by
    s_mu(x_1..x_t) = sum_nu s_nu(x_1..x_{t-1}) x_t^(|mu| - |nu|) over the nu
    with mu_{i+1} <= nu_i <= mu_i.

    After variable t only the mu with kappa_{i+n-t} <= mu_i <= kappa_i and
    at most t parts can still reach kappa, so s holds one entry per such mu,
    an axis per part: axis i runs over the interval old[i] before the step
    and new[i] after it. The step sums out the nu_i one axis at a time, the
    last first: each sum is a product with a slice of the Toeplitz matrix
    x_t^(m - j), j <= m, after zeroing the nu_i below mu_{i+1}.
    """
    ell, n = len(parts), len(x)
    if (parts[0] + 1) ** 2 > _BRANCHING_LIMIT:
        raise ValueError(f"partition {parts} too large for the branching rule")
    pad = parts + (0,) * n
    cols = np.arange(parts[0] + 1)
    diff = cols[:, None] - cols
    at_least = diff >= 0
    power_index = np.maximum(diff, -1)  # -1 reads the 0 appended below
    s = np.ones(1)
    old = [(0, 0)] * ell
    for t, xt in enumerate(x, start=1):
        new = [(pad[i + n - t], parts[i]) for i in range(min(t, ell))]
        if math.prod(hi - lo + 1 for lo, hi in new) > _BRANCHING_LIMIT:
            raise ValueError(f"partition {parts} too large for the branching rule")
        step = np.append(xt ** cols, 0.0)[power_index]
        s = s.reshape([hi - lo + 1 for lo, hi in old[:len(new)]])
        for i in reversed(range(len(new))):
            (old_lo, old_hi), (lo, hi) = old[i], new[i]
            if i + 1 < len(new):
                next_lo, next_hi = new[i + 1]
                keep = at_least[old_lo:old_hi + 1, next_lo:next_hi + 1]
                s = s * keep.reshape(keep.shape + (1,) * (len(new) - i - 2))
            shape = s.shape
            s = np.matmul(step[lo:hi + 1, old_lo:old_hi + 1],
                          s.reshape(math.prod(shape[:i]), shape[i], -1))
            s = s.reshape(shape[:i] + (hi - lo + 1,) + shape[i + 1:])
        old = new + old[len(new):]
    return float(s.reshape(-1)[0])


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
    may be passed directly or as a sequence of eigenvalues. A non-finite
    a, c or eigenvalue raises DomainError naming it, a vanishing
    denominator symbol [c]_M PochhammerPole, and a partial sum beyond
    double range DomainError. converged=True means the stopping
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
    bad = [f"{name} finite (got {v!r})"
           for name, v in (("a", a), ("c", c)) if not cmath.isfinite(v)]
    bad += [f"eigenvalue {i + 1} finite (got {v!r})"
            for i, v in enumerate(lam.tolist()) if not math.isfinite(v)]
    if bad:
        raise DomainError(bad, context="1F1 undefined")
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
    factor overflows alone; cell[k, j] is that product over the first k
    cells of row j. Every index an order needs comes from its cached
    _weight_table. The Schur values of the short rows, those with fewer
    than p parts, of every order so far sit in one flat np.longdouble
    array, table after table, grown by doubling. A short row expands its
    Jacobi-Trudi determinant along the last column over Schur values of
    lower weight that this array holds: one einsum of p - 1 signed h,
    taken from the interleaved [0, h_0, -h_0, h_1, -h_1, ...], times p - 1
    of those values (columns past the partition's length read 0). Rows
    with p parts take s_kappa = e_p s_{kappa - (1^p)}, e_p the product of
    lambda / scale (Macdonald, ch. I section 3), in doubles from the Schur
    values of order m - p, row for row. One take, one multiply and one dot
    over the order's values in doubles then give its term.

    The terms of an expansion cancel, and every later order reads its
    value again, so rounding errors compound from weight to weight: at
    lambda = (-2.77, 1.38, -2.34, -0.24, -4.43, -4.81), up to weight 30,
    the worst error relative to s_kappa(|lambda|) is 7e-6 in doubles,
    against 1e-9 in np.longdouble (a 64-bit significand on x86) and 3e-11
    from an LU determinant of each Jacobi-Trudi matrix. Where longdouble
    is double, the values lose those digits. At p <= 2 the expansion is
    the single exact term h_m s_() = h_m, so every value there is the
    double the Jacobi-Trudi determinant gives.
    """
    p = lam.size
    scale = float(np.abs(lam).max(initial=0.0)) or 1.0
    lam = lam / scale
    e_p = float(np.prod(lam))
    # p = 1 rows are all full
    if p > 1:
        h = _h_table(lam, policy.max_order)
        hh = np.zeros(2 * h.size + 1, dtype=np.longdouble)
        hh[1::2] = h
        hh[2::2] = -h
    # [c]_kappa vanishes only at an integer c < p, first at the one partition
    # (1 - c) for c <= 0 and (1^(c + 1)) for c >= 1; no cell past it is read
    pole = ()
    if p and c.imag == 0 and float(c.real).is_integer() and c.real < p:
        n = int(c.real)
        pole = (1 - n,) if n <= 0 else (1,) * (n + 1)
    schur = [np.ones(1)]  # schur[m]: Schur values of table m; m = 0 is s_() = 1
    # the short rows' Schur values of every order so far, table after table;
    # ext[0] is s_() and ext[:ext_end] is filled
    ext, ext_end = np.ones(64, dtype=np.longdouble), 1
    total = 1.0 + 0.0j  # m = 0 term
    abs_sum = 1.0  # sum of |term_m|, which bounds the rounding error of total
    streak = 0
    order_reached = 0
    last_inc = 0.0
    converged = False
    # cells past a pole or beyond double range may be inf or nan; none is returned
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        j, t = np.arange(p), np.arange(policy.max_order)[:, None]
        factors = (a - j + t) * scale / ((c - j + t) * (p - j + t))
        cell = np.ones((policy.max_order + 1, p), dtype=factors.dtype)
        np.cumprod(factors, axis=0, out=cell[1:])
        for m in range(1, policy.max_order + 1):
            if m == sum(pole):
                raise PochhammerPole(f"denominator symbol vanishes at partition {pole} "
                                     f"for c = {c!r}")
            cells, (h_index, s_index), dim, n_short = _weight_table(m, p)
            s = np.empty(len(cells))
            if len(cells) > n_short:
                np.multiply(e_p, schur[m - p], out=s[n_short:])
            if n_short:
                lo, ext_end = ext_end, ext_end + n_short
                if ext_end > ext.size:
                    grown = np.empty(max(2 * ext.size, ext_end), dtype=np.longdouble)
                    grown[:lo] = ext[:lo]
                    ext = grown
                short = ext[lo:ext_end]
                np.einsum("ij,ij->j", hh.take(h_index), ext.take(s_index), out=short)
                s[:n_short] = short
            schur.append(s)
            term = np.dot(cell.take(cells).prod(axis=1) * dim, s)
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

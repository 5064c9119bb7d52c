"""Scalar and matrix-argument special functions.

The polynomial layer is built on integer partitions: schur_eval takes a
Schur polynomial at eigenvalues by the branching rule over horizontal
strips, and the zonal polynomials used throughout are Schur polynomials
scaled by the standard-Young-tableaux count of their shape. That scaling
is the unique one for which the weight-m class sums to (tr X)^m, which is
the normalization every series here relies on. schur_eval, zonal_c and
hyp1f1_matrix each take a HermitianMatrix or its 1-d eigenvalues, read in
one place (_eigenvalues). The 1F1 series at p >= 2 reads its gather
indices from cached tables, one per block of orders. Over
complete homogeneous symmetric polynomials (the coefficients of
prod_i 1 / (1 - lambda_i t), one convolution per eigenvalue), it takes
the Schur values of partitions with fewer than p parts from the cofactor
expansion of their Jacobi-Trudi determinants along the last column, over
Schur values of lower weight that it already holds, and those of
partitions with p parts in p variables as e_p times those of weight m - p
(Macdonald, ch. I section 3). By the hook-content formula (ibid.,
example 4), its coefficient of kappa is the Weyl dimension s_kappa(1^p)
times one factor per cell of kappa, gathered once per block of orders.
At p = 1 every partition is one row, and the series is the scalar Kummer
recurrence of its terms, summed in Python numbers with its sums rescaled
by powers of two. At every p, etr(X) of the Kummer branch is applied to
the finished sum in one step (_hyp1f1_result), so a factor below double
range still scales a sum in range, and at p = 1 a sum beyond double range
is brought back into it. That step alone decides converged.
"""

from __future__ import annotations

import cmath
import math
import sys
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
        parts = tuple(self.parts)
        if not all(x % 1 == 0 for x in parts):  # refuses 2.5, inf and nan
            raise ValueError(f"parts must be integers, got {parts}")
        parts = tuple(int(x) for x in parts)
        if any(x < 0 for x in parts):
            raise ValueError("parts must be non-negative")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):  # zeros only trail
            raise ValueError(f"parts must be non-increasing, got {parts}")
        object.__setattr__(self, "parts", tuple(x for x in parts if x != 0))

    @property
    def weight(self) -> int:
        return sum(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)


def partitions_of(m: int, max_len: int) -> list[Partition]:
    """All partitions of weight m with at most max_len parts.

    Ordered lexicographically decreasing: (4), (3,1), (2,2), (2,1,1), ...
    They are the columns of _partition_cells(m, max_len), sorted; the tables
    of lower weight are built first, in increasing order, so no call
    recurses more than max_len + 1 deep.
    """
    if m < 0:
        raise ValueError("m must be >= 0")
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    max_len = min(max_len, max(m, 1))  # no partition of m has more than m parts
    for w in range(m):
        _partition_cells(w, max_len)
    parts = _partition_cells(m, max_len).astype(np.intp) // max_len
    order = np.lexsort(-parts[::-1])  # the first part is the primary key
    return [Partition(col) for col in parts[:, order].T.tolist()]


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

    They are the first degree + 1 coefficients of the generating function
    prod_i 1 / (1 - lambda_i t) (Macdonald, ch. I (2.5)): one np.convolve
    per eigenvalue of the geometric sequence [lambda_i^k]_k, each product
    cut to degree + 1 terms. Every coefficient is a sum of products of
    powers, so its error relative to h_k(|lambda|) is an ulp or so. At
    degree 40 a table takes 11 us at p = 2 and 21 us at p = 6 (2-core
    Xeon), against 61 and 67 us for Newton's identities from power sums.
    """
    # pow is several times slower at a negative base: odd powers take the sign
    powers = np.power.outer(np.abs(lambdas), np.arange(degree + 1.0))
    powers[:, 1::2] *= np.sign(lambdas)[:, None]
    h = np.zeros(degree + 1)
    h[0] = 1.0
    for row in powers:
        h = np.convolve(h, row)[:degree + 1]
    return h


def _narrow(index: np.ndarray) -> np.ndarray:
    """index in the smallest unsigned type that holds its largest entry."""
    return index.astype(np.min_scalar_type(index.max(initial=0)))


@lru_cache(maxsize=None)
def _partition_cells(m: int, p: int) -> np.ndarray:
    """cells[j, r] = kappa_j p + j for the partitions kappa of weight m with
    at most p parts, kappa the r-th, so column r's parts are cells[:, r] // p.

    This (p, partitions) layout is the one the series gathers in: cells[j, r]
    is the flat index of cell[kappa_j, j] in its (max_order + 1, p) cell
    table, so a take and a product over the first axis give the cell
    products. The n_short columns with fewer than p parts come first: they
    are table (m, p - 1) with a zero appended, and column n_short + r is
    column r of table (m - p, p) plus one in every part (Macdonald, ch. I
    section 1). A cold call recurses through the smaller tables; the series
    asks for m in increasing order, so its calls recurse at most p + 1
    deep. The index is built in intp and then narrowed, so no small type
    wraps."""
    if p == 0 or m < 0:
        return np.zeros((p, int(m == 0)), dtype=np.uint8)  # the empty partition
    short = _partition_cells(m, p - 1)
    full = _partition_cells(m - p, p)
    n_short = short.shape[1]
    parts = np.zeros((p, n_short + full.shape[1]), dtype=np.intp)
    parts[:-1, :n_short] = short // max(p - 1, 1)  # table (m, 0) has no rows
    parts[:, n_short:] = full.astype(np.intp) // p + 1
    return _narrow(parts * p + np.arange(p)[:, None])


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


def _cofactor_indices(parts: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """(h_index, s_index) of one order of _order_block for the (p - 1,
    n_short) zero-padded parts of its short rows."""
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


def _eigenvalues(x: HermitianMatrix | Sequence[float]) -> np.ndarray:
    """The eigenvalues of a HermitianMatrix, or x as 1-d float64 eigenvalues."""
    if isinstance(x, HermitianMatrix):
        return eigvals_hermitian(x)
    lam = np.asarray(x, dtype=np.float64)
    if lam.ndim != 1:
        raise ValueError("eigenvalues must be 1-d; pass a matrix as a HermitianMatrix")
    return lam


def schur_eval(kappa, x: HermitianMatrix | Sequence[float]) -> float:
    """Schur polynomial s_kappa at the eigenvalues of a Hermitian matrix, or
    at the given (real) eigenvalues.

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
    lam = _eigenvalues(x)
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


def zonal_c(kappa, x: HermitianMatrix | Sequence[float]) -> float:
    """Zonal polynomial of a Hermitian matrix argument, given as the matrix
    or as its eigenvalues: SYT count times Schur value.

    Normalized so that the weight-m polynomials sum to (tr X)^m; depends on
    X only through its eigenvalues, hence is unitarily invariant.
    """
    parts = Partition(kappa).parts
    return syt_count(parts) * schur_eval(parts, x)


# ---------------------------------------------------------------------------
# confluent hypergeometric function of matrix argument


# Stopping rule of the partition-weight series: it stops once
# CONSECUTIVE_ORDERS successive order increments each fall below REL_STOP
# times the running partial sum.
REL_STOP = 1e-12
CONSECUTIVE_ORDERS = 3

# dtype of the short rows' Schur values in the series (see _hyp1f1_series);
# a double where the platform's long double is one
_SHORT_ROW_DTYPE = np.longdouble


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
    stopping rule. Mixed-sign spectra are summed as given. The series is
    the scalar recurrence of _hyp1f1_scalar at p = 1 and _hyp1f1_series at
    p >= 2; both carry the factor etr(X) and whether they stopped to their
    shared last step, _hyp1f1_result, so a value in range is found where
    etr(X) alone underflows, and at p = 1 also where the Kummer sum alone
    overflows.
    """
    lam = _eigenvalues(x)
    bad = [f"{name} finite (got {v!r})"
           for name, v in (("a", a), ("c", c)) if not cmath.isfinite(v)]
    bad += [f"eigenvalue {i + 1} finite (got {v!r})"
            for i, v in enumerate(lam.tolist()) if not math.isfinite(v)]
    if bad:
        raise DomainError(bad, context="1F1 undefined")
    log_etr = 0.0
    if lam.size and lam.max() <= 0.0 and lam.min() < 0.0:
        a, lam, log_etr = c - a, -lam, float(lam.sum())
    if lam.size == 1:
        return _hyp1f1_scalar(a, c, float(lam[0]), policy, log_etr)
    return _hyp1f1_series(a, c, lam, policy, log_etr)


# Once its sum of term magnitudes passes 2**_RESCALE_BITS, _hyp1f1_scalar
# divides its running sums by a power of two; ln 2 split as in fdlibm's exp,
# _LN2_HI with 32 significant bits, so k * _LN2_HI is exact for |k| < 2**20
_RESCALE_BITS = 900
_LN2_HI = 6.93147180369123816490e-01
_LN2_LO = 1.90821492927058770002e-10


def _ldexp(v: complex, shift: int) -> complex:
    """v 2**shift for a float or complex v; OverflowError beyond double range."""
    if isinstance(v, complex):
        return complex(math.ldexp(v.real, shift), math.ldexp(v.imag, shift))
    return math.ldexp(v, shift)


def _etr_times(v: complex, shift: int, log_etr: float) -> complex:
    """exp(log_etr) v 2**shift for a float or complex v; OverflowError
    beyond double range.

    It is the plain product exp(log_etr) v 2**shift while exp(log_etr) is
    a normal double and v 2**shift is finite. Otherwise
    exp(log_etr) is taken as 2**k exp(r), r = log_etr - k ln 2 and
    |r| <= ln 2 / 2, so only ldexp sees the range.
    """
    factor = math.exp(log_etr)
    if factor >= sys.float_info.min:
        try:
            return factor * _ldexp(v, shift)
        except OverflowError:
            pass
    k = round(log_etr / math.log(2))
    return _ldexp(v * math.exp(log_etr - k * _LN2_HI - k * _LN2_LO), shift + k)


def _first_pole(c: complex, p: int) -> tuple[int, PochhammerPole | None]:
    """(weight, error) of the lightest partition kappa with at most p parts
    at which [c]_kappa vanishes, the error for a series to raise on
    reaching that weight, or (0, None) if there is none: only an integer
    c < p has one, (1 - c) for c <= 0 and (1^(c + 1)) for c >= 1."""
    if not (p and c.imag == 0 and float(c.real).is_integer() and c.real < p):
        return 0, None
    n = int(c.real)
    kappa = (1 - n,) if n <= 0 else (1,) * (n + 1)
    return sum(kappa), PochhammerPole(
        f"denominator symbol vanishes at partition {kappa} for c = {c!r}")


def _hyp1f1_result(
    total: complex, order_reached: int, last_inc: float, streak: int,
    abs_sum: float, shift: int, log_etr: float,
) -> Hyp1F1Result:
    """The Hyp1F1Result of a finished sum, total 2**shift before etr(X): the
    imaginary part is dropped when it is at most 1e-12 times
    max(1, |real part|), and the value and the last increment are scaled
    by exp(log_etr) 2**shift (_etr_times). A value beyond double range
    raises DomainError.

    converged holds when the sum stopped by the stopping rule, its streak
    of small increments at CONSECUTIVE_ORDERS, and 2**-52 abs_sum, abs_sum
    the sum of the magnitudes of its order terms at the scale of total,
    bounds its rounding error within REL_STOP of |total|: digits cancelled
    by then cannot come back at higher orders."""
    converged = bool(streak == CONSECUTIVE_ORDERS and 2.0**-52 * abs_sum <= REL_STOP * abs(total))
    total = complex(total)
    unit = math.ldexp(1.0, -shift)  # 1, at the scale of total
    value = total.real if abs(total.imag) <= 1e-12 * max(unit, abs(total.real)) else total
    try:
        value = _etr_times(value, shift, log_etr)
    except OverflowError:
        raise DomainError([f"1F1 value finite (order {order_reached})"],
                          context="1F1 overflows") from None
    return Hyp1F1Result(
        value=value,
        order_reached=order_reached,
        last_increment=_etr_times(last_inc, shift, log_etr),
        converged=converged,
    )


def _hyp1f1_scalar(
    a: complex, c: complex, x: float, policy: TruncationPolicy, log_etr: float = 0.0
) -> Hyp1F1Result:
    """exp(log_etr) 1F1(a; c; x) at p = 1, log_etr <= 0, by the scalar
    recurrence of the series' terms in Python numbers.

    Every partition of weight m with one part is the row (m), so the
    series of _hyp1f1_series has one term per order: its cell factors
    (a + t) scale / ((c + t) (1 + t)), t < m and scale = |x|, times
    (x / scale)^m = (+-1)^m. Each order takes one more factor, in the
    series' order of operations, so at real a and c both give the same
    bits; complex a or c can round differently in the division. No numpy
    call is made per order: an order costs 0.5 us, against 6.3 us in
    _hyp1f1_series, and a call to order 10 costs 12 us (2-core Xeon).

    Once the sum of the term magnitudes passes 2**_RESCALE_BITS, it, the
    partial sum and the running term are divided by a power of two that
    shift counts. The stopping rule and the converged test compare ratios
    of these, which the exact scaling leaves as they are. 2**shift and
    exp(log_etr), the etr(X) of the Kummer branch, are applied at the end
    (_hyp1f1_result), so 1F1(c - a; c; 800) e^-800 is found where the sum
    alone overflows. A
    sum of term magnitudes that stays beyond double range once multiplied
    by exp(log_etr), or a value beyond it, raises DomainError: at
    log_etr = 0 at the same order as _hyp1f1_series.
    """
    scale = abs(x) or 1.0
    sign = x / scale
    pole_order, pole = _first_pole(c, 1)
    # the largest binary exponent of the sum of term magnitudes, unscaled,
    # that stays in range once multiplied by exp(log_etr)
    top = 1024 + int(-log_etr / math.log(2))
    total, abs_sum, shift = 1.0 + 0.0j, 1.0, 0
    coef, power = 1.0, 1.0
    streak = order_reached = 0
    last_inc = 0.0
    for m in range(1, policy.max_order + 1):
        if m == pole_order:
            raise pole
        t = m - 1
        coef *= (a + t) * scale / ((c + t) * (1 + t))
        power *= sign
        term = coef * power
        total += term
        order_reached = m
        last_inc = abs(term)
        abs_sum += last_inc
        if not abs_sum < math.inf or math.frexp(abs_sum)[1] + shift > top:
            raise DomainError([f"1F1 value finite (order {m})"], context="1F1 overflows")
        streak = streak + 1 if last_inc < REL_STOP * abs(total) else 0
        if streak == CONSECUTIVE_ORDERS:
            break
        if abs_sum > 2.0**_RESCALE_BITS:
            k = math.frexp(abs_sum)[1]
            step = 2.0**-k
            coef, total, abs_sum, last_inc = coef * step, total * step, abs_sum * step, last_inc * step
            shift += k
    return _hyp1f1_result(total, order_reached, last_inc, streak, abs_sum, shift, log_etr)


# Partitions per block of orders whose coefficients _hyp1f1_series gathers
# in one take, unless a single order has more: enough that a call at
# p = 2, or up to order 15 at p = 6, gathers once
_BLOCK_ROWS = 512


@lru_cache(maxsize=None)
def _order_blocks(max_order: int, p: int) -> tuple[int, ...]:
    """Orders 1..max_order cut into blocks of consecutive orders of at most
    _BLOCK_ROWS partitions each, unless one order alone has more: the first
    order of each block, then max_order + 1."""
    sizes = _partition_counts(max_order, p)[0][:, p].tolist()
    starts, rows = [1], 0
    for m in range(1, max_order + 1):
        rows += sizes[m]
        if rows > _BLOCK_ROWS and m > starts[-1]:
            starts.append(m)
            rows = sizes[m]
    return (*starts, max_order + 1)


@lru_cache(maxsize=None)
def _order_block(lo: int, hi: int, p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple]:
    """(cells, dim, h_index, rows) for the partitions kappa of weight
    lo..hi - 1 with at most p parts, order after order, each in the column
    order of _partition_cells; nothing in it depends on the eigenvalues.
    rows[m - lo] = (start, end, short_start, s_index) places order m:
    partitions start..end - 1, its short rows first, and columns
    short_start.. of h_index, with s_index its own.

    cells are the tables of _partition_cells side by side; a one-order
    block holds the cached table itself. dim holds the Weyl dimensions
    s_kappa(1^p) = prod_{i<j} (kappa_i - kappa_j + j - i) / (j - i).

    The first n_short partitions of an order have ell < p parts, and their
    Jacobi-Trudi determinant expands along its last column (Macdonald,
    ch. I (3.4)):
    s_kappa = sum_{r <= ell} (-1)^(r + ell) h_{kappa_r - r + ell} s_nu(r),
    nu(r) = (kappa_1, ..., kappa_{r-1}, kappa_{r+1} - 1, ..., kappa_ell - 1)
    of weight m - kappa_r - (ell - r) < m. Row r - 1 of the (p - 1,
    n_short) h_index holds 1 + 2 k + (sign < 0) at degree
    k = kappa_r - r + ell, the position of h_k, or of -h_k, in the series'
    interleaved [0, h_0, -h_0, h_1, -h_1, ...]; s_index holds the position
    of nu(r) among the short rows of tables (0, p), (1, p), ... one after
    another, which are tables (0, p - 1), (1, p - 1), ... (_flat_positions).
    Rows r > ell hold 0 in both, which reads 0 times s_() = 1. Both are
    narrowed like cells. Up to order 40 at p = 1..6 the two take 0.37 MB."""
    cells, dims, h_indices, rows = [], [], [], []
    start = short_start = 0
    i, j = np.triu_indices(p, 1)
    empty = np.zeros((max(p - 1, 0), 0), dtype=np.uint8)  # no short rows
    for m in range(lo, hi):
        table = _partition_cells(m, p)
        n_short = _partition_cells(m, p - 1).shape[1] if p else 0
        parts = table.astype(np.intp) // max(p, 1)
        shifted = parts - np.arange(p, dtype=float)[:, None]
        h_index, s_index = _cofactor_indices(parts[:-1, :n_short], p) if n_short else (empty,) * 2
        cells.append(table)
        dims.append((shifted[i] - shifted[j]).prod(axis=0) / np.prod(j - i))
        h_indices.append(h_index)
        rows.append((start, start + table.shape[1], short_start, s_index))
        start += table.shape[1]
        short_start += n_short
    if hi - lo == 1:
        return table, dims[0], h_index, tuple(rows)
    return (np.concatenate(cells, axis=1), np.concatenate(dims),
            np.concatenate(h_indices, axis=1), tuple(rows))


def _hyp1f1_series(
    a: complex, c: complex, lam: np.ndarray, policy: TruncationPolicy, log_etr: float = 0.0
) -> Hyp1F1Result:
    """exp(log_etr) times the zonal series of hyp1f1_matrix, one batched
    step per weight m.

    The term of kappa is its Weyl dimension times s_kappa(lambda / scale)
    times the product over its cells of (a + q) scale / ((c + q) (p + q)),
    q = column - row the cell's content and scale = max |lambda_i|, so no
    factor overflows alone; cell[k, j] is that product over the first k
    cells of row j. The coefficients, dimension times cell products, are
    gathered once per block of orders from its cached _order_block, and so
    are the signed h of the short rows' expansions. The Schur values of the
    short rows, those with fewer than p parts, of every order so far sit in
    one flat array of _SHORT_ROW_DTYPE (np.longdouble), table after table,
    grown by doubling. A short row expands its
    Jacobi-Trudi determinant along the last column over Schur values of
    lower weight that this array holds: one einsum of p - 1 signed h,
    taken from the interleaved [0, h_0, -h_0, h_1, -h_1, ...], times p - 1
    of those values (columns past the partition's length read 0). Rows
    with p parts take s_kappa = e_p s_{kappa - (1^p)}, e_p the product of
    lambda / scale (Macdonald, ch. I section 3), in doubles from the Schur
    values of order m - p, row for row. One dot of the order's
    coefficients with its values in doubles then gives its term. A call
    to order 10 costs about 120 us at p = 2 and 140 us at p = 6, and each
    further order to 30 adds 6.5 us at p = 2, 11.7 us at p = 4 and 27.5 us
    at p = 6 (a = 1.5, c = 3.2, 2-core Xeon).

    The terms of an expansion cancel, and every later order reads its
    value again, so rounding errors compound from weight to weight: at
    lambda = (-2.77, 1.38, -2.34, -0.24, -4.43, -4.81), up to weight 30,
    the worst error relative to s_kappa(|lambda|) is 7e-6 in doubles,
    against 1e-9 in np.longdouble (a 64-bit significand on x86) and 3e-11
    from an LU determinant of each Jacobi-Trudi matrix. Where longdouble
    is double, the values lose those digits. At p <= 2 the expansion is
    the single exact term h_m s_() = h_m, so every value there is the
    double the Jacobi-Trudi determinant gives.

    exp(log_etr) is applied to the finished sum (_hyp1f1_result), so a
    value is found where the factor alone underflows. The sum itself is not
    rescaled: one beyond double range raises DomainError, since its cell
    products overflow with it.
    """
    p = lam.size
    scale = float(np.abs(lam).max(initial=0.0)) or 1.0
    lam = lam / scale
    e_p = float(np.prod(lam))
    # p = 1 rows are all full
    if p > 1:
        h = _h_table(lam, policy.max_order)
        hh = np.zeros(2 * h.size + 1, dtype=_SHORT_ROW_DTYPE)
        hh[1::2] = h
        hh[2::2] = -h
    pole_order, pole = _first_pole(c, p)
    schur = [np.ones(1)]  # schur[m]: Schur values of table m; m = 0 is s_() = 1
    # the short rows' Schur values of every order so far, table after table;
    # ext[0] is s_() and ext[:ext_end] is filled
    ext, ext_end = np.ones(64, dtype=_SHORT_ROW_DTYPE), 1
    total = 1.0 + 0.0j  # m = 0 term
    abs_sum = 1.0  # sum of |term_m|, which bounds the rounding error of total
    streak = 0
    order_reached = 0
    last_inc = 0.0
    bounds = _order_blocks(policy.max_order, p)
    block = 0
    # cells past a pole or beyond double range may be inf or nan; none is returned
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        # q[t, j] = t - j, the content of cell t + 1 of row j
        q = np.subtract.outer(np.arange(float(policy.max_order)), np.arange(p))
        factors = (a + q) * scale / ((c + q) * (p + q))
        cell = np.ones((policy.max_order + 1, p), dtype=factors.dtype)
        np.cumprod(factors, axis=0, out=cell[1:])
        for m in range(1, policy.max_order + 1):
            if m == pole_order:  # no cell past the pole is read
                raise pole
            if m == bounds[block]:
                first = m
                block += 1
                cells, dim, h_index, rows = _order_block(first, bounds[block], p)
                coef = cell.take(cells).prod(axis=0) * dim
                if h_index.size:  # no short rows past order 0 at p <= 1
                    h_short = hh.take(h_index)
                    if ext_end + h_index.shape[1] > ext.size:
                        grown = np.empty(max(2 * ext.size, ext_end + h_index.shape[1]),
                                         dtype=_SHORT_ROW_DTYPE)
                        grown[:ext_end] = ext[:ext_end]
                        ext = grown
            start, end, short_start, s_index = rows[m - first]
            n_short = s_index.shape[1]
            s = np.empty(end - start)
            if end - start > n_short:
                np.multiply(e_p, schur[m - p], out=s[n_short:])
            if n_short:
                short = ext[ext_end:ext_end + n_short]
                ext_end += n_short
                np.einsum("ij,ij->j", h_short[:, short_start:short_start + n_short],
                          ext.take(s_index), out=short)
                s[:n_short] = short
            schur.append(s)
            term = np.dot(coef[start:end], s)
            total += term
            order_reached = m
            last_inc = float(abs(term))
            abs_sum += last_inc
            if not abs_sum < math.inf:
                raise DomainError([f"1F1 value finite (order {m})"], context="1F1 overflows")
            streak = streak + 1 if last_inc < REL_STOP * abs(total) else 0
            if streak == CONSECUTIVE_ORDERS:
                break
    return _hyp1f1_result(total, order_reached, last_inc, streak, abs_sum, 0, log_etr)

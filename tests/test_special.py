import itertools
import math
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import gammaln

from mvda.errors import BadSupport, BadWeights, DomainError, PochhammerPole
from mvda import special
from mvda.linalg import HermitianMatrix
from mvda.special import (
    CONSECUTIVE_ORDERS,
    REL_STOP,
    Partition,
    TruncationPolicy,
    _h_table,
    _hyp1f1_series,
    _order_block,
    _partition_cells,
    gamma_p_ln,
    hyp1f1_matrix,
    partitions_of,
    pochhammer_gen,
    power_mean,
    schur_eval,
    syt_count,
    zonal_c,
)

WIDE_SERIES = TruncationPolicy(max_order=60)


def weight_table(m, p):
    """(cells, (h_index, s_index), dim, n_short) of the one-order block of
    weight m, with its cells one row per partition."""
    cells, dim, h_index, ((_, _, _, s_index),) = _order_block(m, m + 1, p)
    return cells.T, (h_index, s_index), dim, s_index.shape[1]


def brute_force_partitions(m, max_len):
    """Enumeration oracle: filter all non-increasing tuples with sum m."""
    if m == 0:
        return {()}
    found = set()
    for length in range(1, max_len + 1):
        for combo in itertools.product(range(1, m + 1), repeat=length):
            if sum(combo) == m and all(combo[i] >= combo[i + 1] for i in range(length - 1)):
                found.add(combo)
    return found


def ssyt_sum(shape, variables):
    """Schur oracle: sum of monomials over semistandard Young tableaux.

    Rows weakly increase, columns strictly increase; entries in 1..len(vars).
    """
    n = len(variables)
    cells = [(i, j) for i, row in enumerate(shape) for j in range(row)]

    def fill(idx, tableau):
        if idx == len(cells):
            yield tableau
            return
        i, j = cells[idx]
        lo = 1
        if j > 0:
            lo = max(lo, tableau[(i, j - 1)])
        if i > 0:
            lo = max(lo, tableau[(i - 1, j)] + 1)
        for v in range(lo, n + 1):
            yield from fill(idx + 1, {**tableau, (i, j): v})

    total = 0.0
    for tab in fill(0, {}):
        term = 1.0
        for v in tab.values():
            term *= variables[v - 1]
        total += term
    return total


def reference_hyp1f1(a, c, lam, policy):
    """Per-partition zonal series, one Jacobi-Trudi determinant at a time.

    The oracle for the batched series in mvda.special: the same partitions,
    stopping rule and rounding condition, with Pochhammer symbols, SYT
    counts and Schur values taken partition by partition.
    """
    lam = np.asarray(lam, dtype=float)
    p = lam.size
    degree = policy.max_order + p
    pows = [float(np.sum(lam**r)) for r in range(1, degree + 1)]
    h = [1.0]
    for k in range(1, degree + 1):
        h.append(sum(pows[i] * h[k - 1 - i] for i in range(k)) / k)

    def schur(parts):
        ell = len(parts)
        jt = np.zeros((ell, ell))
        for i in range(ell):
            for j in range(ell):
                d = parts[i] - i + j
                if d >= 0:
                    jt[i, j] = h[d]
        return float(np.linalg.det(jt))

    total, abs_sum, inv_mfact, streak, last_inc = 1.0 + 0.0j, 1.0, 1.0, 0, 0.0
    order_reached, converged = 0, False
    for m in range(1, policy.max_order + 1):
        inv_mfact /= m
        term = 0.0 + 0.0j
        for kappa in partitions_of(m, p):
            ratio = pochhammer_gen(complex(a), kappa) / pochhammer_gen(complex(c), kappa)
            term += ratio * (syt_count(kappa.parts) * schur(kappa.parts))
        term *= inv_mfact
        total += term
        order_reached, last_inc = m, abs(term)
        abs_sum += last_inc
        if last_inc < REL_STOP * abs(total):
            streak += 1
            if streak >= CONSECUTIVE_ORDERS:
                converged = 2.0**-52 * abs_sum <= REL_STOP * abs(total)
                break
        else:
            streak = 0
    return total.real, order_reached, converged


def bialternant(parts, x):
    """Schur polynomial as det[x_i^(kappa_j + n - j)] / det[x_i^(n - j)]."""
    n = len(x)
    kappa = list(parts) + [0] * (n - len(parts))
    num = np.array([[xi ** (kappa[j] + n - 1 - j) for j in range(n)] for xi in x])
    den = np.array([[xi ** (n - 1 - j) for j in range(n)] for xi in x])
    return np.linalg.det(num) / np.linalg.det(den)


def gross_richards(a, c, eigs):
    """1F1(a; c; X) from distinct eigenvalues via det[x_r^(p-j) 1F1(a-j+1; c-j+1; x_r)]
    over the Vandermonde product (Gross and Richards 1989), in mpmath."""
    p = len(eigs)
    with mpmath.workdps(50):
        x = [mpmath.mpf(float(e)) for e in eigs]
        vandermonde = mpmath.fprod(x[r] - x[s] for r in range(p) for s in range(r + 1, p))
        rows = [
            [x[r] ** (p - j) * mpmath.hyp1f1(a - j + 1, c - j + 1, x[r]) for j in range(1, p + 1)]
            for r in range(p)
        ]
        return float(mpmath.det(mpmath.matrix(rows)) / vandermonde)


class TestPartition:
    def test_strips_zeros(self):
        assert Partition((3, 1, 0, 0)).parts == (3, 1)

    def test_rejects_increasing(self):
        with pytest.raises(ValueError):
            Partition((1, 2))

    @pytest.mark.parametrize("parts", [(0, 2), (2, 0, 1)], ids=["leading", "inner"])
    def test_rejects_zero_ahead_of_a_part(self, parts):
        with pytest.raises(ValueError, match=r"^parts must be non-increasing, got \("):
            Partition(parts)

    @pytest.mark.parametrize("parts", [(-1,), (2, -1), (0, -1)])
    def test_rejects_negative_parts(self, parts):
        with pytest.raises(ValueError, match="^parts must be non-negative$"):
            Partition(parts)

    def test_weight(self):
        assert Partition((3, 2, 2)).weight == 7
        assert Partition(()).weight == 0

    @pytest.mark.parametrize("parts", [(2.5, 1), (1, 0.5), (math.inf,), (math.nan,)],
                             ids=["2.5", "0.5", "inf", "nan"])
    def test_rejects_non_integral_parts(self, parts):
        with pytest.raises(ValueError, match="integers"):
            Partition(parts)
        with pytest.raises(ValueError, match="integers"):
            pochhammer_gen(3.0, parts)

    def test_accepts_integral_floats(self):
        assert Partition((np.float64(2.0), 1.0, 0.0)).parts == (2, 1)
        assert type(Partition((np.float64(2.0),)).parts[0]) is int


class TestPartitionsOf:
    def test_zero_weight(self):
        assert [p.parts for p in partitions_of(0, 3)] == [()]

    def test_weight_three_len_two(self):
        assert [p.parts for p in partitions_of(3, 2)] == [(3,), (2, 1)]

    def test_weight_four(self):
        got = [p.parts for p in partitions_of(4, 4)]
        assert got == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
        # no partition of 4 has more than 4 parts, so no deeper table is built
        assert [p.parts for p in partitions_of(4, 5000)] == got

    @pytest.mark.parametrize("m, max_len, message",
                             [(-1, 2, "m must be >= 0"), (3, 0, "max_len must be >= 1")])
    def test_refuses_bad_arguments(self, m, max_len, message):
        with pytest.raises(ValueError, match=message):
            partitions_of(m, max_len)

    @pytest.mark.parametrize("m,max_len", [(3, 2), (4, 4), (5, 3), (6, 6), (7, 2)])
    def test_matches_brute_force(self, m, max_len):
        got = [p.parts for p in partitions_of(m, max_len)]
        assert set(got) == brute_force_partitions(m, max_len)
        assert len(got) == len(set(got))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=9), st.integers(min_value=1, max_value=6))
    def test_properties(self, m, max_len):
        ps = partitions_of(m, max_len)
        tuples = [p.parts for p in ps]
        assert tuples == sorted(tuples, reverse=True)
        for p in ps:
            assert p.weight == m
            assert len(p) <= max_len

    def test_cold_call_recurses_shallowly(self):
        # a fresh interpreter holds no table yet; partitions_of builds the
        # lighter ones first, so a deep weight needs no deep recursion
        program = ("import sys; from mvda.special import partitions_of; "
                   "sys.setrecursionlimit(100); print(len(partitions_of(1200, 2)))")
        out = subprocess.run(
            [sys.executable, "-c", program],
            env=dict(os.environ, PYTHONPATH=str(Path(special.__file__).parents[1])),
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        assert out.split() == ["601"]


class TestPowerMean:
    def test_arithmetic(self):
        assert power_mean((0.5, 0.5), (2.0, 4.0), 1.0) == pytest.approx(3.0, rel=1e-12)

    def test_harmonic(self):
        assert power_mean((0.5, 0.5), (2.0, 4.0), -1.0) == pytest.approx(8 / 3, rel=1e-12)

    def test_geometric_limit(self):
        assert power_mean((0.5, 0.5), (2.0, 8.0), 0.0) == pytest.approx(4.0, rel=1e-12)

    def test_bad_weights(self):
        with pytest.raises(BadWeights):
            power_mean((0.5, 0.6), (1.0, 2.0), 1.0)
        with pytest.raises(BadWeights):
            power_mean((1.5, -0.5), (1.0, 2.0), 1.0)

    def test_lengths_differ(self):
        with pytest.raises(BadWeights, match="equal length"):
            power_mean((0.5, 0.5), (1.0, 2.0, 3.0), 1.0)

    def test_bad_support(self):
        with pytest.raises(BadSupport):
            power_mean((0.5, 0.5), (1.0, -2.0), 1.0)

    def test_monotone_in_exponent(self):
        w, z = (0.3, 0.5, 0.2), (1.0, 2.5, 7.0)
        bs = np.linspace(-6, 6, 25)
        vals = [power_mean(w, z, b) for b in bs]
        assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_extreme_exponents_stable(self):
        v = power_mean((0.5, 0.5), (2.0, 4.0), 400.0)
        assert 2.0 < v <= 4.0

    @pytest.mark.parametrize("b", [1e-300, -1e-300, 1e-12, -1e-12, 1e-310, 5e-324, -5e-324])
    def test_continuous_at_zero(self, b):
        # 0.3 + 0.7 is 1 - 5.5e-17 in binary; that sum raised to 1/b would be 0
        w, z = (0.3, 0.7), (2.0, 3.0)
        assert power_mean(w, z, b) == pytest.approx(power_mean(w, z, 0.0), rel=1e-12)

    @pytest.mark.parametrize("b,want", [(1.7e308, 3.0), (-1.7e308, 2.0),
                                        (math.inf, 3.0), (-math.inf, 2.0)])
    def test_huge_exponent_gives_max_or_min(self, b, want):
        assert power_mean((0.3, 0.7), (2.0, 3.0), b) == want

    def test_nan_exponent_named(self):
        with pytest.raises(DomainError, match=r"b is a number \(b = nan\)"):
            power_mean((0.3, 0.7), (2.0, 3.0), math.nan)

    @pytest.mark.parametrize("b", [0.5, -1.0, 50.0, -50.0, 1e4, -1e4])
    def test_matches_mpmath(self, b):
        w, z = (0.125, 0.375, 0.5), (0.7, 2.5, 9.0)  # weights sum to 1 exactly
        with mpmath.workdps(60):
            s = mpmath.fsum(mpmath.mpf(wj) * mpmath.mpf(zj) ** b for wj, zj in zip(w, z))
            want = float(s ** (1 / mpmath.mpf(b)))
        assert power_mean(w, z, b) == pytest.approx(want, rel=1e-14)


class TestGammaP:
    def test_scalar_factorial(self):
        assert gamma_p_ln(1, 5.0) == pytest.approx(math.log(24.0), rel=1e-12)

    def test_p2(self):
        assert gamma_p_ln(2, 2.0) == pytest.approx(math.log(math.pi), rel=1e-12)

    def test_p3(self):
        assert gamma_p_ln(3, 3.0) == pytest.approx(math.log(2 * math.pi**3), rel=1e-12)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            gamma_p_ln(3, 2.0)

    def test_dimension_below_one(self):
        with pytest.raises(ValueError, match="p must be >= 1"):
            gamma_p_ln(0, 1.0)

    @pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 6])
    def test_real_alpha_matches_mpmath(self, p):
        alphas = [math.nextafter(p - 1.0, math.inf), p - 1 + 1e-9, p - 0.5, float(p),
                  p + 3.7, 42.5, 1e3 + 0.1, 1e8 + 0.3, 1e20, 1e100, 1e300]
        if p == 1:
            alphas.append(1e-300)
        for alpha in alphas:
            with mpmath.workdps(50):
                a = mpmath.mpf(alpha)
                want = float(p * (p - 1) / 2 * mpmath.log(mpmath.pi)
                             + mpmath.fsum(mpmath.loggamma(a - j) for j in range(p)))
            got = gamma_p_ln(p, alpha)
            assert abs(got - want) <= 4e-15 * p * max(1.0, abs(want)), (alpha, got, want)

    @pytest.mark.parametrize("p,alpha", [(1, 1e306), (2, 2e305)])
    def test_overflow_is_a_domain_error(self, p, alpha):
        # lgamma(1e306) overflows; at 2e305 each term is finite but the sum is not
        with pytest.raises(DomainError) as info:
            gamma_p_ln(p, alpha)
        assert info.value.violated == (f"log Gamma_p(alpha) finite (alpha = {alpha!r}, p = {p})",)

    def test_complex_argument(self):
        v = gamma_p_ln(2, 3.0 + 0.5j)
        assert isinstance(v, complex) and np.isfinite(v.real) and np.isfinite(v.imag)

    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    def test_recurrence(self, p):
        for alpha in (p + 0.5, p + 2.0, p + 7.3):
            lhs = math.exp(gamma_p_ln(p, alpha + 1.0) - gamma_p_ln(p, alpha))
            rhs = np.prod([alpha - j for j in range(p)])
            assert lhs == pytest.approx(rhs, rel=1e-10)

    @pytest.mark.parametrize("p,a,parts", [(2, 3.5, (2, 1)), (3, 4.0, (3, 1, 1)), (1, 2.0, (4,))])
    def test_shifted_gamma_consistency(self, p, a, parts):
        # Gamma_p(a, M) as a term-by-term product of shifted ordinary gammas.
        want = 0.5 * p * (p - 1) * math.log(math.pi) + sum(
            gammaln(a - j + (parts[j] if j < len(parts) else 0)) for j in range(p)
        )
        got = gamma_p_ln(p, a) + math.log(pochhammer_gen(a, parts))
        assert got == pytest.approx(want, rel=1e-10)


class TestPochhammer:
    def test_empty_partition(self):
        assert pochhammer_gen(3.7, ()) == 1.0

    def test_single_row(self):
        assert pochhammer_gen(2.0, (3,)) == 24.0

    def test_two_rows(self):
        assert pochhammer_gen(3.0, (2, 1)) == 24.0

    def test_zero_is_legitimate(self):
        assert pochhammer_gen(0.0, (1,)) == 0.0

    def test_complex(self):
        v = pochhammer_gen(1 + 1j, (2,))
        assert v == (1 + 1j) * (2 + 1j)


class TestSchur:
    def test_single_box_is_trace(self):
        lam = [0.3, -1.2, 2.0]
        assert schur_eval((1,), lam) == pytest.approx(sum(lam), rel=1e-12)

    def test_column_is_elementary(self):
        assert schur_eval((1, 1), [3.0, 5.0]) == pytest.approx(15.0, rel=1e-12)

    def test_against_ssyt_enumeration(self):
        rng = np.random.default_rng(31)
        for _ in range(5):
            lam = rng.uniform(-1, 2, size=3)
            want = ssyt_sum((2, 1), lam)
            assert schur_eval((2, 1), lam) == pytest.approx(want, rel=1e-9, abs=1e-9)

    def test_more_parts_than_variables_is_zero(self):
        assert schur_eval((1, 1, 1), [1.0, 2.0]) == 0.0

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_against_bialternant(self, n):
        rng = np.random.default_rng(59 + n)
        x = np.sort(rng.uniform(0.2, 2.0, size=n))
        assert np.min(np.diff(x)) > 0
        for m in range(1, 7):
            for kappa in partitions_of(m, n):
                want = bialternant(kappa.parts, x)
                assert schur_eval(kappa, x) == pytest.approx(want, rel=1e-9)

    def test_coincident_eigenvalues(self):
        # Jacobi-Trudi stays finite where the bialternant is 0/0.
        assert schur_eval((2, 1), [1.0, 1.0, 1.0]) == pytest.approx(
            ssyt_sum((2, 1), [1.0, 1.0, 1.0]), rel=1e-10
        )

    @pytest.mark.parametrize("kappa,x,want", [
        pytest.param((1, 1), 1e154, 1e308, id="e2"),
        pytest.param((2, 1), 4e102, 1.28e308, id="s21"),
    ])
    def test_clustered_spectrum_near_double_range(self, kappa, x, want):
        # h_1^2 and h_3 overflow at these eigenvalues while the value does not
        assert schur_eval(kappa, [x, x]) == pytest.approx(want, rel=1e-14)
        assert zonal_c(kappa, HermitianMatrix.diagonal([x, x])) == pytest.approx(
            syt_count(kappa) * want, rel=1e-14)

    def test_widely_spread_spectrum_does_not_cancel(self):
        # Jacobi-Trudi at lambda / 1e20 took e_2 as h_1^2 - h_2 = 1 - 1
        assert schur_eval((1, 1), [1e20, 1.0]) == pytest.approx(1e20, rel=1e-14)

    @pytest.mark.parametrize("lam", [
        pytest.param((8.0, 7.0, 6.0, 5.0, 4.0, 3.0), id="integers"),
        pytest.param((1.0, 0.9, 0.7, 0.5, 0.35, 0.2), id="decaying"),
        pytest.param((-2.77, 1.38, -2.34, -0.24, -4.43, -4.81), id="mixed-signs"),
    ])
    def test_against_mpmath_up_to_weight_16(self, lam):
        # within 1e-14 of s_kappa(|lambda|); Jacobi-Trudi in doubles was 2e-11..2e-10 off
        def schur_mp(parts, x):
            # Jacobi-Trudi at 50 digits, over h_k from Newton's identities
            with mpmath.workdps(50):
                x = [mpmath.mpf(v) for v in x]
                ell = len(parts)
                pows = [mpmath.fsum(v**r for v in x) for r in range(parts[0] + ell)]
                h = [mpmath.mpf(1)]
                for k in range(1, parts[0] + ell):
                    h.append(mpmath.fsum(pows[i] * h[k - i] for i in range(1, k + 1)) / k)
                rows = [[h[d] if d >= 0 else 0 for d in (parts[i] - i + j for j in range(ell))]
                        for i in range(ell)]
                return float(mpmath.det(mpmath.matrix(rows)))

        for m in range(1, 17):
            for kappa in partitions_of(m, len(lam)):
                want = schur_mp(kappa.parts, lam)
                bound = schur_mp(kappa.parts, [abs(v) for v in lam])
                assert abs(schur_eval(kappa, lam) - want) <= 1e-14 * bound, kappa.parts

    def test_value_beyond_double_range_is_a_domain_error(self):
        with pytest.raises(DomainError, match="Schur value finite"):
            schur_eval((1,), [1e308, 1e308])

    def test_row_past_the_strip_table_limit_is_refused(self):
        # a first part of 2048 needs a 2049 x 2049 strip table, past 2**22 entries
        with pytest.raises(ValueError,
                           match=r"^partition \(2048,\) too large for the branching rule$"):
            schur_eval((2048,), [1.0])

    def test_step_past_the_grid_limit_is_refused(self):
        # each strip table fits (1001 x 1001 entries), but the intervals of
        # the three parts span more than 2**22 entries after some variable
        with pytest.raises(ValueError,
                           match=r"^partition \(1000, 500, 250\) too large for the branching rule$"):
            schur_eval((1000, 500, 250), [1.0] * 4)

    @pytest.mark.parametrize("kappa,lam", [((2,), [[0.5]]), ((1,), [[1.0, 2.0]])],
                             ids=["1x1", "1x2"])
    def test_array_not_1d_is_refused(self, kappa, lam):
        with pytest.raises(ValueError, match="HermitianMatrix"):
            schur_eval(kappa, lam)
        with pytest.raises(ValueError, match="HermitianMatrix"):
            zonal_c(kappa, lam)


class TestSytCount:
    @pytest.mark.parametrize(
        "shape,count",
        [((1,), 1), ((3,), 1), ((1, 1, 1), 1), ((2, 1), 2), ((2, 2), 2), ((3, 2), 5)],
    )
    def test_known_values(self, shape, count):
        assert syt_count(shape) == count

    def test_weight_class_total(self):
        # sum over |kappa| = m of f_kappa^2 = m! (regular representation)
        for m in range(1, 7):
            total = sum(syt_count(p.parts) ** 2 for p in partitions_of(m, m))
            assert total == math.factorial(m)

    def test_weight_table_dim_is_schur_at_ones(self):
        # the series' Weyl column is s_kappa(1^p), an integer; the
        # Jacobi-Trudi determinant at ones rounds to about 1e-9 by m = 30
        for p in range(1, 7):
            for m in range(31):
                cells, _, dim, _ = weight_table(m, p)
                for row, d in zip((cells // p).tolist(), dim):
                    assert d == int(d)
                    assert d == pytest.approx(schur_eval(tuple(row), [1.0] * p), rel=1e-8)

    def test_weight_table_rows_are_the_partitions(self):
        for p in range(1, 7):
            for m in range(31):
                cells, _, _, n_short = weight_table(m, p)
                parts = cells // p
                rows = [tuple(x for x in row if x) for row in parts.tolist()]
                assert len(rows) == len(set(rows))
                assert set(rows) == {k.parts for k in partitions_of(m, p)}
                assert all(len(row) < p for row in rows[:n_short])
                # full row n_short + r is row r of table m - p plus one
                if m >= p:
                    below = (weight_table(m - p, p)[0] // p).astype(np.int64)
                    np.testing.assert_array_equal(parts[n_short:], below + 1)
                else:
                    assert n_short == len(rows)

    def test_one_order_block_is_the_cached_table(self):
        # a block of one order holds the table of _partition_cells itself,
        # not a copy in another layout; at p = 6 each order from 16 on
        # fills a block of its own
        for m in range(16, 41):
            assert _order_block(m, m + 1, 6)[0] is _partition_cells(m, 6)

    def test_weight_table_indices(self):
        # cells[r, j] = kappa_j p + j indexes cell[kappa_j, j] of a flat
        # (max_order + 1, p) table
        for p in range(1, 7):
            for m in range(31):
                cells = weight_table(m, p)[0]
                assert (cells % p == np.arange(p)).all()

    def test_weight_table_cofactor_indices(self):
        # h_index[r - 1] of a short row is 1 + 2 k + (sign < 0) at
        # k = kappa_r - r + ell, sign (-1)^(r + ell); its s_index[r - 1] is
        # the position of nu(r) among the short rows of tables (0, p),
        # (1, p), ... one after another; rows past ell read 0
        for p in range(1, 7):
            tables = [weight_table(w, p) for w in range(31)]
            offsets = np.cumsum([0] + [t[3] for t in tables])
            for m in range(31):
                cells, (h_index, s_index), _, n_short = tables[m]
                assert h_index.shape == s_index.shape == (p - 1, n_short)
                parts = (cells // p).astype(np.int64)  # checked by the tests above
                for row, hs, ss in zip(parts[:n_short].tolist(), h_index.T.tolist(),
                                       s_index.T.tolist()):
                    kappa = [x for x in row if x]
                    ell = len(kappa)
                    for r in range(1, p):
                        if r > ell:
                            assert (hs[r - 1], ss[r - 1]) == (0, 0), (m, p, row)
                            continue
                        k, negative = divmod(hs[r - 1] - 1, 2)
                        assert k == kappa[r - 1] - r + ell, (m, p, row, r)
                        assert negative == (r + ell) % 2, (m, p, row, r)
                        nu = kappa[:r - 1] + [x - 1 for x in kappa[r:]]
                        w = int(np.searchsorted(offsets, ss[r - 1], side="right")) - 1
                        got = tables[w][0][ss[r - 1] - offsets[w]] // p
                        assert [x for x in got.tolist() if x] == [x for x in nu if x]
                        assert w == m - kappa[r - 1] - (ell - r)


def test_h_table_against_exact_values():
    # h_k from the convolution of geometric sequences against the exact
    # h_k in mpmath, on spectra scaled as the series scales them; Newton's
    # identities, which it replaced, were 6.5 ulp off on these
    rng = np.random.default_rng(2024)
    degree = 40
    for n in range(50):
        lam = rng.uniform(-1.0, 1.0, size=2 + n % 5)
        lam /= np.abs(lam).max()
        got = _h_table(lam, degree)
        with mpmath.workdps(40):
            exact = [mpmath.mpf(1)] + [mpmath.mpf(0)] * degree
            magnitude = list(exact)
            for x in lam.tolist():  # multiply by 1 / (1 - x t), term by term
                for k in range(1, degree + 1):
                    exact[k] += x * exact[k - 1]
                    magnitude[k] += abs(x) * magnitude[k - 1]
            for k in range(degree + 1):
                ulp = np.spacing(float(magnitude[k]))
                assert abs(got[k] - exact[k]) <= 4 * ulp, (lam, k)


class TestZonal:
    def test_scalar_power(self):
        x = HermitianMatrix([[1.7]])
        assert zonal_c((3,), x) == pytest.approx(1.7**3, rel=1e-12)

    def test_single_box_is_trace(self):
        rng = np.random.default_rng(37)
        g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        x = HermitianMatrix((g + g.conj().T) / 2)
        assert zonal_c((1,), x) == pytest.approx(x.trace(), rel=1e-10)

    def test_normalization_identity(self):
        rng = np.random.default_rng(41)
        g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        x = HermitianMatrix((g + g.conj().T) / 2)
        total = sum(zonal_c(k, x) for k in partitions_of(3, 3))
        assert total == pytest.approx(x.trace() ** 3, rel=1e-10)

    def test_unitary_invariance(self):
        rng = np.random.default_rng(43)
        g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        x = HermitianMatrix((g + g.conj().T) / 2)
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
        y = HermitianMatrix(q @ x.array @ q.conj().T)
        for kappa in partitions_of(3, 3):
            assert zonal_c(kappa, y) == pytest.approx(zonal_c(kappa, x), rel=1e-8, abs=1e-8)

    def test_exponential_identity(self):
        rng = np.random.default_rng(47)
        g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        h = (g + g.conj().T) / 2
        h *= 0.5 / np.linalg.norm(h, 2)
        x = HermitianMatrix(h)
        total = sum(
            zonal_c(k, x) / math.factorial(m)
            for m in range(11)
            for k in partitions_of(m, 3)
        )
        assert total == pytest.approx(math.exp(x.trace()), rel=1e-6)


class TestHyp1F1:
    def test_zero_matrix(self):
        res = hyp1f1_matrix(1.5, 4.0, HermitianMatrix(np.zeros((2, 2))))
        assert res.value == 1.0
        assert res.converged

    def test_empty_spectrum_is_one(self):
        res = hyp1f1_matrix(1.5, 3.2, [])
        assert res.value == 1.0
        assert res.converged

    @pytest.mark.parametrize("x", [[[0.5]], np.eye(2), 0.5], ids=["1x1", "eye2", "scalar"])
    def test_array_not_1d_is_refused(self, x):
        with pytest.raises(ValueError, match="HermitianMatrix"):
            hyp1f1_matrix(1.5, 3.2, x)

    @pytest.mark.parametrize("x", [-5.0, -2.0, -0.5, 0.5, 2.0, 5.0])
    def test_equal_parameters_give_exp(self, x):
        res = hyp1f1_matrix(2.0, 2.0, HermitianMatrix([[x]]), WIDE_SERIES)
        assert res.value == pytest.approx(math.exp(x), rel=1e-10, abs=0)

    def test_scalar_against_mpmath(self):
        res = hyp1f1_matrix(1.5, 3.2, HermitianMatrix([[1.7]]), WIDE_SERIES)
        assert res.value == pytest.approx(float(mpmath.hyp1f1(1.5, 3.2, 1.7)), rel=1e-10)

    @pytest.mark.parametrize("x", [-2.0, -1.0, -0.25, 0.25, 1.0, 2.0])
    def test_kummer_identity(self, x):
        a, c = 1.5, 3.2
        lhs = hyp1f1_matrix(a, c, HermitianMatrix([[x]]), WIDE_SERIES).value
        rhs = math.exp(x) * hyp1f1_matrix(c - a, c, HermitianMatrix([[-x]]), WIDE_SERIES).value
        assert lhs == pytest.approx(rhs, rel=1e-8)

    def test_pochhammer_pole(self):
        with pytest.raises(PochhammerPole):
            hyp1f1_matrix(1.0, 0.0, HermitianMatrix([[0.5]]))

    def test_pole_names_first_vanishing_partition(self):
        # [1]_kappa = 0 first at kappa = (1, 1): its second row starts at 1 - 1
        with pytest.raises(PochhammerPole, match=r"partition \(1, 1\)"):
            hyp1f1_matrix(0.5, 1.0, [0.3, 0.2])
        # [2]_kappa's third row starts at 2 - 2, so the first pole at p = 3
        # is the first partition with 3 parts
        with pytest.raises(PochhammerPole, match=r"partition \(1, 1, 1\)"):
            hyp1f1_matrix(0.5, 2.0, [0.3, 0.2, 0.1])
        # [-2]_(k) = (-2)(-1)(0)... first vanishes at the one row (3)
        with pytest.raises(PochhammerPole, match=r"partition \(3,\)"):
            hyp1f1_matrix(0.5, -2.0, [0.3])
        with pytest.raises(PochhammerPole, match=r"partition \(1, 1, 1, 1\)"):
            hyp1f1_matrix(0.5, 3.0, [0.3, 0.2, 0.1, 0.05])
        # [4]_kappa would need a fifth row to reach 4 - 4
        assert hyp1f1_matrix(0.5, 4.0, [0.3, 0.2, 0.1, 0.05]).converged

    @pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 6])
    def test_batched_series_matches_per_partition_loop(self, p):
        rng = np.random.default_rng(61 + p)

        def check(lam, policy):
            a = float(rng.uniform(p - 0.8, p + 3.0))
            c = a + float(rng.uniform(0.3, 4.0))
            res = hyp1f1_matrix(a, c, lam, policy)
            value, order, converged = reference_hyp1f1(a, c, lam, policy)
            assert res.value == pytest.approx(value, rel=1e-12)
            assert (res.order_reached, res.converged) == (order, converged)

        for max_order in (25, 40):
            for _ in range(3):
                check(rng.uniform(0.05, 2.5, size=p), TruncationPolicy(max_order=max_order))
        # an eigenvalue exactly 0 makes every Schur value with p parts 0
        check(np.append(rng.uniform(0.05, 2.5, size=p - 1), 0.0), TruncationPolicy(max_order=40))
        # below order p no partition has p parts
        check(rng.uniform(0.05, 2.5, size=p), TruncationPolicy(max_order=p - 1))

    @pytest.mark.parametrize("eigs,max_order", [
        pytest.param([0.5], 200, id="small-x"),
        pytest.param([100.0], 400, id="x100"),
        pytest.param([50.0, 40.0], 300, id="p2"),
        # orders 292 and 240: the partition tables' cells outgrow uint8 at
        # both, and their starts at p = 2; at p = 3, a = 1.5 < p - 1 makes
        # the value negative
        pytest.param([100.0, 90.0], 400, id="p2-uint8"),
        pytest.param([60.0, 50.0, 40.0], 300, id="p3-uint8"),
    ])
    def test_orders_past_170_do_not_overflow(self, eigs, max_order):
        # [a]_kappa, [c]_kappa, m! and x^m each overflow past order ~170,
        # while the terms stay finite
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = hyp1f1_matrix(1.5, 3.2, eigs, TruncationPolicy(max_order=max_order))
        if len(eigs) == 1:
            with mpmath.workdps(40):
                want = float(mpmath.hyp1f1(1.5, 3.2, eigs[0]))
        else:
            want = gross_richards(1.5, 3.2, eigs)
        assert res.converged
        assert res.value == pytest.approx(want, rel=1e-11)

    def test_value_beyond_double_range_is_a_domain_error(self):
        # 1F1(1.5; 3.2; 800) is about 8.6e342
        with pytest.raises(DomainError, match="1F1 value finite"):
            hyp1f1_matrix(1.5, 3.2, [800.0], TruncationPolicy(max_order=1500))

    def test_kummer_on_non_positive_spectra_against_mpmath(self):
        # Every point converges by order 150, so none is skipped. At x = -30
        # the alternating series met the stopping rule while 4e-4 off.
        a, c = 1.5, 3.2
        policy = TruncationPolicy(max_order=150)
        for x in np.linspace(-60.0, 60.0, 49):
            res = hyp1f1_matrix(a, c, [x], policy)
            assert res.converged, x
            with mpmath.workdps(40):
                want = float(mpmath.hyp1f1(a, c, x))
            assert res.value == pytest.approx(want, rel=1e-10, abs=0), x

    @pytest.mark.parametrize("eigs,off", [
        pytest.param([-30.0, 0.5], 1e-6, id="eigs0"),
        pytest.param([-20.0, 1.0], REL_STOP, id="eigs1"),
        pytest.param([-25.0, 2.0], REL_STOP, id="eigs2"),
    ])
    def test_mixed_sign_cancellation_is_not_converged(self, eigs, off):
        # The alternating series meets the stopping rule (order < 150) while
        # its order terms are too large for the sum to hold its digits: each
        # value is off by more than REL_STOP, so converged=False is needed.
        # 2**-52 times the summed order magnitudes is 7.9e-4, 2.4e-8 and
        # 1.4e-6 of these values, so below that scale an error bound only
        # pins one rounding of the sum.
        res = hyp1f1_matrix(1.5, 3.2, eigs, TruncationPolicy(max_order=150))
        assert res.order_reached < 150
        assert res.converged is False
        want = gross_richards(1.5, 3.2, eigs)
        assert abs(res.value - want) > off * abs(want)

    @pytest.mark.parametrize("eigs,a,c,rel", [
        pytest.param([-3.0, 2.0], 1.5, 3.2, 1e-12, id="p2"),
        # at p >= 4 the short rows' Schur values come from cofactor
        # expansions over lower weights, whose terms cancel at mixed signs
        pytest.param([2.5, -1.5, 1.0, -3.0], 3.5, 7.2, 1e-11, id="p4"),
        pytest.param([4.0, -2.0, 3.0, -1.0, 0.5], 4.5, 9.3, 1e-11, id="p5"),
        pytest.param([6.0, -3.0, 5.5, -2.5, 1.0, -0.5], 2.5, 8.1, 1e-11, id="p6"),
    ])
    def test_mild_mixed_sign_spectrum_converges(self, eigs, a, c, rel):
        res = hyp1f1_matrix(a, c, eigs, TruncationPolicy(max_order=150))
        assert res.converged is True
        assert res.value == pytest.approx(gross_richards(a, c, eigs), rel=rel)

    # p = 5 and 6 spectra: mixed signs near the closed_form benchmark's
    # (4, -2, ...) pattern at a == c, and two spectra from the cofactor
    # expansion's error study
    DOUBLE_SHORT_ROWS = [
        ([4.1, -1.9, 3.8, -2.1, 4.2], 6.4, 6.4),
        ([4.1, -1.9, 3.8, -2.1, 4.2, -2.05], 7.3, 7.3),
        ([3.9, -2.1, 4.2, -1.95, 3.85, -2.0], 6.2, 6.2),
        ([4.0, -2.0, 3.0, -1.0, 0.5], 4.5, 9.3),
        ([-2.77, 1.38, -2.34, -0.24, -4.43, -4.81], 2.5, 8.1),
    ]

    def test_short_rows_in_doubles(self, monkeypatch):
        # Where long double is a double (MSVC, macOS on arm64) the short rows'
        # Schur values carry the cofactor expansion's error in doubles. The
        # worst 1F1 error measured that way is 9.7e-13 on these spectra (at
        # most 1.8e-13 in x86 long double) and 1.6e-12 on the closed_form
        # benchmark's.
        policy = TruncationPolicy(max_order=150)
        wide = [hyp1f1_matrix(a, c, eigs, policy).value for eigs, a, c in self.DOUBLE_SHORT_ROWS]
        monkeypatch.setattr(special, "_SHORT_ROW_DTYPE", np.float64)
        narrow = []
        for eigs, a, c in self.DOUBLE_SHORT_ROWS:
            res = hyp1f1_matrix(a, c, eigs, policy)
            assert res.converged
            assert res.value == pytest.approx(gross_richards(a, c, eigs), rel=5e-12), eigs
            narrow.append(res.value)
        if np.finfo(np.longdouble).eps < np.finfo(np.float64).eps:
            assert narrow != wide  # the doubles were used

    @pytest.mark.parametrize("a,c,x,named", [
        pytest.param(math.nan, 3.2, [1.0, 2.0], "a finite (got nan)", id="a-nan"),
        pytest.param(complex(1.5, math.inf), 3.2, [1.0, 2.0], "a finite (got (1.5+infj))",
                     id="a-imag-inf"),
        pytest.param(1.5, math.nan, [1.0, 2.0], "c finite (got nan)", id="c-nan"),
        # the series used to return 1.0 with converged=True here
        pytest.param(1.5, math.inf, [1.0, 2.0], "c finite (got inf)", id="c-inf"),
        pytest.param(1.5, 3.2, [math.nan, 2.0], "eigenvalue 1 finite (got nan)", id="eig-nan"),
        pytest.param(1.5, 3.2, [1.0, math.inf], "eigenvalue 2 finite (got inf)", id="eig-inf"),
        pytest.param(1.5, 3.2, [-math.inf], "eigenvalue 1 finite (got -inf)", id="eig-minus-inf"),
    ])
    def test_non_finite_input_is_named(self, a, c, x, named):
        # refused before summing, not reported as an overflowing value
        with pytest.raises(DomainError, match="1F1 undefined") as info:
            hyp1f1_matrix(a, c, x)
        assert info.value.violated == (named,)

    @staticmethod
    def series_route(a, c, x, policy):
        # hyp1f1_matrix at p = 1 through the general series, Kummer branch
        # included, as it was summed before the scalar recurrence
        lam = np.array([x])
        if x < 0:
            res = _hyp1f1_series(c - a, c, -lam, policy)
            scale = math.exp(x)
            return replace(res, value=scale * res.value, last_increment=scale * res.last_increment)
        return _hyp1f1_series(a, c, lam, policy)

    @staticmethod
    def without_general_series(monkeypatch):
        def refuse(*args):
            raise AssertionError("p = 1 reached the general series")
        monkeypatch.setattr(special, "_hyp1f1_series", refuse)

    @staticmethod
    def outcome(f, *args):
        try:
            res = f(*args)
        except (DomainError, PochhammerPole) as exc:
            return type(exc).__name__, str(exc)
        return "value", repr(res.value), res.order_reached, repr(res.last_increment), res.converged

    def test_p1_recurrence_matches_the_series_bit_for_bit(self, monkeypatch):
        # c = 0, -1 and -2 are poles, at orders 1, 2 and 3; x = 800 overflows
        # at order 475 of 1500; x = +-650 sums past 2**900, so the recurrence
        # rescales its sums, and the result is still the series' own bits
        self.without_general_series(monkeypatch)
        seen = set()
        for a, c, x, max_order in itertools.product(
                [-2.5, -1.0, 0.0, 0.7, 1.5, 6.25], [-2.0, -1.0, -0.5, 0.0, 0.3, 3.2, 7.0],
                [-650.0, -60.0, -3.3, -0.0, 0.0, 0.4, 5.0, 42.0, 650.0, 800.0], [2, 25, 1500]):
            policy = TruncationPolicy(max_order=max_order)
            want = self.outcome(self.series_route, a, c, x, policy)
            assert self.outcome(hyp1f1_matrix, a, c, [x], policy) == want, (a, c, x, max_order)
            seen.add(want[0])
        assert seen == {"value", "DomainError", "PochhammerPole"}

    def test_p1_recurrence_with_complex_a_matches_the_series(self, monkeypatch):
        # numpy divides complex numbers by a reciprocal and a product, Python
        # divides: the running products round apart, by at most 1.7e-15 at
        # order 150 here, and both are as close to mpmath (1.7e-13 at worst)
        self.without_general_series(monkeypatch)
        for a, c, x, max_order in itertools.product(
                [1.5 + 0.5j, -2.0 + 1.0j, 0.3j], [3.2, 0.3 - 0.2j, -0.5],
                [-60.0, -3.3, 0.0, 0.4, 5.0, 42.0], [2, 25, 150]):
            policy = TruncationPolicy(max_order=max_order)
            res = hyp1f1_matrix(a, c, [x], policy)
            want = self.series_route(a, c, x, policy)
            assert (res.order_reached, res.converged) == (want.order_reached, want.converged)
            assert abs(res.value - want.value) <= 4e-15 * abs(want.value), (a, c, x, max_order)
            assert (abs(res.last_increment - want.last_increment)
                    <= 4e-15 * abs(want.last_increment)), (a, c, x, max_order)

    def test_p1_kummer_sum_beyond_double_range(self):
        # 1F1(1.7; 3.2; 800) is about 3e343; etr(X) = e^-800 brings it back
        res = hyp1f1_matrix(1.5, 3.2, [-800.0], TruncationPolicy(max_order=1500))
        assert res.converged
        with mpmath.workdps(40):
            want = float(mpmath.hyp1f1(1.5, 3.2, -800))
        assert want == pytest.approx(1.177414962643664e-4, rel=1e-15, abs=0)
        assert res.value == pytest.approx(want, rel=1e-10, abs=0)

    @pytest.mark.parametrize(
        "v,shift,log_etr",
        [(1.5e300, 400, -707.0), (1.5e300 - 2.5e299j, 400, -707.0),
         (-3.7e299 + 1.1e300j, 450, -705.5)],
        ids=["real", "complex", "complex-wide"],
    )
    def test_etr_scaling_where_the_shifted_sum_alone_overflows(self, v, shift, log_etr):
        # e^log_etr is a normal double, but v 2**shift is past double range:
        # the product is taken as v exp(r) 2**(shift + k)
        assert math.exp(log_etr) >= sys.float_info.min
        with pytest.raises(OverflowError):
            special._ldexp(v, shift)
        got = special._etr_times(v, shift, log_etr)
        with mpmath.workdps(40):
            want = mpmath.mpc(v) * mpmath.mpf(2) ** shift * mpmath.exp(log_etr)
            assert abs(mpmath.mpc(got) - want) <= 2.0 ** -52 * abs(want)

    def test_p1_kummer_sum_scaled_past_double_range(self):
        # 1F1(-1; 3.2; x) = 1 - x / 3.2; the Kummer route sums 1F1(4.2; 3.2; 707),
        # whose shifted sum overflows before e^-707 brings it back
        res = hyp1f1_matrix(-1.0, 3.2, [-707.0], TruncationPolicy(max_order=3000))
        assert res.converged
        # the scaling is exact to an ulp; the p = 1 term recurrence drifts by
        # about 2.8e-15 |x| (1.8e-12 here, ROADMAP item 14)
        assert abs(res.value - 221.9375) <= 1e-11 * 221.9375

    def test_p2_kummer_where_etr_alone_underflows(self):
        # etr(X) = e^-748 is below the smallest double, while the Kummer sum
        # 1F1(2; 42; [376, 372]) is 2.9e216: the product of the two was
        # once returned as 0.0 with converged=True
        eigs = [-376.0, -372.0]
        res = hyp1f1_matrix(40.0, 42.0, eigs, TruncationPolicy(max_order=2500))
        assert res.converged
        want = gross_richards(40.0, 42.0, eigs)
        assert abs(want - 4.0442928968623943e-109) <= 1e-15 * want
        # not pytest.approx, whose default absolute tolerance of 1e-12 takes 0.0
        assert abs(res.value - want) <= 1e-10 * want

    def test_kummer_on_negative_definite_matrix(self):
        eigs = [-0.4, -1.1, -2.3]
        res = hyp1f1_matrix(3.5, 6.0, eigs, WIDE_SERIES)
        assert res.converged
        assert res.value == pytest.approx(gross_richards(3.5, 6.0, eigs), rel=1e-10)

    def test_truncation_flag(self):
        res = hyp1f1_matrix(1.0, 3.0, HermitianMatrix([[4.0]]), TruncationPolicy(max_order=2))
        assert not res.converged
        assert res.order_reached == 2
        assert res.last_increment > 0

    def test_matrix_argument_from_eigs(self):
        lam = [0.3, 0.1]
        via_matrix = hyp1f1_matrix(2.0, 5.0, HermitianMatrix.diagonal(lam))
        via_eigs = hyp1f1_matrix(2.0, 5.0, lam)
        assert via_matrix.value == via_eigs.value

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            TruncationPolicy(max_order=-1)

    @pytest.mark.parametrize("lam,stop", [([0.7], 14), ([-3.3], 24), ([1.0, 2.0], 22),
                                          ([2.0, -1.0, 0.5], 21)],
                             ids=["p1", "p1_kummer", "p2", "p3_mixed"])
    def test_stopping_rule_boundary(self, lam, stop):
        # the stopping rule is met at order stop: a budget of exactly stop
        # orders converges to the same value, one order less does not
        free = hyp1f1_matrix(1.5, 3.2, lam, TruncationPolicy(max_order=150))
        assert free.order_reached == stop and free.converged
        exact = hyp1f1_matrix(1.5, 3.2, lam, TruncationPolicy(max_order=stop))
        assert exact == free
        short = hyp1f1_matrix(1.5, 3.2, lam, TruncationPolicy(max_order=stop - 1))
        assert short.order_reached == stop - 1 and not short.converged


def test_zonal_c_on_eigenvalues_matches_matrix_route():
    rng = np.random.default_rng(53)
    g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    x = HermitianMatrix((g + g.conj().T) / 2)
    lam = np.linalg.eigvalsh(x.array)[::-1]
    for kappa in partitions_of(4, 3):
        assert zonal_c(kappa, lam) == zonal_c(kappa, x)
        assert schur_eval(kappa, lam) == schur_eval(kappa, x)

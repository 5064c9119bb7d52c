"""Output checks for every workload.

Sampling cases pass when the package's own comparator says so
(|estimate - closed form| <= max(4 SE, 1e-4)). Closed forms are compared
at a relative tolerance of 1e-9 against references computed here:
mpmath.hyp1f1 for p = 1, the identity 1F1(a; a; X) = etr(X) for p >= 2,
the determinant formula of Gross and Richards for the exp-trace average
at p >= 2, and mpmath gamma ratios for the other averages. A series that
reports converged=False is not compared; one that reports converged=True
is.
"""

from __future__ import annotations

import math
import mpmath
import numpy as np

from mvda.averages import AverageSpec
from mvda.linalg import HermitianMatrix
from mvda.montecarlo import McReport

REL_TOL = 1e-9


def relative_error(value: float, reference: float) -> float:
    return abs(value - reference) / abs(reference)


def within(value, reference: float) -> bool:
    return (
        isinstance(value, float)
        and math.isfinite(value)
        and relative_error(value, reference) <= REL_TOL
    )


# ---------------------------------------------------------------------------
# sampling


def report_passes(report: McReport) -> bool:
    return report.verdict == "pass"


def report_errored(report: McReport) -> bool:
    """The case raised inside the package: no estimate, so no wrong value."""
    return report.estimate is None and "error" in (report.diagnostics or {})


def same_report(report: McReport, first: McReport) -> bool:
    """Reruns of one case must repeat the estimate bit for bit."""
    return (report.estimate, report.std_error, report.n) == (
        first.estimate, first.std_error, first.n)


# ---------------------------------------------------------------------------
# hyp1f1_matrix


def hyp1f1_reference(a: float, c: float, x: HermitianMatrix) -> float:
    if x.dim == 1:
        with mpmath.workdps(40):
            return float(mpmath.hyp1f1(a, c, float(x.array[0, 0].real)))
    if a != c:
        raise ValueError("no exact reference at p >= 2 unless a == c")
    return math.exp(float(np.trace(x.array).real))


def hyp1f1_determinant(a: float, c: float, eigenvalues) -> float:
    """1F1(a; c; X) of a complex Hermitian X from its distinct eigenvalues.

    Gross and Richards (1989): det[x_r^(m-j) 1F1(a-j+1; c-j+1; x_r)] over
    the Vandermonde product, with scalar 1F1 from mpmath. It shares no code
    with the zonal series of mvda.special.
    """
    m = len(eigenvalues)
    with mpmath.workdps(60):
        x = [mpmath.mpf(float(e)) for e in eigenvalues]
        vandermonde = mpmath.fprod(x[r] - x[s] for r in range(m) for s in range(r + 1, m))
        if vandermonde == 0:
            raise ValueError("the determinant formula needs distinct eigenvalues")
        rows = [[x[r] ** (m - j) * mpmath.hyp1f1(a - j + 1, c - j + 1, x[r])
                 for j in range(1, m + 1)] for r in range(m)]
        return float(mpmath.det(mpmath.matrix(rows)) / vandermonde)


def hyp1f1_ok(result, reference: float) -> bool:
    return not result.converged or within(result.value, reference)


# ---------------------------------------------------------------------------
# evaluate_average


def _lgp(p: int, a):
    """log of the complex matrix-variate gamma function, in mpmath."""
    return p * (p - 1) / 2 * mpmath.log(mpmath.pi) + mpmath.fsum(
        mpmath.loggamma(a - j) for j in range(p))


def average_reference(spec: AverageSpec) -> float:
    """Reference value of one closed-form average."""
    m, f = spec.measure, spec.functional
    p, k = m.p, m.k
    with mpmath.workdps(40):
        al = [mpmath.mpf(a) for a in m.alphas]
        last, total = al[-1], mpmath.fsum(al)
        if f.kind == "det_power":
            gs = [mpmath.mpf(g) for g in f.gammas]
            if m.kind == "rect_type2_p1":
                shifted = [al[j] + m.ns[j] for j in range(k)]
                v = mpmath.fsum(mpmath.loggamma(shifted[j] + gs[j]) - mpmath.loggamma(shifted[j])
                                for j in range(k))
                v += mpmath.loggamma(last - sum(gs)) - mpmath.loggamma(last)
            else:
                v = mpmath.fsum(_lgp(p, al[j] + gs[j]) - _lgp(p, al[j]) for j in range(k))
                if m.kind == "type1":
                    v += _lgp(p, total) - _lgp(p, total + sum(gs))
                else:
                    v += _lgp(p, last - sum(gs)) - _lgp(p, last)
        elif f.kind == "complement_power":
            d = mpmath.mpf(f.delta)
            if m.kind == "rect_type2_p1":
                big = total + sum(m.ns)
                v = (mpmath.loggamma(last + d) - mpmath.loggamma(last)
                     + mpmath.loggamma(big) - mpmath.loggamma(big + d))
            else:
                v = _lgp(p, last + d) - _lgp(p, last) + _lgp(p, total) - _lgp(p, total + d)
        elif f.kind == "phi6":
            _, logdet = np.linalg.slogdet(f.A.array)
            v = _lgp(p, al[0] + al[2]) - _lgp(p, al[2]) - al[0] * mpmath.mpf(float(logdet))
        elif f.kind == "hermitian_form_moment":
            h = mpmath.mpf(f.h)
            a = mpmath.fsum(al[:-1]) + sum(m.ns)
            v = mpmath.loggamma(a + h) - mpmath.loggamma(a)
            if m.kind == "rect_type1_p1":
                v += mpmath.loggamma(a + last) - mpmath.loggamma(a + last + h)
            else:
                v += mpmath.loggamma(last - h) - mpmath.loggamma(last)
        elif f.kind == "exp_trace":
            # E[etr(A X_1)] = 1F1(alpha_1; alpha_1 + alpha_2 + alpha_3; A)
            if f.A is None:
                raise ValueError("no reference for exp_trace without A")
            eigenvalues = np.linalg.eigvalsh(f.A.array)
            return hyp1f1_determinant(float(al[0]), float(total), eigenvalues)
        else:
            raise ValueError(f"no reference for functional {f.kind!r}")
        return float(mpmath.exp(v))


def average_ok(result, reference: float) -> bool:
    if not result.conditions_ok:
        return False
    diagnostics = result.diagnostics or {}
    if diagnostics.get("converged") is False:
        return True
    return within(result.value, reference)

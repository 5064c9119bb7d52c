"""Acceptance suite.

One test per criterion, each printing a [PASS]/[FAIL] line (run with -s to
see them). The full Monte Carlo verification run is shared between the
criteria that need it through a session fixture.
"""

import json
import math
import time

import mpmath
import numpy as np
import pytest

from mvda.averages import (
    FunctionalSpec,
    complement_power_average,
    det_power_average,
    exp_trace_average,
    hermitian_form_moment,
    phi6_average,
)
from mvda.cli import main
from mvda.errors import DomainError
from mvda.linalg import HermitianMatrix
from mvda.measures import MeasureSpec, sample_batch
from mvda.montecarlo import all_passed, default_suite, report_emit, verify_suite
from mvda.rng import SeedSpec
from mvda.special import (
    TruncationPolicy,
    gamma_p_ln,
    hyp1f1_matrix,
    partitions_of,
    zonal_c,
)

mpmath.mp.dps = 40


def report(criterion, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


def random_hermitian_pm1(p, rng):
    """Hermitian matrix with all entry components in [-1, 1].

    Matrices with near-zero trace are redrawn: the weight-class sums are
    then cancellation-dominated and (tr X)^m is too small for a relative
    comparison to be meaningful in floating point.
    """
    while True:
        re = rng.uniform(-1, 1, size=(p, p))
        im = rng.uniform(-1, 1, size=(p, p))
        a = (re + re.T) / 2 + 1j * (im - im.T) / 2
        if abs(np.trace(a).real) >= 0.5:
            return HermitianMatrix(a)


@pytest.fixture(scope="session")
def full_suite_reports():
    cases = default_suite()
    t0 = time.perf_counter()
    reports = verify_suite(cases, workers=1)
    elapsed = time.perf_counter() - t0
    return cases, reports, elapsed


def test_criterion_1_zonal_normalization():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    count = 0
    worst = 0.0
    for p in (1, 2, 3, 4):
        for _ in range(5):
            x = random_hermitian_pm1(p, rng)
            count += 1
            for m in range(7):
                total = sum(zonal_c(k, x) for k in partitions_of(m, p))
                target = x.trace() ** m
                rel = abs(total - target) / max(abs(target), 1e-300)
                worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    report(
        1,
        worst <= 1e-8 and elapsed < 10.0 and count == 20,
        f"zonal weight-class sums match trace powers, worst rel err {worst:.2e}, "
        f"{count} matrices, {elapsed:.2f}s",
    )


def test_criterion_2_truncated_exponential_series():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2025)
    worst = 0.0
    for p in (1, 2, 3):
        for _ in range(4):
            g = rng.normal(size=(p, p)) + 1j * rng.normal(size=(p, p))
            h = (g + g.conj().T) / 2
            h *= 0.5 / np.linalg.norm(h, 2)
            x = HermitianMatrix(h)
            lam = np.linalg.eigvalsh(h)[::-1]
            total = sum(
                zonal_c(k, lam) / math.factorial(m)
                for m in range(11)
                for k in partitions_of(m, p)
            )
            rel = abs(total - math.exp(x.trace())) / math.exp(x.trace())
            worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    report(
        2,
        worst <= 1e-6 and elapsed < 5.0,
        f"order-10 series reproduces exp(tr X), worst rel err {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_3_scalar_reductions():
    checks = 0

    def close(got, want):
        nonlocal checks
        checks += 1
        assert got == pytest.approx(want, rel=1e-10, abs=0), (got, want, checks)

    mpg = mpmath.gamma

    # matrix gamma at p = 1 is the ordinary gamma
    for a in (0.6, 1.0, 1.7, 2.5, 3.3, 4.0, 5.5, 7.2, 10.0, 24.5):
        close(gamma_p_ln(1, a), float(mpmath.loggamma(a)))

    # hyp1f1 at p = 1 is the classical Kummer function
    kummer_sets = [
        (1.0, 3.0, 0.5), (1.5, 3.2, 1.7), (2.0, 5.0, -1.0), (0.7, 2.1, 0.3),
        (2.5, 6.0, 2.0), (1.2, 4.4, -2.5), (3.0, 7.5, 1.1), (0.5, 1.5, -0.4),
        (4.0, 9.0, 3.0), (1.8, 2.9, 0.9),
    ]
    wide = TruncationPolicy(max_order=60)
    for a, c, x in kummer_sets:
        close(
            hyp1f1_matrix(a, c, HermitianMatrix([[x]]), wide).value,
            float(mpmath.hyp1f1(a, c, x)),
        )

    # phi1 / phi2: scalar Dirichlet moments
    for i in range(10):
        a1, a2, a3 = 0.6 + 0.3 * i, 1.1 + 0.2 * i, 2.0 + 0.1 * i
        g1, g2 = 0.5 + 0.1 * i, 0.3
        m = MeasureSpec(kind="type1", p=1, k=2, alphas=(a1, a2, a3))
        want = (
            mpg(a1 + g1) / mpg(a1) * mpg(a2 + g2) / mpg(a2)
            * mpg(a1 + a2 + a3) / mpg(a1 + a2 + a3 + g1 + g2)
        )
        close(det_power_average(m, (g1, g2)).value, float(want))
        d = 0.5 + 0.25 * i
        want2 = mpg(a3 + d) / mpg(a3) * mpg(a1 + a2 + a3) / mpg(a1 + a2 + a3 + d)
        close(complement_power_average(m, d).value, float(want2))

    # phi3: Kummer with c = a1 + a2 + a3
    for i in range(10):
        a1, a2, a3, x = 0.5 + 0.2 * i, 1.0, 1.5, -1.0 + 0.25 * i
        m = MeasureSpec(kind="type1", p=1, k=2, alphas=(a1, a2, a3))
        res = exp_trace_average(m, HermitianMatrix([[x]]), wide)
        close(res.value, float(mpmath.hyp1f1(a1, a1 + a2 + a3, x)))

    # phi4 / phi5: scalar type-2 moments
    for i in range(10):
        a1, a2 = 1.0 + 0.3 * i, 5.0 + 0.5 * i
        g = 0.4 + 0.1 * i
        m = MeasureSpec(kind="type2", p=1, k=1, alphas=(a1, a2))
        want = mpg(a1 + g) / mpg(a1) * mpg(a2 - g) / mpg(a2)
        close(det_power_average(m, (g,)).value, float(want))
        d = 0.5 + 0.2 * i
        want2 = mpg(a2 + d) / mpg(a2) * mpg(a1 + a2) / mpg(a1 + a2 + d)
        close(complement_power_average(m, d).value, float(want2))

    # phi6: gamma ratio times a^(-alpha_1)
    for i in range(10):
        a1, a3, a = 0.5 + 0.2 * i, 1.5 + 0.3 * i, 0.5 + 0.25 * i
        m = MeasureSpec(kind="type2", p=1, k=2, alphas=(a1, 2.0, a3))
        res = phi6_average(m, HermitianMatrix([[a]]))
        close(res.value, float(mpg(a1 + a3) / mpg(a3) * mpmath.power(a, -a1)))

    # phi7 / phi8: shifted scalar type-2 moments
    for i in range(10):
        a1, a2, n1 = 0.3 + 0.1 * i, 5.0 + 0.4 * i, 2
        g = 0.4 + 0.1 * i
        m = MeasureSpec(kind="rect_type2_p1", p=1, k=1, alphas=(a1, a2), ns=(n1,))
        want = mpg(a1 + n1 + g) / mpg(a1 + n1) * mpg(a2 - g) / mpg(a2)
        close(det_power_average(m, (g,)).value, float(want))
        d = 0.5 + 0.2 * i
        want2 = mpg(a2 + d) / mpg(a2) * mpg(a1 + n1 + a2) / mpg(a1 + n1 + a2 + d)
        close(complement_power_average(m, d).value, float(want2))

    # phi9: beta-type moments of the form sum
    for i in range(10):
        a1, a2, n1, h = 0.3 + 0.1 * i, 3.0 + 0.3 * i, 2, 0.5 + 0.2 * i
        s = a1 + n1
        want1 = mpg(s + h) / mpg(s) * mpg(s + a2) / mpg(s + a2 + h)
        close(hermitian_form_moment(
            MeasureSpec(kind="rect_type1_p1", p=1, k=1, alphas=(a1, a2), ns=(n1,)), h
        ).value, float(want1))
        want2 = mpg(s + h) / mpg(s) * mpg(a2 - h) / mpg(a2)
        close(hermitian_form_moment(
            MeasureSpec(kind="rect_type2_p1", p=1, k=1, alphas=(a1, a2), ns=(n1,)), h
        ).value, float(want2))

    report(3, checks >= 9 * 10, f"{checks} scalar-reduction identities at 1e-10 relative")


def test_criterion_4_mc_cross_validation(full_suite_reports):
    cases, reports, elapsed = full_suite_reports
    fails = [r.case_id for r in reports if r.verdict != "pass"]
    families = {c.case_id.split("_")[0] for c in cases}
    report(
        4,
        not fails and elapsed < 300.0 and families >= {f"phi{i}" for i in range(1, 10)},
        f"{len(reports)} closed forms vs MC at N=1e5, seed 42, {elapsed:.1f}s"
        + (f"; failures: {fails}" if fails else ""),
    )


def test_criterion_5_zonal_beta_integral_identity():
    # E[C_kappa(Z A)] under the p=2 matrix beta law equals the Pochhammer
    # ratio times C_kappa(A), for kappa of weight 1 and 2.
    alpha, beta = 2.0, 3.0
    a_arr = np.array([[1.0, 0.3 + 0.1j], [0.3 - 0.1j, 0.7]])
    a_mat = HermitianMatrix(a_arr)
    spec = MeasureSpec(kind="type1", p=2, k=1, alphas=(alpha, beta))
    z = sample_batch(spec, SeedSpec(42, 100), 100_000).stack()[0]
    za = z @ a_arr
    p1 = np.einsum("nii->n", za).real
    p2 = np.einsum("nij,nji->n", za, za).real
    sample_values = {(1,): p1, (2,): (p1**2 + p2) / 2, (1, 1): (p1**2 - p2) / 2}

    # spot-check the trace shortcut against the eigenvalue route
    for idx in range(5):
        w, v = np.linalg.eigh(z[idx])
        sqrt_z = (v * np.sqrt(w)) @ v.conj().T
        lam = np.linalg.eigvalsh(sqrt_z @ a_arr @ sqrt_z)[::-1]
        for kappa in [(1,), (2,), (1, 1)]:
            assert sample_values[kappa][idx] == pytest.approx(
                zonal_c(kappa, lam), rel=1e-8, abs=0
            )

    from mvda.special import pochhammer_gen

    ok = True
    lines = []
    for kappa in [(1,), (2,), (1, 1)]:
        ratio = pochhammer_gen(alpha, kappa) / pochhammer_gen(alpha + beta, kappa)
        target = ratio * zonal_c(kappa, a_mat)
        vals = sample_values[kappa]
        est = vals.mean()
        se = vals.std(ddof=1) / math.sqrt(len(vals))
        z_score = abs(est - target) / se
        ok = ok and z_score <= 4
        lines.append(f"{kappa}: z={z_score:.2f}")
    report(5, ok, "zonal beta-integral identity, " + ", ".join(lines))


def test_criterion_6_nonexistence_handling(tmp_path):
    ok = True
    # type-2 determinant moment past the existence boundary
    m = MeasureSpec(kind="type2", p=2, k=1, alphas=(3.0, 4.0))
    try:
        det_power_average(m, (3.0,))
        ok = False
    except DomainError as exc:
        ok = ok and "alpha_{k+1} - sum(gamma) > p - 1" in exc.violated

    # type-2 form moment with h >= alpha_{k+1}
    try:
        hermitian_form_moment(
            MeasureSpec(kind="rect_type2_p1", p=1, k=1, alphas=(0.5, 3.0), ns=(2,)), 5.0
        )
        ok = False
    except DomainError as exc:
        ok = ok and "alpha_{k+1} - h > 0" in exc.violated

    # CLI surfaces exit code 2 and never a NaN
    spec = tmp_path / "bad.json"
    spec.write_text(
        json.dumps(
            {
                "measure": {"kind": "type2", "p": 1, "k": 1, "alphas": [2.0, 3.0]},
                "functional": "det_power",
                "gammas": [4.0],
            }
        )
    )
    out_file = tmp_path / "res.json"
    code = main(["average", "--spec", str(spec), "--out", str(out_file)])
    doc = json.loads(out_file.read_text())
    ok = ok and code == 2 and doc["conditions_ok"] is False
    ok = ok and "value" not in doc and "log_value" not in doc
    ok = ok and not any(isinstance(v, float) and math.isnan(v) for v in doc.values() if v)
    report(6, ok, "nonexistent moments raise named DomainError, CLI exit 2, no NaN")


def test_criterion_7_determinism(full_suite_reports):
    cases, first_reports, _ = full_suite_reports
    first = report_emit(first_reports, format="json", canonical=True)

    rerun_reports = verify_suite(cases, workers=1)
    rerun = report_emit(rerun_reports, format="json", canonical=True)

    threaded_reports = verify_suite(cases, workers=8)
    threaded = report_emit(threaded_reports, format="json", canonical=True)

    ok = first == rerun == threaded

    # the wall-clock runtime field is the only difference in default mode
    for a, b in zip(first_reports, threaded_reports):
        da, db = a.to_json(), b.to_json()
        da.pop("runtime_ms"), db.pop("runtime_ms")
        ok = ok and da == db
    report(
        7,
        ok,
        "full suite byte-identical across rerun and worker counts 1 vs 8 "
        "(canonical reports; non-canonical differ only in runtime_ms)",
    )


def test_criterion_8_kummer_and_recurrence():
    wide = TruncationPolicy(max_order=60)
    worst_kummer = 0.0
    a, c = 1.5, 3.2
    for x in np.linspace(-2.0, 2.0, 9):
        lhs = hyp1f1_matrix(a, c, HermitianMatrix([[x]]), wide).value
        rhs = math.exp(x) * hyp1f1_matrix(c - a, c, HermitianMatrix([[-x]]), wide).value
        worst_kummer = max(worst_kummer, abs(lhs - rhs) / abs(rhs))

    worst_rec = 0.0
    for p in (1, 2, 3, 4):
        for alpha in (p + 0.5, p + 2.0, p + 10.0):
            lhs = math.exp(gamma_p_ln(p, alpha + 1.0) - gamma_p_ln(p, alpha))
            rhs = float(np.prod([alpha - j for j in range(p)]))
            worst_rec = max(worst_rec, abs(lhs - rhs) / rhs)

    report(
        8,
        worst_kummer <= 1e-8 and worst_rec <= 1e-10,
        f"Kummer identity worst {worst_kummer:.2e} (tol 1e-8), "
        f"gamma recurrence worst {worst_rec:.2e} (tol 1e-10)",
    )

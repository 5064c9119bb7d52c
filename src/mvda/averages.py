"""Closed-form Dirichlet averages in log-stable form.

Every ratio of matrix gamma functions is evaluated as a difference of
log-gammas, so constants that overflow double precision in linear form
stay representable. Existence conditions are checked eagerly and reported
by name through DomainError; a nonexistent moment is a first-class
outcome, never a NaN.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from scipy.special import gammaln

from .errors import DomainError
from .linalg import HermitianMatrix, is_pd, logdet_abs
from .measures import MeasureSpec
from .special import (
    DEFAULT_TRUNCATION,
    LOG_PI,
    TruncationPolicy,
    gamma_p_ln,
    hyp1f1_matrix,
)

FUNCTIONALS = (
    "det_power",
    "complement_power",
    "exp_trace",
    "phi6",
    "hermitian_form_moment",
)


def _require(conditions: list[tuple[str, bool]], context: str) -> None:
    bad = [name for name, ok in conditions if not ok]
    if bad:
        raise DomainError(bad, context=context)


@dataclass(frozen=True)
class AverageResult:
    """Value of a closed-form average, in log and linear form.

    When conditions_ok is false the value fields are absent (None here,
    omitted from JSON) and violated_conditions carries the names.
    """

    log_value: Optional[float] = None
    value: Optional[float] = None
    conditions_ok: bool = True
    violated_conditions: tuple[str, ...] = ()
    diagnostics: Optional[dict] = None

    def to_json(self) -> dict:
        doc: dict = {"conditions_ok": self.conditions_ok}
        if self.conditions_ok:
            doc["log_value"] = self.log_value
            doc["value"] = self.value
        doc["violated_conditions"] = list(self.violated_conditions)
        if self.diagnostics is not None:
            doc["diagnostics"] = self.diagnostics
        return doc

    @classmethod
    def from_domain_error(cls, exc: DomainError) -> "AverageResult":
        return cls(
            log_value=None,
            value=None,
            conditions_ok=False,
            violated_conditions=exc.violated,
        )


def _ok(log_value: float, diagnostics: dict | None = None) -> AverageResult:
    return AverageResult(
        log_value=log_value,
        value=math.exp(log_value),
        conditions_ok=True,
        violated_conditions=(),
        diagnostics=diagnostics,
    )


# ---------------------------------------------------------------------------
# normalizing constants


def normalizer_ln(measure: MeasureSpec) -> float:
    """Log normalizing constant of the measure.

    The type-1 and type-2 measures share the same constant. The
    rectangular constant carries the per-form factors |det B_j|^p and
    Gamma_p(n_j) / pi^(n_j p) on top of shifted Dirichlet gammas.
    """
    measure.validate()
    p, alphas = measure.p, measure.alphas
    if not measure.rectangular:
        return gamma_p_ln(p, sum(alphas)) - sum(gamma_p_ln(p, a) for a in alphas)
    total = gamma_p_ln(p, sum(alphas) + sum(measure.ns)) - gamma_p_ln(p, alphas[-1])
    for j, n in enumerate(measure.ns):
        total += gamma_p_ln(p, n) - n * p * LOG_PI - gamma_p_ln(p, alphas[j] + n)
        if measure.Bs is not None:
            b = measure.Bs[j]
            if not is_pd(b):
                raise DomainError(
                    [f"B_{j + 1} positive definite"], context="rectangular normalizer"
                )
            total += p * logdet_abs(b)
    return total


# ---------------------------------------------------------------------------
# determinant power averages (phi 1, 4, 7)


def det_power_average(measure: MeasureSpec, gammas) -> AverageResult:
    """E of the product of |det X_j| powers under the measure.

    Type-1 shifts every alpha_j up by gamma_j in the normalizer; type-2
    additionally pulls sum(gamma) out of the last parameter, which is why
    only a few of those moments exist. The rectangular type-2 case is the
    type-2 formula with alpha_j + n_j in place of alpha_j.
    """
    measure.validate()
    gammas = tuple(float(g) for g in gammas)
    if len(gammas) != measure.k:
        raise ValueError(f"need k = {measure.k} exponents, got {len(gammas)}")
    p, k, alphas = measure.p, measure.k, measure.alphas
    gsum = sum(gammas)

    if measure.kind == "type1":
        _require(
            [
                (
                    f"alpha_{j + 1} + gamma_{j + 1} > p - 1",
                    alphas[j] + gammas[j] > p - 1,
                )
                for j in range(k)
            ],
            context="type-1 moment does not exist",
        )
        total = sum(
            gamma_p_ln(p, alphas[j] + gammas[j]) - gamma_p_ln(p, alphas[j]) for j in range(k)
        )
        total += gamma_p_ln(p, sum(alphas)) - gamma_p_ln(p, sum(alphas) + gsum)
        return _ok(total)

    if measure.kind == "type2":
        _require(
            [
                (
                    f"alpha_{j + 1} + gamma_{j + 1} > p - 1",
                    alphas[j] + gammas[j] > p - 1,
                )
                for j in range(k)
            ]
            + [("alpha_{k+1} - sum(gamma) > p - 1", alphas[-1] - gsum > p - 1)],
            context="type-2 moment does not exist",
        )
        total = sum(
            gamma_p_ln(p, alphas[j] + gammas[j]) - gamma_p_ln(p, alphas[j]) for j in range(k)
        )
        total += gamma_p_ln(p, alphas[-1] - gsum) - gamma_p_ln(p, alphas[-1])
        return _ok(total)

    if measure.kind == "rect_type2_p1":
        shifted = [alphas[j] + measure.ns[j] for j in range(k)]
        _require(
            [
                (
                    f"alpha_{j + 1} + n_{j + 1} + gamma_{j + 1} > 0",
                    shifted[j] + gammas[j] > 0,
                )
                for j in range(k)
            ]
            + [("alpha_{k+1} - sum(gamma) > 0", alphas[-1] - gsum > 0)],
            context="rectangular type-2 moment does not exist",
        )
        total = sum(
            float(gammaln(shifted[j] + gammas[j]) - gammaln(shifted[j])) for j in range(k)
        )
        total += float(gammaln(alphas[-1] - gsum) - gammaln(alphas[-1]))
        return _ok(total)

    raise ValueError(f"determinant power average not defined for {measure.kind!r}")


# ---------------------------------------------------------------------------
# complement power averages (phi 2, 5, 8)


def complement_power_average(measure: MeasureSpec, delta: float) -> AverageResult:
    """E of the complement determinant power.

    Type-1 averages |det(I - sum X_j)|^delta, type-2 averages
    |det(I + sum X_j)|^(-delta); both shift only the last parameter and
    end up with the same gamma ratio structure.
    """
    measure.validate()
    delta = float(delta)
    p, alphas = measure.p, measure.alphas

    if measure.kind == "type1":
        _require(
            [("alpha_{k+1} + delta > p - 1", alphas[-1] + delta > p - 1)],
            context="type-1 moment does not exist",
        )
        total = gamma_p_ln(p, alphas[-1] + delta) - gamma_p_ln(p, alphas[-1])
        total += gamma_p_ln(p, sum(alphas)) - gamma_p_ln(p, sum(alphas) + delta)
        return _ok(total)

    if measure.kind == "type2":
        _require(
            [("alpha_{k+1} + delta > p - 1", alphas[-1] + delta > p - 1)],
            context="type-2 moment does not exist",
        )
        total = gamma_p_ln(p, alphas[-1] + delta) - gamma_p_ln(p, alphas[-1])
        total += gamma_p_ln(p, sum(alphas)) - gamma_p_ln(p, sum(alphas) + delta)
        return _ok(total)

    if measure.kind == "rect_type2_p1":
        _require(
            [("alpha_{k+1} + delta > 0", alphas[-1] + delta > 0)],
            context="rectangular type-2 moment does not exist",
        )
        big = sum(alphas) + sum(measure.ns)
        total = float(gammaln(alphas[-1] + delta) - gammaln(alphas[-1]))
        total += float(gammaln(big) - gammaln(big + delta))
        return _ok(total)

    raise ValueError(f"complement power average not defined for {measure.kind!r}")


# ---------------------------------------------------------------------------
# exponential trace average (phi 3)


def exp_trace_average(
    p: int,
    alphas,
    a_matrix: HermitianMatrix | None = None,
    policy: TruncationPolicy = DEFAULT_TRUNCATION,
) -> AverageResult:
    """E[exp(tr(A X_1))] under the k = 2 type-1 measure.

    Equals the confluent hypergeometric function of matrix argument with
    numerator alpha_1 and denominator alpha_1 + alpha_2 + alpha_3; the
    identity parameter matrix recovers the plain exp-trace functional.
    """
    alphas = tuple(float(a) for a in alphas)
    if len(alphas) != 3:
        raise ValueError("exp-trace average is defined for k = 2 (three parameters)")
    _require(
        [(f"alpha_{j + 1} > p - 1", alphas[j] > p - 1) for j in range(3)],
        context="exp-trace average undefined",
    )
    if a_matrix is None:
        a_matrix = HermitianMatrix.identity(p)
    if a_matrix.dim != p:
        raise ValueError(f"parameter matrix must be {p}x{p}")
    res = hyp1f1_matrix(alphas[0], sum(alphas), a_matrix, policy)
    diagnostics = {
        "order_reached": res.order_reached,
        "last_increment": res.last_increment,
        "converged": res.converged,
    }
    value = float(res.value)
    return AverageResult(
        log_value=math.log(value) if value > 0 else None,
        value=value,
        conditions_ok=True,
        violated_conditions=(),
        diagnostics=diagnostics,
    )


# ---------------------------------------------------------------------------
# weighted exponential-determinant average (phi 6)


def phi6_average(p: int, alphas, a_matrix: HermitianMatrix) -> AverageResult:
    """E[exp(-tr(A X_1)) |det(I + X_1)|^(alpha_1 + alpha_3)] under the
    k = 2 type-2 measure, for positive definite A.

    The determinant weight is exactly the factor that cancels the
    complement kernel, leaving a pure gamma ratio times |det A|^(-alpha_1).
    """
    alphas = tuple(float(a) for a in alphas)
    if len(alphas) != 3:
        raise ValueError("this average is defined for k = 2 (three parameters)")
    if a_matrix.dim != p:
        raise ValueError(f"parameter matrix must be {p}x{p}")
    _require(
        [(f"alpha_{j + 1} > p - 1", alphas[j] > p - 1) for j in range(3)]
        + [("A positive definite", is_pd(a_matrix))],
        context="weighted exponential average undefined",
    )
    total = gamma_p_ln(p, alphas[0] + alphas[2]) - gamma_p_ln(p, alphas[2])
    total -= alphas[0] * logdet_abs(a_matrix)
    return _ok(total)


# ---------------------------------------------------------------------------
# Hermitian form moments (phi 9)


def hermitian_form_moment(kind: str, h: float, alphas, ns) -> AverageResult:
    """h-th moment of the sum of Hermitian form values at p = 1.

    Under the rectangular type-1 measure the sum is beta distributed with
    parameters (sum(alpha_j + n_j), alpha_{k+1}); under type-2 the moment
    exists only for h < alpha_{k+1}.
    """
    if kind not in ("type1", "type2"):
        raise ValueError(f"kind must be type1 or type2, got {kind!r}")
    h = float(h)
    alphas = tuple(float(a) for a in alphas)
    ns = tuple(int(n) for n in ns)
    if len(alphas) != len(ns) + 1:
        raise ValueError("need one alpha per form plus the closing alpha")
    a = sum(alphas[:-1]) + sum(ns)
    base = [
        (f"alpha_{j + 1} + n_{j + 1} > 0", alphas[j] + ns[j] > 0) for j in range(len(ns))
    ]
    base.append(("alpha_{k+1} > 0", alphas[-1] > 0))
    base.append(("sum(alpha_j + n_j) + h > 0", a + h > 0))
    if kind == "type1":
        _require(base, context="type-1 moment does not exist")
        total = float(gammaln(a + h) - gammaln(a))
        total += float(gammaln(a + alphas[-1]) - gammaln(a + alphas[-1] + h))
        return _ok(total)
    _require(
        base + [("alpha_{k+1} - h > 0", alphas[-1] - h > 0)],
        context="type-2 moment does not exist",
    )
    total = float(gammaln(a + h) - gammaln(a))
    total += float(gammaln(alphas[-1] - h) - gammaln(alphas[-1]))
    return _ok(total)


# ---------------------------------------------------------------------------
# functional descriptor and dispatch


@dataclass(frozen=True)
class FunctionalSpec:
    """Which functional to average, with exactly its own parameters."""

    kind: str
    gammas: Optional[tuple[float, ...]] = None
    delta: Optional[float] = None
    h: Optional[float] = None
    A: Optional[HermitianMatrix] = None
    policy: Optional[TruncationPolicy] = None

    _REQUIRED = {
        "det_power": ("gammas",),
        "complement_power": ("delta",),
        "exp_trace": (),
        "phi6": ("A",),
        "hermitian_form_moment": ("h",),
    }
    _ALLOWED = {
        "det_power": ("gammas",),
        "complement_power": ("delta",),
        "exp_trace": ("A", "policy"),
        "phi6": ("A",),
        "hermitian_form_moment": ("h",),
    }

    def __post_init__(self):
        if self.kind not in FUNCTIONALS:
            raise ValueError(f"unknown functional {self.kind!r}")
        if self.gammas is not None:
            object.__setattr__(self, "gammas", tuple(float(g) for g in self.gammas))
        allowed = set(self._ALLOWED[self.kind])
        for name in ("gammas", "delta", "h", "A", "policy"):
            present = getattr(self, name) is not None
            if present and name not in allowed:
                raise ValueError(f"functional {self.kind!r} does not take {name!r}")
            if not present and name in self._REQUIRED[self.kind]:
                raise ValueError(f"functional {self.kind!r} requires {name!r}")

    def to_json(self) -> dict:
        """Flat field set: the functional name plus exactly its parameters."""
        doc: dict = {"functional": self.kind}
        if self.gammas is not None:
            doc["gammas"] = list(self.gammas)
        if self.delta is not None:
            doc["delta"] = self.delta
        if self.h is not None:
            doc["h"] = self.h
        if self.A is not None:
            doc["A"] = self.A.to_json()
        if self.policy is not None:
            doc["policy"] = {
                "max_order": self.policy.max_order,
                "rel_stop": self.policy.rel_stop,
                "consecutive_orders": self.policy.consecutive_orders,
            }
        return doc

    @classmethod
    def from_json(cls, doc: dict) -> "FunctionalSpec":
        policy = None
        if doc.get("policy") is not None:
            policy = TruncationPolicy(
                max_order=int(doc["policy"].get("max_order", 25)),
                rel_stop=float(doc["policy"].get("rel_stop", 1e-12)),
                consecutive_orders=int(doc["policy"].get("consecutive_orders", 3)),
            )
        return cls(
            kind=doc["functional"],
            gammas=tuple(doc["gammas"]) if doc.get("gammas") is not None else None,
            delta=doc.get("delta"),
            h=doc.get("h"),
            A=HermitianMatrix.from_json(doc["A"]) if doc.get("A") is not None else None,
            policy=policy,
        )


@dataclass(frozen=True)
class AverageSpec:
    """A measure plus a functional: one closed-form average to evaluate."""

    measure: MeasureSpec
    functional: FunctionalSpec

    def to_json(self) -> dict:
        return {"measure": self.measure.to_json(), **self.functional.to_json()}

    @classmethod
    def from_json(cls, doc: dict) -> "AverageSpec":
        return cls(
            measure=MeasureSpec.from_json(doc["measure"]),
            functional=FunctionalSpec.from_json(doc),
        )


def evaluate_average(measure: MeasureSpec, functional: FunctionalSpec) -> AverageResult:
    """Dispatch one (measure, functional) pair to its closed form."""
    if functional.kind == "det_power":
        return det_power_average(measure, functional.gammas)
    if functional.kind == "complement_power":
        return complement_power_average(measure, functional.delta)
    if functional.kind == "exp_trace":
        if measure.kind != "type1" or measure.k != 2:
            raise ValueError("exp-trace average requires the k = 2 type-1 measure")
        measure.validate()
        return exp_trace_average(
            measure.p,
            measure.alphas,
            functional.A,
            functional.policy or DEFAULT_TRUNCATION,
        )
    if functional.kind == "phi6":
        if measure.kind != "type2" or measure.k != 2:
            raise ValueError("this average requires the k = 2 type-2 measure")
        measure.validate()
        return phi6_average(measure.p, measure.alphas, functional.A)
    if functional.kind == "hermitian_form_moment":
        if not measure.rectangular:
            raise ValueError("Hermitian form moments require a rectangular measure")
        measure.validate()
        kind = "type1" if measure.kind == "rect_type1_p1" else "type2"
        return hermitian_form_moment(kind, functional.h, measure.alphas, measure.ns)
    raise ValueError(f"unknown functional {functional.kind!r}")

"""Closed-form Dirichlet averages in log-stable form.

Every ratio of matrix gamma functions is evaluated as a difference of
log-gammas, so constants that overflow double precision in linear form
stay representable. Existence conditions are checked eagerly and reported
by name through DomainError; a nonexistent moment is a first-class
outcome, never a NaN.

Every power average (det_power, complement_power, hermitian_form_moment)
is one moment E prod_j det(Y_j)^m_j of a type-1 Dirichlet measure, with
the complement Y_{k+1} = I - sum Y_j as the last component, so one gamma
ratio (_dirichlet_moment) evaluates them all. A type-2 draw is
X_j = (I - sum Y)^(-1/2) Y_j (I - sum Y)^(-1/2) for Y type-1 at the same
alphas (Olkin & Rubin, Ann. Math. Statist. 35, 1964), so a type-2 power
average is the moment with the complement's exponent lowered by the sum
of the others.

Each functional is one entry of FUNCTIONALS: its parameter names, its
closed form, and its integrand for the Monte Carlo harness.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import reduce
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, NotPositiveDefinite, _json_typed
from .linalg import HermitianMatrix, _sum, logdet_abs
from .measures import Draws, MeasureSpec
from .special import (
    DEFAULT_TRUNCATION,
    LOG_PI,
    TruncationPolicy,
    gamma_p_ln,
    hyp1f1_matrix,
)

# the functional evaluated draw by draw on one chunk: on the log array
# sample_layers returns for a Functional with determinants, else on the Draws
# sample_batch returns
Integrand = Callable[[Draws | np.ndarray], np.ndarray]


def _require(conditions: list[tuple[str, bool]], context: str) -> None:
    bad = [name for name, ok in conditions if not ok]
    if bad:
        raise DomainError(bad, context=context)


def _logdet_pd(h: HermitianMatrix, name: str, context: str) -> float:
    """log det H for positive definite H, which is factored once; otherwise
    DomainError naming "<name> positive definite"."""
    try:
        return logdet_abs(h)
    except NotPositiveDefinite:
        raise DomainError([f"{name} positive definite"], context=context) from None


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
        return cls(conditions_ok=False, violated_conditions=exc.violated)


def _ok(log_value: float) -> AverageResult:
    """The result of a finite log value; DomainError naming "value finite"
    when its value is past double range."""
    try:
        value = math.exp(log_value)
    except OverflowError:
        raise DomainError([f"value finite (log value {log_value!r})"],
                          context="average overflows") from None
    return AverageResult(log_value=log_value, value=value)


# ---------------------------------------------------------------------------
# normalizing constants


def normalizer_ln(measure: MeasureSpec) -> float:
    """Log normalizing constant of the measure.

    The type-1 and type-2 measures share the same constant. The
    rectangular constant carries the per-form factors |det B_j|^p and
    Gamma_p(n_j) / pi^(n_j p) on top of shifted Dirichlet gammas.
    """
    p, alphas = measure.p, measure.alphas
    if not measure.rectangular:
        return gamma_p_ln(p, sum(alphas)) - sum(gamma_p_ln(p, a) for a in alphas)
    total = gamma_p_ln(p, sum(alphas) + sum(measure.ns)) - gamma_p_ln(p, alphas[-1])
    for j, n in enumerate(measure.ns):
        total += gamma_p_ln(p, n) - n * p * LOG_PI - gamma_p_ln(p, alphas[j] + n)
        if measure.Bs is not None:
            total += p * _logdet_pd(measure.Bs[j], f"B_{j + 1}", "rectangular normalizer")
    return total


# ---------------------------------------------------------------------------
# determinant power averages (phi 1, 4, 7)


def _labels(measure: MeasureSpec) -> tuple[list[str], str, str]:
    """Condition text for a closed form over measure.scalar_alphas: the
    names of its first k entries, the bound each shifted parameter must
    exceed (p - 1, which is 0 at the rectangular kinds), and the context
    of a moment that does not exist."""
    k = measure.k
    context = f"type-{1 if measure.type1 else 2} moment does not exist"
    if measure.rectangular:
        return [f"alpha_{j} + n_{j}" for j in range(1, k + 1)], "0", f"rectangular {context}"
    return [f"alpha_{j}" for j in range(1, k + 1)], "p - 1", context


def _gamma_ratio_ln(p: int, x: float, y: float) -> float:
    """log Gamma_p(x) / Gamma_p(y)."""
    return gamma_p_ln(p, x) - gamma_p_ln(p, y)


def _dirichlet_moment(p: int, alphas, ms, big_m, labels, finite, context: str) -> AverageResult:
    """E prod_{j <= k+1} det(Y_j)^m_j under the type-1 Dirichlet measure
    at alphas, with Y_{k+1} = I - sum Y_j:

        prod_j Gamma_p(alpha_j + m_j) / Gamma_p(alpha_j)
            * Gamma_p(A) / Gamma_p(A + M),  A = sum alpha, M = sum m.

    It exists iff every alpha_j + m_j > p - 1. None marks an exponent that
    is 0 by construction: ms[j] where the functional takes no power of
    det Y_j, big_m where the exponents cancel. Its ratio is 1 and no
    log-gamma is evaluated. A given exponent of 0 is evaluated like any
    other, so an overflowing log-gamma still refuses the moment. labels[j]
    names the condition on a given ms[j]; finite holds the (name, ok)
    finiteness conditions, checked after them. At type-2,
    det X_j = det Y_j / det(I - sum Y) and I + sum X = (I - sum Y)^(-1)
    (module docstring), so the type-2 power averages are this moment too.
    """
    given = [(a, m, label) for a, m, label in zip(alphas, ms, labels) if m is not None]
    _require([(label, a + m > p - 1) for a, m, label in given] + finite, context)
    total = sum(_gamma_ratio_ln(p, a + m, a) for a, m, _ in given)
    if big_m is not None:
        big_a = sum(alphas)
        total += _gamma_ratio_ln(p, big_a, big_a + big_m)
    return _ok(total)


def det_power_average(measure: MeasureSpec, gammas) -> AverageResult:
    """E of the product of |det X_j| powers under the measure.

    The Dirichlet moment at exponents (gamma, 0) with M = sum(gamma) at
    type-1 and (gamma, -sum(gamma)) with M = 0 at type-2, which is why only
    a few type-2 moments exist. The rectangular kinds are the p = 1 case at
    the scalar parameters alpha_j + n_j.
    """
    gammas = tuple(float(g) for g in gammas)
    if len(gammas) != measure.k:
        raise ValueError(f"need k = {measure.k} exponents, got {len(gammas)}")
    names, bound, context = _labels(measure)
    labels = [f"{name} + gamma_{j} > {bound}" for j, name in enumerate(names, start=1)]
    labels.append(f"alpha_{{k+1}} - sum(gamma) > {bound}")
    ms = gammas + (None if measure.type1 else -sum(gammas),)
    big_m = sum(gammas) if measure.type1 else None
    finite = [(f"gamma_{j} finite", math.isfinite(g)) for j, g in enumerate(gammas, start=1)]
    return _dirichlet_moment(measure.p, measure.scalar_alphas, ms, big_m, labels, finite, context)


def _det_power_integrand(measure: MeasureSpec, functional: FunctionalSpec) -> Integrand:
    gammas = functional.gammas

    def det_power(logdet: np.ndarray) -> np.ndarray:
        if all(g == 0.0 for g in gammas):
            return np.ones(logdet.shape[-1])
        log = _sum(g * logdet_j for logdet_j, g in zip(logdet, gammas) if g != 0.0)
        return np.exp(log, out=log)

    return det_power


# ---------------------------------------------------------------------------
# complement power averages (phi 2, 5, 8)


def complement_power_average(measure: MeasureSpec, delta: float) -> AverageResult:
    """E of the complement determinant power.

    Type-1 averages |det(I - sum X_j)|^delta, type-2 averages
    |det(I + sum X_j)|^(-delta); both are the Dirichlet moment at exponents
    (0, ..., 0, delta) with M = delta.
    """
    delta = float(delta)
    _, bound, context = _labels(measure)
    labels = [None] * measure.k + [f"alpha_{{k+1}} + delta > {bound}"]
    ms = (None,) * measure.k + (delta,)
    finite = [("delta finite", math.isfinite(delta))]
    return _dirichlet_moment(measure.p, measure.scalar_alphas, ms, delta, labels, finite, context)


def _complement_power_integrand(measure: MeasureSpec, functional: FunctionalSpec) -> Integrand:
    delta = functional.delta

    def complement_power(log_complement: np.ndarray) -> np.ndarray:
        log = delta * log_complement
        return np.exp(log, out=log)

    return complement_power


# ---------------------------------------------------------------------------
# exponential trace average (phi 3)


def exp_trace_average(
    measure: MeasureSpec,
    A: HermitianMatrix | None = None,
    policy: TruncationPolicy = DEFAULT_TRUNCATION,
) -> AverageResult:
    """E[exp(tr(A X_1))] under the k = 2 type-1 measure.

    Equals the confluent hypergeometric function of matrix argument with
    numerator alpha_1 and denominator alpha_1 + alpha_2 + alpha_3; the
    identity parameter matrix, the default, recovers the plain exp-trace
    functional.
    """
    if measure.kind != "type1" or measure.k != 2:
        raise ValueError("exp-trace average requires the k = 2 type-1 measure")
    p, alphas = measure.p, measure.alphas
    if A is None:
        A = HermitianMatrix.identity(p)
    if A.dim != p:
        raise ValueError(f"parameter matrix must be {p}x{p}")
    diagnostics = dict(vars(hyp1f1_matrix(alphas[0], sum(alphas), A, policy)))
    value = float(diagnostics.pop("value"))
    return AverageResult(log_value=math.log(value) if value > 0 else None, value=value,
                         diagnostics=diagnostics)


def _exp_trace_integrand(measure: MeasureSpec, functional: FunctionalSpec) -> Integrand:
    a = (functional.A.array if functional.A is not None
         else np.eye(measure.p, dtype=np.complex128))

    def exp_trace(draws: Draws) -> np.ndarray:
        trace = draws.trace(a, 0)
        return np.exp(trace, out=trace)

    return exp_trace


# ---------------------------------------------------------------------------
# weighted exponential-determinant average (phi 6)


def phi6_average(measure: MeasureSpec, A: HermitianMatrix) -> AverageResult:
    """E[exp(-tr(A X_1)) |det(I + X_1)|^(alpha_1 + alpha_3)] under the
    k = 2 type-2 measure, for positive definite A.

    The determinant weight is exactly the factor that cancels the
    complement kernel, leaving a pure gamma ratio times |det A|^(-alpha_1).
    """
    if measure.kind != "type2" or measure.k != 2:
        raise ValueError("this average requires the k = 2 type-2 measure")
    p, alphas = measure.p, measure.alphas
    if A.dim != p:
        raise ValueError(f"parameter matrix must be {p}x{p}")
    logdet_a = _logdet_pd(A, "A", "weighted exponential average undefined")
    total = _gamma_ratio_ln(p, alphas[0] + alphas[2], alphas[2])
    return _ok(total - alphas[0] * logdet_a)


def _phi6_integrand(measure: MeasureSpec, functional: FunctionalSpec) -> Integrand:
    a = functional.A.array
    # alpha_1 + alpha_3, as alpha_{k+1} so that it reads the same on the k = 1
    # measure of X_1 alone
    expo = measure.alphas[0] + measure.alphas[-1]

    def phi6(draws: Draws) -> np.ndarray:
        log = expo * draws.logdet_eye_plus((0,))
        log -= draws.trace(a, 0)
        return np.exp(log, out=log)

    return phi6


# ---------------------------------------------------------------------------
# Hermitian form moments (phi 9)


def hermitian_form_moment(measure: MeasureSpec, h: float) -> AverageResult:
    """h-th moment of the sum of Hermitian form values at p = 1.

    Under the rectangular type-1 measure the sum is beta distributed with
    parameters (sum(alpha_j + n_j), alpha_{k+1}), so this is the Dirichlet
    moment of that pair at exponents (h, 0) with M = h at type-1 and
    (h, -h) with M = 0 at type-2, where it exists only for h < alpha_{k+1}.
    """
    if not measure.rectangular:
        raise ValueError("Hermitian form moments require a rectangular measure")
    h = float(h)
    alphas = measure.alphas
    a = sum(alphas[:-1]) + sum(measure.ns)
    ms, big_m = ((h, None), h) if measure.type1 else ((h, -h), None)
    labels = ["sum(alpha_j + n_j) + h > 0", "alpha_{k+1} - h > 0"]
    finite = [("h finite", math.isfinite(h))]
    context = f"type-{1 if measure.type1 else 2} moment does not exist"
    return _dirichlet_moment(1, (a, alphas[-1]), ms, big_m, labels, finite, context)


def _form_moment_integrand(measure: MeasureSpec, functional: FunctionalSpec) -> Integrand:
    h = functional.h

    def form_moment(draws: Draws) -> np.ndarray:
        # the rectangular measures have p = 1, where tr(I X_j) is x_j
        return reduce(np.add, draws.values) ** h

    return form_moment


# ---------------------------------------------------------------------------
# the functional table


@dataclass(frozen=True)
class Functional:
    """One entry of FUNCTIONALS.

    closed_form(measure, **params) is the average, where params are the
    FunctionalSpec fields named in required or optional that are set;
    integrand(measure, functional) returns the functional as a function
    of one chunk's draws, for the Monte Carlo harness (Integrand).
    exponent names the parameter that squaring the functional doubles, so
    its second moment is the closed form there; None for exp_trace (bounded
    on 0 < X_1 < I) and phi6 (finite for every positive definite A).
    reads names the component sums the integrand reads (measures.READS):
    "each" X_j, only "sum" X_1 + ... + X_k, or only the "first" X_1; the
    Monte Carlo harness draws MeasureSpec.sums_measure(reads) for it.
    determinants is True when the integrand reads only determinants: log
    det X_j for reads "each", the complement determinant for "sum". The
    harness then draws the p scalar layers MeasureSpec.layers(reads) at
    every p, in place of the sums measure itself, and the integrand takes
    the log array measures.sample_layers returns; every other integrand
    takes the Draws of measures.sample_batch.
    """

    required: tuple[str, ...]
    optional: tuple[str, ...]
    closed_form: Callable[..., AverageResult]
    integrand: Callable[[MeasureSpec, FunctionalSpec], Integrand]
    exponent: Optional[str] = None
    reads: str = "each"
    determinants: bool = False


FUNCTIONALS: dict[str, Functional] = {
    "det_power": Functional(
        ("gammas",), (), det_power_average, _det_power_integrand, "gammas", determinants=True
    ),
    "complement_power": Functional(
        ("delta",), (), complement_power_average, _complement_power_integrand, "delta", "sum",
        determinants=True,
    ),
    "exp_trace": Functional(
        (), ("A", "policy"), exp_trace_average, _exp_trace_integrand, reads="first"
    ),
    "phi6": Functional(("A",), (), phi6_average, _phi6_integrand, reads="first"),
    "hermitian_form_moment": Functional(
        ("h",), (), hermitian_form_moment, _form_moment_integrand, "h", "sum"
    ),
}


# ---------------------------------------------------------------------------
# functional descriptor and dispatch


def _same(value):
    return value


def _policy_from_json(doc: dict) -> TruncationPolicy:
    """A document without max_order takes TruncationPolicy's default."""
    extra = sorted(set(doc) - {"max_order"})
    if extra:
        raise ValueError(f"policy takes only max_order, got {extra}")
    return TruncationPolicy(**{key: _json_typed(doc[key], key, "integer") for key in doc})


# FunctionalSpec's parameter fields in JSON key order: (to JSON, from JSON)
_PARAMS = {
    "gammas": (list, lambda value: tuple(_json_typed(value, "gammas", "array", "number"))),
    "delta": (_same, lambda value: _json_typed(value, "delta", "number")),
    "h": (_same, lambda value: _json_typed(value, "h", "number")),
    "A": (HermitianMatrix.to_json, HermitianMatrix.from_json),
    "policy": (asdict, _policy_from_json),
}


@dataclass(frozen=True)
class FunctionalSpec:
    """Which functional to average, with exactly its own parameters."""

    kind: str
    gammas: Optional[tuple[float, ...]] = None
    delta: Optional[float] = None
    h: Optional[float] = None
    A: Optional[HermitianMatrix] = None
    policy: Optional[TruncationPolicy] = None

    def __post_init__(self):
        entry = FUNCTIONALS.get(self.kind)
        if entry is None:
            raise ValueError(f"unknown functional {self.kind!r}")
        if self.gammas is not None:
            object.__setattr__(self, "gammas", tuple(float(g) for g in self.gammas))
        for name in ("delta", "h"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, float(getattr(self, name)))
        for name in _PARAMS:
            present = getattr(self, name) is not None
            if present and name not in entry.required + entry.optional:
                raise ValueError(f"functional {self.kind!r} does not take {name!r}")
            if not present and name in entry.required:
                raise ValueError(f"functional {self.kind!r} requires {name!r}")

    def params(self) -> dict:
        """The parameters that are set, by field name."""
        return {name: getattr(self, name) for name in _PARAMS if getattr(self, name) is not None}

    def to_json(self) -> dict:
        """Flat field set: the functional name plus exactly its parameters."""
        encoded = {name: _PARAMS[name][0](value) for name, value in self.params().items()}
        return {"functional": self.kind, **encoded}

    @classmethod
    def from_json(cls, doc: dict) -> "FunctionalSpec":
        params = {
            name: decode(doc[name])
            for name, (_, decode) in _PARAMS.items()
            if doc.get(name) is not None
        }
        return cls(kind=doc["functional"], **params)


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
    """The closed form of one (measure, functional) pair."""
    return FUNCTIONALS[functional.kind].closed_form(measure, **functional.params())

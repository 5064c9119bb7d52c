"""Exception hierarchy shared across the package, and the type check of
decoded JSON fields."""

from __future__ import annotations


class MvdaError(Exception):
    """Base class for all errors raised by this package."""


class NotPositiveDefinite(MvdaError):
    """A matrix required to be Hermitian positive definite is not."""


class DomainError(MvdaError):
    """Parameter values violate the existence conditions of a quantity.

    Carries the violated conditions by name so callers (and the CLI) can
    report exactly which inequality failed instead of surfacing a NaN.
    """

    def __init__(self, violated: list[str] | tuple[str, ...], context: str = ""):
        self.violated = tuple(violated)
        head = context or "domain conditions violated"
        super().__init__(f"{head}: " + "; ".join(self.violated))


class BadWeights(MvdaError):
    """Weight vector is not a strictly positive probability vector."""


class BadSupport(MvdaError):
    """A value lies outside the support required by an operation."""


class PochhammerPole(MvdaError):
    """A denominator Pochhammer factor vanished for an enumerated partition."""


class SamplerError(MvdaError):
    """A sampler produced output violating its support constraints."""


class NonFiniteIntegrand(MvdaError):
    """An integrand evaluated to NaN/Inf during Monte Carlo estimation."""

    def __init__(self, sample_index: int):
        self.sample_index = sample_index
        super().__init__(f"non-finite integrand value at sample index {sample_index}")


# the Python types json.loads gives each JSON type a field can require; a
# number may also be numeric text, which a hand-written config can hold
_JSON_TYPES = {"integer": int, "number": (int, float, str), "array": list}


def _json_typed(value, name: str, kind: str, items: str | None = None):
    """value, the decoded JSON field name, if it has the JSON type kind
    ("integer", "number" or "array", whose entries then have type items);
    otherwise TypeError naming the field. A bool is neither an integer nor a
    number, and a string is not an array."""
    if isinstance(value, bool) or not isinstance(value, _JSON_TYPES[kind]):
        raise TypeError(f"{name} must be a JSON {kind}, got {value!r}")
    if items is not None:
        for i, item in enumerate(value):
            _json_typed(item, f"{name}[{i}]", items)
    return value

"""Deterministic random variate generation.

All randomness flows from numpy's SFC64 bit generator, whose state a
SeedSequence derives from a (seed, stream, chunk) triple. Uniform doubles
come from its raw 64-bit output; normals (a ziggurat) and gammas come from
numpy's Generator on the same bit generator. A gamma below shape 1 is
Gamma(shape + 1) * exp(-E / shape) with E standard exponential (Marsaglia
& Tsang, ACM TOMS 26(3), 2000), because numpy's own sampler is slower at
those shapes. Draws are bit-exact per triple, whatever the process or
worker count, on one numpy version: NumPy (NEP 19) does not promise the
same Generator output across versions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import _json_typed

_U64_MAX = 2**64 - 1


@dataclass(frozen=True)
class SeedSpec:
    """A (seed, stream) pair that fully determines a random sequence."""

    seed: int
    stream: int = 0

    def __post_init__(self):
        for name in ("seed", "stream"):
            v = getattr(self, name)
            if not 0 <= v <= _U64_MAX:
                raise ValueError(f"{name} must be an unsigned 64-bit integer, got {v!r}")

    def child(self, index: int) -> "CounterRng":
        """Independent substream for a fixed chunk index."""
        return CounterRng(self, chunk=index)

    def to_json(self) -> dict:
        return {"seed": self.seed, "stream": self.stream}

    @classmethod
    def from_json(cls, doc: dict) -> "SeedSpec":
        return cls(
            seed=_json_typed(doc["seed"], "seed", "integer"),
            stream=_json_typed(doc.get("stream", 0), "stream", "integer"),
        )


class CounterRng:
    """Variate source for one (seed, stream, chunk) triple.

    Within an instance, generation is sequential; distinct triples hash to
    distinct SFC64 states, whose streams are statistically independent.
    """

    def __init__(self, seed: SeedSpec, chunk: int = 0):
        ss = np.random.SeedSequence(entropy=seed.seed, spawn_key=(seed.stream, chunk))
        self._bits = np.random.SFC64(ss)
        self._gen = np.random.Generator(self._bits)

    def uniforms(self, n: int) -> np.ndarray:
        """n doubles uniform on (0, 1]; never exactly zero, so logs are finite.

        No sampler draws from this; it is kept for callers that want raw
        uniforms on the same stream.
        """
        raw = self._bits.random_raw(n)
        return ((raw >> np.uint64(11)) + np.uint64(1)) * (2.0**-53)

    def normals(self, n: int) -> np.ndarray:
        """n standard normals from numpy's ziggurat on this instance's stream."""
        return self._gen.standard_normal(n)

    def gammas(self, shape: float, n: int, out: np.ndarray | None = None) -> np.ndarray:
        """n draws from Gamma(shape, 1) for any finite shape > 0 on this
        instance's stream, written into out (a float64 array of length n)
        when it is given.

        At shape >= 1 this is numpy's standard_gamma(shape). Below 1 it is
        Gamma(shape) = Gamma(shape + 1) * U**(1/shape) (Marsaglia & Tsang,
        ACM TOMS 26(3), 2000) with U = exp(-E): standard_gamma(shape + 1, n),
        then standard_exponential(n), combined as g * exp(E / -shape).
        """
        if not 0 < shape < math.inf:
            raise ValueError(f"shape must be finite and > 0, got {shape!r}")
        if shape >= 1.0:
            return self._gen.standard_gamma(shape, n, out=out)
        g = self._gen.standard_gamma(shape + 1.0, n, out=out)
        e = self._gen.standard_exponential(n)
        # divide, not multiply by 1/shape: that is inf at a subnormal shape,
        # and 0 * inf is nan; E / -shape overflows only to -inf, which makes
        # the draw exactly 0
        with np.errstate(over="ignore"):
            np.divide(e, -shape, out=e)
        np.exp(e, out=e)
        g *= e
        return g

    def complex_normals(self, n: int) -> np.ndarray:
        """n standard complex normals: consecutive pairs of normals, scaled
        by sqrt(1/2), as real and imaginary parts (so E|z|^2 = 1)."""
        return math.sqrt(0.5) * self.normals(2 * n).view(np.complex128)

"""Monte Carlo estimation and closed-form verification harness.

Estimation is chunked: chunk c of a run covers a fixed sample-index range
and draws from its own (seed, stream, c) substream, so the estimate is a
pure function of the configuration. Workers only change who computes a
chunk, never what the chunk contains, and the reduction runs in chunk
order, which makes reports bit-reproducible across worker counts.

Each functional names the component sums its integrand reads
(averages.Functional.reads), and the estimate draws the Dirichlet measure
of those sums, MeasureSpec.sums_measure, in place of the case's own: a
functional of X_1 + ... + X_k or of X_1 alone draws two gamma components
where the full measure draws k + 1. A sum of independent complex matrix
gammas with one scale is a matrix gamma at the summed shape (Goodman,
Ann. Math. Statist. 34, 1963), so the integrand has exactly the same law
on either measure, and the estimate is unbiased with the same standard
error in expectation. sampled_alphas in the diagnostics names the drawn
measure wherever its alphas differ from the case's own.

A functional that reads only determinants (averages.Functional.determinants:
det_power and complement_power) draws no matrices. Each chunk draws the p
scalar layers of the sums measure, MeasureSpec.layers, from its one
substream, and the integrand takes the log-determinants summed over the
layers (measures.sample_layers, where the law is proved); at p = 1 the one
layer is the sums measure itself. Every other functional's chunk draws the
sums measure with sample_batch, whose Draws its integrand takes. Each case
picks its draw function once.

A case passes iff |estimate - closed form| <= max(4 SE, ABS_FLOOR). The SE
is a standard error only when the integrand has a finite second moment. For
the power functionals that moment is the closed form at twice the exponent,
so a case where it does not exist fails by name before any draw.
"""

from __future__ import annotations

import csv
import ctypes
import io
import json
import math
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, fields, replace
from functools import partial
from importlib import resources
from typing import Optional, Sequence

import numpy as np

from .averages import FUNCTIONALS, FunctionalSpec, Integrand, evaluate_average
from .errors import DomainError, MvdaError, NonFiniteIntegrand, _json_typed
from .measures import MeasureSpec, sample_batch, sample_layers
from .rng import SeedSpec

# Comparator floor: a case passes iff |estimate - closed form| <= max(4 SE, ABS_FLOOR).
ABS_FLOOR = 1e-4


@dataclass(frozen=True)
class McConfig:
    samples: int
    seed: SeedSpec
    chunk: int = 25000

    def __post_init__(self):
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        if self.chunk < 1:
            raise ValueError("chunk must be >= 1")

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, doc: dict) -> "McConfig":
        return cls(
            samples=_json_typed(doc["samples"], "samples", "integer"),
            seed=SeedSpec.from_json(doc["seed"]),
            chunk=_json_typed(doc.get("chunk", cls.chunk), "chunk", "integer"),
        )


@dataclass(frozen=True)
class McReport:
    case_id: str
    estimate: Optional[float]
    std_error: Optional[float]
    closed_form: Optional[float]
    abs_diff: Optional[float]
    tolerance: Optional[float]
    verdict: str
    n: int
    runtime_ms: int
    diagnostics: Optional[dict] = None

    def to_json(self, canonical: bool = False) -> dict:
        """The fields in order, shallow: a copy of the instance dict, whose
        diagnostics is this report's own dict. canonical zeroes the
        wall-clock runtime_ms."""
        doc = dict(vars(self))
        if canonical:
            doc["runtime_ms"] = 0
        return doc


_CSV_FIELDS = tuple(f.name for f in fields(McReport) if f.name != "diagnostics")
CSV_HEADER = ",".join(_CSV_FIELDS)


@dataclass(frozen=True)
class VerifyCase:
    case_id: str
    measure: MeasureSpec
    functional: FunctionalSpec
    mc: McConfig

    def to_json(self) -> dict:
        return {
            "case_id": self.case_id,
            "measure": self.measure.to_json(),
            **self.functional.to_json(),
            "mc": self.mc.to_json(),
        }

    @classmethod
    def from_json(cls, doc: dict) -> "VerifyCase":
        return cls(
            case_id=_json_typed(doc["case_id"], "case_id", "string"),
            measure=MeasureSpec.from_json(doc["measure"]),
            functional=FunctionalSpec.from_json(doc),
            mc=McConfig.from_json(doc["mc"]),
        )


# ---------------------------------------------------------------------------
# integrands over sample batches


def make_integrand(measure: MeasureSpec, functional: FunctionalSpec) -> Integrand:
    """Vectorized evaluator of the functional on one chunk's draws (see
    averages.Integrand)."""
    return FUNCTIONALS[functional.kind].integrand(measure, functional)


# ---------------------------------------------------------------------------
# chunked estimation

# glibc mallopt(3) parameters, and the values pinned for them: a chunk's
# temporaries (at 25k draws, a peak of 1.5-2.5 MiB for scalar and layered
# draws, 7.2-7.8 MiB for a p = 3 grid chunk) stay on the heap instead of being
# mapped, trimmed back to the kernel and faulted in again by the next chunk,
# and worker threads share the one arena, whose trim threshold would
# otherwise keep each extra arena's chunks resident.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_M_ARENA_MAX = -8
_HEAP_PIN = ((_M_MMAP_THRESHOLD, 32 << 20), (_M_TRIM_THRESHOLD, 64 << 20), (_M_ARENA_MAX, 1))
_MALLOC_ENV = ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_", "MALLOC_ARENA_MAX")

_heap_pin_lock = threading.Lock()
_heap_pin_tried = False


def _pin_heap() -> bool:
    """Pin glibc's malloc mmap and trim thresholds and its arena count
    (M_ARENA_MAX = 1), once per process.

    True iff this call pinned them. Nothing is pinned off glibc, or when
    the environment sets either threshold, MALLOC_ARENA_MAX or any
    glibc.malloc tunable, since a user's own allocator settings win; a
    mallopt call that returns 0 leaves the rest as they are. The arena
    limit stops new arenas only: one made before the pin, by a thread that
    allocated earlier, stays.
    """
    global _heap_pin_tried
    with _heap_pin_lock:
        if _heap_pin_tried:
            return False
        _heap_pin_tried = True
    try:
        libc = os.confstr("CS_GNU_LIBC_VERSION") or ""
    except (AttributeError, ValueError, OSError):
        return False
    if not libc.startswith("glibc") or any(v in os.environ for v in _MALLOC_ENV):
        return False
    if "glibc.malloc." in os.environ.get("GLIBC_TUNABLES", ""):
        return False
    mallopt = ctypes.CDLL(None).mallopt
    return all(mallopt(param, value) == 1 for param, value in _HEAP_PIN)


def _chunk_sums(draw, integrand, config, c):
    """(sum, sum of squares) of the integrand over chunk c, on the draws of
    draw(seed, n, chunk=c): sample_batch on the sums measure, or
    sample_layers on its layers."""
    start = c * config.chunk
    n = min(config.chunk, config.samples - start)
    draws = draw(config.seed, n, chunk=c)
    # a non-finite value makes a sum non-finite, and only then are the
    # values scanned; sums past double range over finite values are left to
    # mc_estimate_full
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        vals = integrand(draws)
        s1, s2 = float(np.sum(vals)), float(np.sum(vals * vals))
    if not (math.isfinite(s1) and math.isfinite(s2)):
        finite = np.isfinite(vals)
        if not finite.all():
            raise NonFiniteIntegrand(start + int(np.argmin(finite)))
    return s1, s2


def mc_estimate_full(
    measure: MeasureSpec, functional: FunctionalSpec, config: McConfig, workers: int = 1
) -> tuple[float, float, int, dict]:
    """(estimate, std_error, n, diagnostics) from n = config.samples draws:
    the sample mean and the sample standard deviation over sqrt(n).

    The draws come from measure.sums_measure of the functional's reads,
    as its p scalar layers for a functional of determinants (see the
    module docstring). diagnostics holds the sums measure's alphas as
    sampled_alphas when they differ from the measure's own scalar_alphas,
    else it is {}. A non-finite integrand value raises NonFiniteIntegrand;
    finite values whose sum of squares passes double range raise
    DomainError naming "sum of f**2 finite".
    """
    _pin_heap()
    entry = FUNCTIONALS[functional.kind]
    drawn = measure.sums_measure(entry.reads)
    # built once for every chunk of the case
    if entry.determinants:
        draw = partial(sample_layers, drawn.layers(entry.reads), entry.reads)
    else:
        draw = partial(sample_batch, drawn)
    run = partial(_chunk_sums, draw, make_integrand(drawn, functional), config)
    chunks = range(-(-config.samples // config.chunk))
    if workers <= 1:
        parts = [run(c) for c in chunks]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(run, chunks))

    n = config.samples
    s1 = s2 = 0.0
    for a, b in parts:  # fixed reduction order: chunk index
        s1 += a
        s2 += b
    # every value was finite, so an infinite sum of squares (which a sum
    # past double range implies) leaves the standard error inf, and a 4 SE
    # band would pass any estimate
    if not math.isfinite(s2):
        raise DomainError(["sum of f**2 finite (got inf)"], context="standard error overflows")
    mean = s1 / n
    var = max(s2 - n * mean * mean, 0.0) / (n - 1) if n > 1 else 0.0
    sampled = drawn.scalar_alphas
    same = sampled == measure.scalar_alphas
    return mean, (var / n) ** 0.5, n, {} if same else {"sampled_alphas": list(sampled)}


# ---------------------------------------------------------------------------
# verification


def build_report(
    case_id: str,
    estimate: float,
    std_error: float,
    n: int,
    closed_form: float,
    runtime_ms: int = 0,
    diagnostics: dict | None = None,
) -> McReport:
    """Comparator: pass iff |estimate - closed_form| <= max(4 SE, ABS_FLOOR)."""
    tolerance = max(4.0 * std_error, ABS_FLOOR)
    abs_diff = abs(estimate - closed_form)
    return McReport(
        case_id=case_id,
        estimate=float(estimate),
        std_error=float(std_error),
        closed_form=float(closed_form),
        abs_diff=float(abs_diff),
        tolerance=float(tolerance),
        verdict="pass" if abs_diff <= tolerance else "fail",
        n=int(n),
        runtime_ms=runtime_ms,
        diagnostics=diagnostics,
    )


def _squared(functional: FunctionalSpec) -> Optional[FunctionalSpec]:
    """The functional f**2, when it is f at twice its exponent parameter."""
    name = FUNCTIONALS[functional.kind].exponent
    if name is None:
        return None
    value = getattr(functional, name)
    doubled = tuple(2.0 * v for v in value) if isinstance(value, tuple) else 2.0 * value
    return replace(functional, **{name: doubled})


def _failed(case: VerifyCase, t0: float, exc: Exception, **extra) -> McReport:
    detail = {"error": type(exc).__name__, "message": str(exc)}
    if isinstance(exc, DomainError):
        detail["violated_conditions"] = list(exc.violated)
    return McReport(
        case_id=case.case_id,
        estimate=None,
        std_error=None,
        closed_form=None,
        abs_diff=None,
        tolerance=None,
        verdict="fail",
        n=0,
        runtime_ms=int((time.perf_counter() - t0) * 1000),
        diagnostics={**detail, **extra},
    )


def verify_case(case: VerifyCase, workers: int = 1) -> McReport:
    """One case's closed form against its estimate, drawn only when the
    second moment is known to exist (see the module docstring)."""
    t0 = time.perf_counter()
    try:
        closed = evaluate_average(case.measure, case.functional)
        squared = _squared(case.functional)
        if squared is not None:
            try:
                evaluate_average(case.measure, squared)
            except DomainError as exc:
                return _failed(case, t0, exc, reason="second moment does not exist")
        estimate, se, n_used, diagnostics = mc_estimate_full(
            case.measure, case.functional, case.mc, workers
        )
    except (MvdaError, ValueError) as exc:
        return _failed(case, t0, exc)
    runtime_ms = int((time.perf_counter() - t0) * 1000)
    report = build_report(
        case.case_id,
        estimate,
        se,
        n_used,
        closed.value,
        runtime_ms=runtime_ms,
        diagnostics=diagnostics,
    )
    series = closed.diagnostics or {}
    if series.get("converged") is False:
        # a truncated series is not the closed form, whatever the estimate says
        reason = f"closed-form series did not converge by order {series['order_reached']}"
        return replace(report, verdict="fail", diagnostics={**diagnostics, "reason": reason})
    return report


def verify_suite(cases: Sequence[VerifyCase], workers: int = 1) -> list[McReport]:
    """One McReport per case; errors are recorded per case, never raised."""
    ids = [c.case_id for c in cases]
    if len(set(ids)) != len(ids):
        raise ValueError("case_id values must be unique within a suite")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    return [verify_case(c, workers=workers) for c in cases]


def all_passed(reports: Sequence[McReport]) -> bool:
    return all(r.verdict == "pass" for r in reports)


# ---------------------------------------------------------------------------
# suite configuration and report serialization


def load_suite(docs: list) -> list[VerifyCase]:
    """The cases of a decoded suite config, a JSON array of case documents."""
    if not isinstance(docs, list):
        raise ValueError("suite config must be a JSON array of cases")
    if not docs:
        raise ValueError("suite config must hold at least one case")
    return [VerifyCase.from_json(d) for d in docs]


def default_suite() -> list[VerifyCase]:
    """The pinned verification suite shipped with the package."""
    text = resources.files("mvda").joinpath("data/default_suite.json").read_text()
    return load_suite(json.loads(text))


def report_emit(
    reports: Sequence[McReport], format: str = "json", canonical: bool = False
) -> bytes:
    """Serialize reports with stable field order.

    canonical=True zeroes the wall-clock runtime_ms field, which is the one
    intentionally non-deterministic value; everything else is reproducible
    bit for bit for a fixed configuration.
    """
    if format == "json":
        docs = [r.to_json(canonical=canonical) for r in reports]
        return (json.dumps(docs, indent=2) + "\n").encode("utf-8")
    if format == "csv":
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")  # quotes a cell holding , " or a newline
        writer.writerow(_CSV_FIELDS)
        for r in reports:
            doc = r.to_json(canonical=canonical)
            writer.writerow(
                "nan" if v is None else (repr(v) if isinstance(v, float) else str(v))
                for v in (doc[key] for key in _CSV_FIELDS)
            )
        return out.getvalue().encode("utf-8")
    raise ValueError(f"unknown report format {format!r}")

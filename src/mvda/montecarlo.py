"""Monte Carlo estimation and closed-form verification harness.

Estimation is chunked: chunk c of a run covers a fixed sample-index range
and draws from its own (seed, stream, c) substream, so the estimate is a
pure function of the configuration. Workers only change who computes a
chunk, never what the chunk contains, and the reduction runs in chunk
order, which makes reports bit-reproducible across worker counts.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from importlib import resources
from typing import Optional, Sequence

import numpy as np

from .averages import FUNCTIONALS, FunctionalSpec, Integrand, evaluate_average
from .errors import DomainError, MvdaError, NonFiniteIntegrand
from .measures import MeasureSpec, sample_batch
from .rng import SeedSpec

# Heavy-tail guard: when the plain kurtosis of a first pass exceeds this,
# the estimate is rerun at ten times the sample count.
KURTOSIS_LIMIT = 50.0
KURTOSIS_BOOST = 10

# Comparator floor: a case passes iff |estimate - closed form| <= max(4 SE, ABS_FLOOR).
ABS_FLOOR = 1e-4

CSV_HEADER = "case_id,estimate,std_error,closed_form,abs_diff,tolerance,verdict,n,runtime_ms"


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
        return {"samples": self.samples, "seed": self.seed.to_json(), "chunk": self.chunk}

    @classmethod
    def from_json(cls, doc: dict) -> "McConfig":
        return cls(
            samples=int(doc["samples"]),
            seed=SeedSpec.from_json(doc["seed"]),
            chunk=int(doc.get("chunk", 25000)),
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
        return {
            "case_id": self.case_id,
            "estimate": self.estimate,
            "std_error": self.std_error,
            "closed_form": self.closed_form,
            "abs_diff": self.abs_diff,
            "tolerance": self.tolerance,
            "verdict": self.verdict,
            "n": self.n,
            "runtime_ms": 0 if canonical else self.runtime_ms,
            "diagnostics": self.diagnostics,
        }


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
            case_id=doc["case_id"],
            measure=MeasureSpec.from_json(doc["measure"]),
            functional=FunctionalSpec.from_json(doc),
            mc=McConfig.from_json(doc["mc"]),
        )


# ---------------------------------------------------------------------------
# integrands over sample batches


def make_integrand(measure: MeasureSpec, functional: FunctionalSpec) -> Integrand:
    """Vectorized evaluator of the functional on a (k, n, p, p) batch."""
    return FUNCTIONALS[functional.kind].integrand(measure, functional)


# ---------------------------------------------------------------------------
# chunked estimation


def _chunk_sums(measure, integrand, config, c, start, size):
    batch = sample_batch(measure, config.seed, size, chunk=c)
    with np.errstate(over="ignore"):  # overflow surfaces as NonFiniteIntegrand below
        vals = integrand(batch)
    finite = np.isfinite(vals)
    if not np.all(finite):
        raise NonFiniteIntegrand(start + int(np.argmin(finite)))
    sq = vals * vals  # products, not pow: numpy's pow is slow at exponents 3 and 4
    return (
        float(np.sum(vals)),
        float(np.sum(sq)),
        float(np.sum(sq * vals)),
        float(np.sum(sq * sq)),
    )


def _run_pass(measure, integrand, config: McConfig, n: int, workers: int, reuse=()):
    """(mean, se, kurtosis, chunk sums) of an n-draw pass; reuse holds the
    sums of its first chunks from an earlier pass, which are not redrawn."""
    spans = [
        (c, c * config.chunk, min(config.chunk, n - c * config.chunk))
        for c in range(len(reuse), -(-n // config.chunk))
    ]
    if workers <= 1:
        drawn = [_chunk_sums(measure, integrand, config, c, s, z) for c, s, z in spans]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(_chunk_sums, measure, integrand, config, c, s, z)
                for c, s, z in spans
            ]
            drawn = [f.result() for f in futures]
    parts = [*reuse, *drawn]

    s1 = s2 = s3 = s4 = 0.0
    for a, b, cc, d in parts:  # fixed reduction order: chunk index
        s1 += a
        s2 += b
        s3 += cc
        s4 += d
    mean = s1 / n
    m2 = max(s2 - n * mean * mean, 0.0)
    var = m2 / (n - 1) if n > 1 else 0.0
    se = (var / n) ** 0.5
    if m2 > 0.0:
        m4 = s4 - 4.0 * mean * s3 + 6.0 * mean * mean * s2 - 3.0 * n * mean**4
        kurt = n * m4 / (m2 * m2)
    else:
        kurt = 0.0
    return mean, se, kurt, parts


def mc_estimate_full(
    measure: MeasureSpec,
    functional: FunctionalSpec,
    config: McConfig,
    workers: int = 1,
) -> tuple[float, float, int, dict]:
    """Estimate with diagnostics: (estimate, std_error, n_used, diagnostics)."""
    integrand = make_integrand(measure, functional)
    mean, se, kurt, parts = _run_pass(measure, integrand, config, config.samples, workers)
    diagnostics = {"kurtosis": kurt, "boosted": False}
    n_used = config.samples
    if kurt > KURTOSIS_LIMIT:
        n_used = config.samples * KURTOSIS_BOOST
        # the first pass's full-size chunks are the rerun's first chunks
        full = parts[: config.samples // config.chunk]
        mean, se, kurt2, _ = _run_pass(measure, integrand, config, n_used, workers, full)
        diagnostics = {"kurtosis": kurt, "boosted": True, "kurtosis_boosted": kurt2}
    return mean, se, n_used, diagnostics


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


def verify_case(case: VerifyCase, workers: int = 1) -> McReport:
    t0 = time.perf_counter()
    try:
        closed = evaluate_average(case.measure, case.functional)
        estimate, se, n_used, diagnostics = mc_estimate_full(
            case.measure, case.functional, case.mc, workers
        )
    except (MvdaError, ValueError) as exc:
        runtime_ms = int((time.perf_counter() - t0) * 1000)
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
            runtime_ms=runtime_ms,
            diagnostics=detail,
        )
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
    return [verify_case(c, workers=workers) for c in cases]


def all_passed(reports: Sequence[McReport]) -> bool:
    return all(r.verdict == "pass" for r in reports)


# ---------------------------------------------------------------------------
# suite configuration and report serialization


def load_suite(text: str) -> list[VerifyCase]:
    docs = json.loads(text)
    if not isinstance(docs, list):
        raise ValueError("suite config must be a JSON array of cases")
    return [VerifyCase.from_json(d) for d in docs]


def default_suite() -> list[VerifyCase]:
    """The pinned verification suite shipped with the package."""
    text = resources.files("mvda").joinpath("data/default_suite.json").read_text()
    return load_suite(text)


def dump_suite(cases: Sequence[VerifyCase]) -> str:
    return json.dumps([c.to_json() for c in cases], indent=2) + "\n"


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
        lines = [CSV_HEADER]
        for r in reports:
            doc = r.to_json(canonical=canonical)
            cells = []
            for key in CSV_HEADER.split(","):
                v = doc[key]
                cells.append("nan" if v is None else (repr(v) if isinstance(v, float) else str(v)))
            lines.append(",".join(cells))
        return ("\n".join(lines) + "\n").encode("utf-8")
    raise ValueError(f"unknown report format {format!r}")

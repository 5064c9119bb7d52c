"""In-memory spans around the public entry points of the mvda layers.

Tracing is installed from outside the package: `install` replaces each
entry point with a wrapper that records a span (name, parent span, thread,
start, end) plus a few counts, and returns a function that puts every
original back. No file of the package changes.

A span opened on a worker thread with no span of its own open takes the
innermost span open on the main thread as its parent, so the chunks that
the Monte Carlo thread pool runs are children of the estimate waiting for
them.
"""

from __future__ import annotations

import statistics
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass
from functools import wraps
from typing import Callable, Optional


@dataclass
class Span:
    name: str
    parent: Optional[int]
    thread: int
    start: float
    end: float = float("nan")


class Tracer:
    """Spans and counts of one traced pass, kept in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        # (p, seconds, order_reached, converged) per hyp1f1_matrix call
        self.hyp1f1_calls: list[tuple[int, float, int, bool]] = []
        self._main_thread = threading.get_ident()
        self._main_stack: list[int] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main_thread:
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def open(self, name: str) -> int:
        stack = self._stack()
        inherited = stack or self._main_stack
        parent = inherited[-1] if inherited else None
        with self._lock:
            sid = len(self.spans)
            self.spans.append(Span(name, parent, threading.get_ident(), time.perf_counter()))
        stack.append(sid)
        return sid

    def close(self, sid: int) -> Span:
        span = self.spans[sid]
        span.end = time.perf_counter()
        popped = self._stack().pop()
        if popped != sid:
            raise RuntimeError(f"span {sid} closed out of order (innermost is {popped})")
        return span

    def parent_name(self, span: Span) -> Optional[str]:
        return None if span.parent is None else self.spans[span.parent].name

    def count(self, key: str, n: float = 1) -> None:
        with self._lock:
            self.counts[key] += n

    def to_json(self) -> list:
        return [[s.name, i, s.parent, s.thread, s.start, s.end] for i, s in enumerate(self.spans)]


# ---------------------------------------------------------------------------
# self time


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    lo = hi = None
    for a, b in sorted(intervals):
        if hi is None or a > hi:
            if hi is not None:
                total += hi - lo
            lo, hi = a, b
        else:
            hi = max(hi, b)
    if hi is not None:
        total += hi - lo
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval its children cover.

    Children that run concurrently on worker threads overlap, so the union
    of their intervals, clipped to the parent's, is subtracted, not the sum.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        clipped = [(max(a, s.start), min(b, s.end)) for a, b in children.get(i, ())]
        out.append((s.end - s.start) - union_length([c for c in clipped if c[1] > c[0]]))
    return out


def self_seconds_by_name(spans: list[Span]) -> Counter:
    totals: Counter = Counter()
    for s, t in zip(spans, self_times(spans)):
        totals[s.name] += t
    return totals


def span_cost_s(calls: int = 2000, batches: int = 5) -> float:
    """Seconds one span adds to a call: a wrapped no-op against the bare
    one, the median over `batches` of `calls` calls each."""
    tracer = Tracer()

    def noop():
        return None

    wrapped = _spanned(tracer, "noop", noop)

    def per_call(fn) -> float:
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        return (time.perf_counter() - t0) / calls

    return statistics.median(per_call(wrapped) - per_call(noop) for _ in range(batches))


# ---------------------------------------------------------------------------
# wrappers


def _spanned(tracer: Tracer, name: str, fn: Callable, after: Optional[Callable] = None):
    """fn inside a span; after(span, arg, result) records counts, where
    arg(i, name) reads the argument at position i or keyword name."""

    @wraps(fn)
    def wrapper(*args, **kwargs):
        sid = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            span = tracer.close(sid)
        if after is not None:
            after(span, lambda i, key: args[i] if i < len(args) else kwargs[key], result)
        return result

    return wrapper


def _mvda_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "mvda" or name.startswith("mvda."))]


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap the public entry points of every layer; return the undo function.

    A function is replaced under every name any mvda module binds it to,
    since modules import each other's functions by name.
    """
    from mvda import linalg, measures, montecarlo, rng, special
    from mvda.averages import evaluate_average
    from mvda.cli import report_emit

    patches: list[tuple[object, str, object]] = []

    def patch_attr(owner, attr, replacement):
        patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def patch_function(fn, replacement):
        for module in _mvda_modules():
            for attr, value in list(vars(module).items()):
                if value is fn:
                    patch_attr(module, attr, replacement)

    def spanned_function(fn, name, after=None):
        patch_function(fn, _spanned(tracer, name, fn, after))

    # rng: CounterRng methods
    def on_uniforms(span, arg, result):
        tracer.count("rng.words", arg(1, "n"))

    def on_normals(span, arg, result):
        if tracer.parent_name(span) == "rng.gammas":  # one rejection round
            tracer.count("rng.gamma.rounds")
            tracer.count("rng.gamma.candidates", arg(1, "n"))

    def on_gammas(span, arg, result):
        if arg(1, "shape") >= 1.0:  # shapes below 1 recurse into a shape >= 1 call
            tracer.count("rng.gamma.returned", arg(2, "n"))

    cls = rng.CounterRng
    for attr, after in (("uniforms", on_uniforms), ("normals", on_normals),
                        ("gammas", on_gammas), ("complex_normals", None)):
        patch_attr(cls, attr, _spanned(tracer, f"rng.{attr}", cls.__dict__[attr], after))

    # measures
    def on_sample_batch(span, arg, result):
        tracer.count("measures.draws", arg(2, "n"))
        if tracer.parent_name(span) == "montecarlo.estimate":
            tracer.count("montecarlo.chunks")

    spanned_function(measures.sample_batch, "measures.sample_batch", on_sample_batch)

    # montecarlo: the integrand callables and the estimate around them
    make_integrand = montecarlo.make_integrand

    def traced_make_integrand(*args, **kwargs):
        return _spanned(tracer, "montecarlo.integrand", make_integrand(*args, **kwargs))

    patch_function(make_integrand, wraps(make_integrand)(traced_make_integrand))

    def on_estimate(span, arg, result):
        _, _, n_used, diagnostics = result
        first = arg(2, "config").samples
        boosted = bool(diagnostics.get("boosted"))
        tracer.count("montecarlo.draws", first + (n_used if boosted else 0))
        if boosted:
            tracer.count("montecarlo.boosted_cases")
            tracer.count("montecarlo.boost_draws", n_used)

    spanned_function(montecarlo.mc_estimate_full, "montecarlo.estimate", on_estimate)

    # averages and special
    spanned_function(evaluate_average, "averages.evaluate_average")

    def on_hyp1f1(span, arg, result):
        x = arg(2, "x")
        p = x.dim if isinstance(x, linalg.HermitianMatrix) else len(x)
        with tracer._lock:
            tracer.hyp1f1_calls.append(
                (p, span.end - span.start, result.order_reached, bool(result.converged))
            )

    spanned_function(special.hyp1f1_matrix, "special.hyp1f1_matrix", on_hyp1f1)

    # linalg: public functions and HermitianMatrix construction
    for fname in ("cholesky", "logdet_abs", "eigvals_hermitian", "is_pd", "inv_sqrt"):
        spanned_function(getattr(linalg, fname), f"linalg.{fname}")
    hm = linalg.HermitianMatrix
    patch_attr(hm, "__init__", _spanned(tracer, "linalg.HermitianMatrix", hm.__dict__["__init__"]))

    # cli: report serialization as `mvda verify` calls it
    spanned_function(report_emit, "cli.report_emit")

    def restore() -> None:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)
        patches.clear()

    return restore

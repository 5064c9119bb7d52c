"""The mvda benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload suite --seed 42 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
src/. With --trace 0 the run measures the end-to-end metrics with tracing
off. With --trace 1 it runs every item untraced and traced, reports
the per-layer metrics and writes the spans to perfbench/out/. Every output is checked; the last line of standard output
is the result object, and the line before it holds the details and the
machine facts.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before numpy loads; the set-up interpreters
# inherit the setting. Unpinned OpenBLAS starts more threads than cores.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPS = 5
SETUP_CODE = (
    "import sys, mvda.cli, cases; cases.build(sys.argv[1], int(sys.argv[2]))"
)


def _import_package():
    if not (SRC / "mvda" / "__init__.py").is_file():
        sys.exit(f"error: mvda sources not found under {SRC}")
    sys.path.insert(0, str(SRC))


_import_package()

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import cases  # noqa: E402
import checks  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
from mvda import averages, cli, measures, montecarlo, special  # noqa: E402


# ---------------------------------------------------------------------------
# one pass of a workload


class Pass:
    """Per-item times and outputs of one pass.

    With calibrate=True the reference kernel is timed between items, so
    that the pass time can be scaled to the reference host speed.
    """

    def __init__(self, calibrate: bool = False, threads: int = 1):
        self.times: list[float] = []
        self.outputs: list = []
        self.probes = speed.Probes(threads) if calibrate else None

    @property
    def wall(self) -> float:
        return sum(self.times)

    def call(self, fn) -> None:
        if self.probes is not None:
            self.probes.before_item(self.times[-1] if self.times else 0.0)
        t0 = time.perf_counter()
        try:
            out = fn()
        except Exception as exc:  # counted as a failed item, never dropped
            out = exc
        self.times.append(time.perf_counter() - t0)
        self.outputs.append(out)

    def done(self) -> "Pass":
        if self.probes is not None:
            self.probes.close()
        return self


def item_calls(inputs: cases.Inputs, workers: int | None = None) -> list:
    """The items of one pass, in order, as calls without arguments.

    Names are looked up on the modules at call time, so that a traced call
    goes through the installed wrappers. A sampling pass ends with
    `report_emit` on its own reports (see `emit_call`).
    """
    w = inputs.workers if workers is None else workers
    if inputs.sampling:
        return [lambda c=case: montecarlo.verify_suite([c], workers=w)[0] for case in inputs.cases]
    return [lambda s=spec: averages.evaluate_average(s.measure, s.functional)
            for _, spec in inputs.averages] + [
        lambda h=call: special.hyp1f1_matrix(h.a, h.c, h.x, cases.HYP1F1_POLICY)
        for call in inputs.hyp1f1]


def emit_call(p: Pass):
    """Serialise the reports of pass p, as `mvda verify` does at its end."""
    return lambda: cli.report_emit([r for r in p.outputs if isinstance(r, montecarlo.McReport)])


def run_pass(inputs: cases.Inputs, calibrate: bool = False) -> Pass:
    p = Pass(calibrate, threads=inputs.workers)
    for call in item_calls(inputs):
        p.call(call)
    if inputs.sampling:
        p.call(emit_call(p))
    return p.done()


# ---------------------------------------------------------------------------
# checks


class Checker:
    """Checks each item of each pass; a repeat must also match the first pass.

    An item is wrong when it returns a value that fails its check, and
    errored when the package raises or records an error instead of a
    value. Both count as failed; only a wrong item makes the run incorrect.
    """

    def __init__(self, inputs: cases.Inputs):
        self.inputs = inputs
        self.attempted = 0
        self.wrong: list[str] = []
        self.errored: list[str] = []
        self.first: list | None = None
        self.refs = [checks.average_reference(spec) for _, spec in inputs.averages] + [
            checks.hyp1f1_reference(call.a, call.c, call.x) for call in inputs.hyp1f1]

    @property
    def failed(self) -> int:
        return len(self.wrong) + len(self.errored)

    def names(self) -> list[str]:
        if self.inputs.sampling:
            return [c.case_id for c in self.inputs.cases] + ["report_emit"]
        return [n for n, _ in self.inputs.averages] + [c.name for c in self.inputs.hyp1f1]

    def check(self, p: Pass) -> None:
        n_avg = len(self.inputs.averages)
        for i, (name, out) in enumerate(zip(self.names(), p.outputs)):
            self.attempted += 1
            if isinstance(out, Exception):
                self.errored.append(f"{name}: {out!r}")
                continue
            if self.inputs.sampling:
                if name == "report_emit":
                    ok = isinstance(out, bytes) and len(json.loads(out)) == len(self.inputs.cases)
                elif checks.report_errored(out):
                    self.errored.append(f"{name}: {out.diagnostics['error']}")
                    continue
                else:
                    ok = checks.report_passes(out) and (
                        self.first is None or checks.same_report(out, self.first[i]))
            else:
                check = checks.average_ok if i < n_avg else checks.hyp1f1_ok
                ok = check(out, self.refs[i]) and (
                    self.first is None or out.value == self.first[i].value)
            if not ok:
                self.wrong.append(name)
        if self.first is None:
            self.first = p.outputs


# ---------------------------------------------------------------------------
# metrics


def setup_seconds(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Fresh interpreters that import mvda.cli and build the workload inputs.

    Returns the times as run and scaled by the reference starts on either
    side. The first start is discarded: it writes the bytecode caches,
    which a user pays once per install, not per call.
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(HERE)]))

    def start(code: str, *args: str) -> float:
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code, *args], env=env, cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL)
        return time.perf_counter() - t0

    start(SETUP_CODE, workload, str(seed))
    raw, scaled = [], []
    before = start(speed.REFERENCE_START)
    for _ in range(SETUP_REPS):
        raw.append(start(SETUP_CODE, workload, str(seed)))
        after = start(speed.REFERENCE_START)
        scaled.append(raw[-1] * 2.0 * speed.REFERENCE_START_S / (before + after))
        before = after
    return raw, scaled


def draws(inputs: cases.Inputs, p: Pass) -> tuple[list[int], list[int]]:
    """Per item: (draws made, draws configured). A case that trips the
    kurtosis rerun makes its configured draws plus the rerun's; an errored
    case makes none, and report_emit and closed-form items have none."""
    made, configured = [0] * len(p.outputs), [0] * len(p.outputs)
    for i, (case, r) in enumerate(zip(inputs.cases, p.outputs)):
        boosted = isinstance(r, montecarlo.McReport) and bool(
            r.diagnostics and r.diagnostics.get("boosted"))
        made[i] = case.mc.samples + r.n if boosted else getattr(r, "n", 0)
        configured[i] = case.mc.samples
    return made, configured


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def machine_facts() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
    }


def measure(inputs: cases.Inputs, checker: Checker, seconds: float) -> list[Pass]:
    """Repeat passes while the next one is expected to end within `seconds`."""
    passes = []
    t_start = time.perf_counter()
    while True:
        p = run_pass(inputs, calibrate=True)
        checker.check(p)
        passes.append(p)
        elapsed = time.perf_counter() - t_start
        if elapsed + elapsed / len(passes) > seconds:
            return passes


def end_to_end(inputs: cases.Inputs, seconds: float) -> tuple[dict, dict, Checker]:
    setup_raw, setup = setup_seconds(inputs.workload, inputs.seed)
    checker = Checker(inputs)
    cpu0 = time.process_time()
    passes = measure(inputs, checker, seconds)
    cpu = time.process_time() - cpu0
    # A suite case that trips the kurtosis rerun draws eleven times its
    # configured samples. Whether a p = 2 case trips it changes with the
    # seed, and when one does the pass takes 1.7 to 2.5 times as long, so
    # such a case counts at its time per draw made times its configured
    # draws.
    made, configured = draws(inputs, passes[0])
    weights = [c / m if m > c else 1.0 for m, c in zip(made, configured)]

    def seconds_of(p: Pass) -> float:
        return sum(t * w for t, w in zip(p.times, weights))

    wall = statistics.median(seconds_of(p) * p.probes.speed() for p in passes)
    pass_rate = 1.0 - checker.failed / checker.attempted
    metrics = {
        "wall_s": (wall, "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "pass_rate": (pass_rate, "ratio"),
    }
    as_run = statistics.median(p.wall for p in passes)
    detail = {
        "wall_unscaled_s": statistics.median(seconds_of(p) for p in passes),
        "wall_as_run_s": as_run,
    }
    if inputs.sampling:
        detail.update(draws_per_pass=sum(made), draws_per_s=sum(made) / as_run)
    else:
        detail.update(evals_per_pass=len(made), evals_per_s=len(made) / as_run)
    detail.update({
        "fail_rate": 1.0 - pass_rate,
        "pass_walls_s": [p.wall for p in passes],
        "host_speeds": [p.probes.speed() for p in passes],
        "cpu_s_per_pass": cpu / len(passes),
        "setup_runs_s": setup_raw,
        "item_median_s": dict(zip(checker.names(), (
            statistics.median(ts) for ts in zip(*(p.times for p in passes))))),
    })
    return metrics, detail, checker


# ---------------------------------------------------------------------------
# traced run


def run_interleaved(inputs: cases.Inputs, tracer: spans.Tracer) -> tuple[dict, int]:
    """Every item untraced, at 1 worker when the workload runs more, and
    traced, one item at a time, so that host speed drifts alike for all.

    Returns the passes by name and the eigenvalue floor events of the
    traced calls.
    """
    names = ["untraced"] + (["serial"] if inputs.workers > 1 else []) + ["traced"]
    passes = {name: Pass() for name in names}
    calls = {name: item_calls(inputs, 1 if name == "serial" else None) for name in names}
    floors = 0
    n_items = len(calls["traced"]) + (1 if inputs.sampling else 0)
    for i in range(n_items):
        for name, p in passes.items():
            call = calls[name][i] if i < len(calls[name]) else emit_call(p)
            if name != "traced":
                p.call(call)
                continue
            floors0 = measures.floor_event_count()
            restore = spans.install(tracer)
            try:
                p.call(call)
            finally:
                restore()
            floors += measures.floor_event_count() - floors0
    return passes, floors


def per_layer(inputs: cases.Inputs) -> tuple[dict, dict, Checker]:
    tracer = spans.Tracer()
    passes, floors = run_interleaved(inputs, tracer)
    checker = Checker(inputs)
    for p in passes.values():
        # on p3_parallel this also checks 1 worker against 2 bit for bit
        checker.check(p)
    untraced = passes["untraced"].wall
    speedup = passes["serial"].wall / untraced if "serial" in passes else 0.0

    selfs = spans.self_seconds_by_name(tracer.spans)
    c = tracer.counts
    m: dict[str, tuple[float, str]] = {}
    for name in ("uniforms", "normals", "gammas", "complex_normals"):
        m[f"rng.{name}.self_s"] = (selfs[f"rng.{name}"], "s")
    m["rng.words"] = (c["rng.words"], "count")
    m["rng.gamma.rounds"] = (c["rng.gamma.rounds"], "count")
    m["rng.gamma.accept_ratio"] = (_ratio(c["rng.gamma.returned"], c["rng.gamma.candidates"]), "ratio")
    m["measures.sample_batch.self_s"] = (selfs["measures.sample_batch"], "s")
    m["measures.draws"] = (c["measures.draws"], "count")
    m["measures.eig_floor_events"] = (floors, "count")
    m["montecarlo.integrand.self_s"] = (selfs["montecarlo.integrand"], "s")
    m["montecarlo.estimate.self_s"] = (selfs["montecarlo.estimate"], "s")
    m["montecarlo.chunks"] = (c["montecarlo.chunks"], "count")
    m["montecarlo.boosted_cases"] = (c["montecarlo.boosted_cases"], "count")
    m["montecarlo.boost_draw_share"] = (_ratio(c["montecarlo.boost_draws"], c["montecarlo.draws"]), "ratio")
    m["montecarlo.parallel_speedup"] = (speedup, "ratio")
    m["averages.evaluate_average.self_s"] = (selfs["averages.evaluate_average"], "s")
    m["special.hyp1f1_matrix.self_s"] = (selfs["special.hyp1f1_matrix"], "s")
    calls = tracer.hyp1f1_calls
    m["special.hyp1f1.order_reached_sum"] = (sum(o for _, _, o, _ in calls), "count")
    m["special.hyp1f1.partitions_visited"] = (
        sum(len(special.partitions_of(k, p)) for p, _, o, _ in calls for k in range(1, o + 1)),
        "count",
    )
    m["special.hyp1f1.nonconverged"] = (sum(1 for *_, conv in calls if not conv), "count")
    for p in cases.HYP1F1_DIMS:
        ms = [t * 1000.0 for q, t, _, _ in calls if q == p]
        m[f"special.hyp1f1.ms_p50.p{p}"] = (statistics.median(ms) if ms else 0.0, "ms")
    m["linalg.self_s"] = (sum(v for k, v in selfs.items() if k.startswith("linalg.")), "s")
    m["cli.report_emit.self_s"] = (selfs["cli.report_emit"], "s")
    # Host speed moves a pass by more than tracing adds to it, so the cost
    # is the spans recorded times the measured cost of one span; the traced
    # minus the untraced pass is in the detail line.
    m["trace.overhead_s"] = (len(tracer.spans) * spans.span_cost_s(), "s")

    OUT.mkdir(exist_ok=True)
    trace_file = OUT / f"trace-{inputs.workload}-{inputs.seed}.json"
    trace_file.write_text(json.dumps({
        "workload": inputs.workload,
        "seed": inputs.seed,
        "columns": ["name", "id", "parent", "thread", "start", "end"],
        "spans": tracer.to_json(),
        "counts": dict(c),
        "hyp1f1_calls": calls,
    }))
    detail = {
        "pass_walls_s": {name: p.wall for name, p in passes.items()},
        "traced_minus_untraced_s": passes["traced"].wall - untraced,
        "spans": len(tracer.spans),
        "trace_file": str(trace_file.relative_to(ROOT)),
    }
    return m, detail, checker


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=cases.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    inputs = cases.build(args.workload, args.seed)
    if args.trace:
        metrics, detail, checker = per_layer(inputs)
    else:
        metrics, detail, checker = end_to_end(inputs, args.seconds)
    detail.update(
        workload=args.workload, seed=args.seed, trace=args.trace,
        attempted=checker.attempted, wrong_items=checker.wrong,
        errored_items=checker.errored,
        machine=machine_facts(),
    )
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": not checker.wrong,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

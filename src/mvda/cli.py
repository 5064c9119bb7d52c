"""Command-line front end.

Exit codes: 0 success, 1 usage error, 2 domain error (nonexistent moment
or invalid parameter domain), 3 verification failure, 4 internal or
numerical error. `mvda sample` seeds with 42 unless --seed is given;
`mvda verify` takes each case's seed from the suite unless --seed is given.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from .averages import AverageResult, AverageSpec, evaluate_average
from .errors import (
    BadSupport,
    BadWeights,
    DomainError,
    MvdaError,
    NotPositiveDefinite,
    PochhammerPole,
)
from .linalg import HermitianMatrix
from .measures import MeasureSpec, sample_batch
from .montecarlo import (
    all_passed,
    default_suite,
    load_suite,
    report_emit,
    verify_suite,
)
from .rng import SeedSpec
from .special import (
    DEFAULT_TRUNCATION,
    Partition,
    TruncationPolicy,
    gamma_p_ln,
    hyp1f1_matrix,
    pochhammer_gen,
    power_mean,
    zonal_c,
)

DEFAULT_SEED = 42


def _write(args, text: str) -> None:
    if getattr(args, "out", None):
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _emit_json(args, doc) -> None:
    """Write doc as JSON; a NaN or infinity in it is a numerical error (exit
    4), since JSON has no such values."""
    try:
        text = json.dumps(doc, indent=2, allow_nan=False)
    except ValueError as exc:
        raise FloatingPointError(f"non-finite value in output: {exc}") from None
    _write(args, text + "\n")


def _load_doc(spec: str, decode):
    """decode of the JSON document in file spec, or in spec itself when it
    starts with "{"; a document of the wrong shape is a usage error."""
    text = spec if spec.lstrip().startswith("{") else Path(spec).read_text()
    try:
        return decode(json.loads(text))
    except (AttributeError, TypeError, IndexError) as exc:
        raise ValueError(f"malformed document: {exc}") from exc


def _parse_partition(text: str) -> Partition:
    parts = tuple(int(x) for x in text.split(",") if x.strip() != "")
    return Partition(parts)


def _parse_floats(text: str) -> tuple[float, ...]:
    return tuple(float(x) for x in text.split(","))


def _maybe_complex(value: float, imag: float | None):
    return complex(value, imag) if imag else value


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_gamma(args) -> int:
    v = gamma_p_ln(args.p, _maybe_complex(args.alpha, args.alpha_im))
    doc = {"log_value": v.real, "log_value_im": v.imag} if isinstance(v, complex) else {"log_value": v}
    _emit_json(args, doc)
    return 0


def _cmd_pochhammer(args) -> int:
    v = pochhammer_gen(_maybe_complex(args.a, args.a_im), _parse_partition(args.partition))
    doc = {"value": v.real, "value_im": v.imag} if isinstance(v, complex) else {"value": v}
    _emit_json(args, doc)
    return 0


def _cmd_zonal(args) -> int:
    v = zonal_c(_parse_partition(args.partition), _load_doc(args.matrix, HermitianMatrix.from_json))
    _emit_json(args, {"value": v})
    return 0


def _cmd_hyp1f1(args) -> int:
    matrix = _load_doc(args.matrix, HermitianMatrix.from_json)
    res = hyp1f1_matrix(args.a, args.c, matrix, TruncationPolicy(max_order=args.max_order))
    _emit_json(args, asdict(res))
    return 0


def _cmd_power_mean(args) -> int:
    v = power_mean(_parse_floats(args.weights), _parse_floats(args.values), args.b)
    _emit_json(args, {"value": v})
    return 0


def _cmd_sample(args) -> int:
    measure = _load_doc(args.spec, MeasureSpec.from_json)
    seed = SeedSpec(seed=args.seed, stream=args.stream)
    batch = sample_batch(measure, seed, args.n).stack()
    lines = [json.dumps({"measure": measure.to_json(), "seed": seed.to_json(), "n": args.n})]
    for i in range(args.n):
        matrices = [HermitianMatrix(batch[j, i]).to_json() for j in range(measure.k)]
        lines.append(json.dumps({"matrices": matrices}))
    _write(args, "\n".join(lines) + "\n")
    return 0


def _cmd_average(args) -> int:
    spec = _load_doc(args.spec, AverageSpec.from_json)
    try:
        result = evaluate_average(spec.measure, spec.functional)
    except DomainError as exc:
        _emit_json(args, AverageResult.from_domain_error(exc).to_json())
        return 2
    _emit_json(args, result.to_json())
    return 0


def _cmd_verify(args) -> int:
    cases = _load_doc(args.config, load_suite) if args.config else default_suite()
    if args.seed is not None:
        cases = [replace(c, mc=replace(c.mc, seed=replace(c.mc.seed, seed=args.seed)))
                 for c in cases]
    if args.samples is not None:
        cases = [replace(c, mc=replace(c.mc, samples=args.samples)) for c in cases]
    reports = verify_suite(cases, workers=args.workers)
    _write(args, report_emit(reports, format=args.format, canonical=args.canonical).decode())
    return 0 if all_passed(reports) else 3


# ---------------------------------------------------------------------------
# parser


def _add_out(p) -> None:
    p.add_argument("--out", help="write output to FILE instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mvda",
        description="Matrix-variate Dirichlet averages: evaluators, samplers, verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gamma", help="log of the matrix-variate gamma function")
    p.add_argument("-p", type=int, required=True, dest="p")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--alpha-im", type=float, default=None)
    _add_out(p)
    p.set_defaults(func=_cmd_gamma)

    p = sub.add_parser("pochhammer", help="generalized Pochhammer symbol")
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--a-im", type=float, default=None)
    p.add_argument("--partition", required=True, help="comma separated parts, e.g. 2,1")
    _add_out(p)
    p.set_defaults(func=_cmd_pochhammer)

    p = sub.add_parser("zonal", help="zonal polynomial of a Hermitian matrix")
    p.add_argument("--partition", required=True)
    p.add_argument("--matrix", required=True, help="matrix JSON file or inline document")
    _add_out(p)
    p.set_defaults(func=_cmd_zonal)

    p = sub.add_parser("hyp1f1", help="confluent hypergeometric function of matrix argument")
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--matrix", required=True)
    p.add_argument("--max-order", type=int, default=DEFAULT_TRUNCATION.max_order)
    _add_out(p)
    p.set_defaults(func=_cmd_hyp1f1)

    p = sub.add_parser("power-mean", help="classical weighted power mean")
    p.add_argument("--weights", required=True, help="comma separated, summing to 1")
    p.add_argument("--values", required=True, help="comma separated, all positive")
    p.add_argument("-b", type=float, required=True, dest="b")
    _add_out(p)
    p.set_defaults(func=_cmd_power_mean)

    p = sub.add_parser("sample", help="draw from a Dirichlet measure as JSON lines")
    p.add_argument("--spec", required=True, help="MeasureSpec JSON file or inline document")
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--stream", type=int, default=0)
    _add_out(p)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("average", help="evaluate one closed-form average")
    p.add_argument("--spec", required=True, help="AverageSpec JSON file or inline document")
    _add_out(p)
    p.set_defaults(func=_cmd_average)

    p = sub.add_parser("verify", help="run the Monte Carlo verification suite")
    p.add_argument("--config", help="custom suite config (JSON array of cases)")
    p.add_argument("--samples", type=int, default=None, help="override per-case sample count")
    p.add_argument("--seed", type=int, default=None, help="override per-case seed")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--canonical", action="store_true",
                   help="zero the wall-clock runtime field for reproducible bytes")
    _add_out(p)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 0 for --help, 2 for usage errors
        return 0 if exc.code == 0 else 1
    try:
        return args.func(args)
    except (DomainError, BadWeights, BadSupport, NotPositiveDefinite, PochhammerPole) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (MvdaError, ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())

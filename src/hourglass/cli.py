"""Command-line interface: JSON in, a single JSON report out.

Exit codes: 0 success, 1 property failure (a gap above tolerance under
--require-equality, or a failed alternative check), 2 unusable input
(malformed JSON, schema violations, shape or cap errors), 3 numerical
non-convergence.  All randomness derives from --seed, so identical
invocations produce byte-identical reports.  The environment variable
HOURGLASS_CAP overrides the default enumeration cap; an explicit --cap
flag wins over both.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys

import numpy as np

from .alternative import HourglassReport, check_hset_sampled
from .errors import CapExceededError, ParseError, ShapeError
from .linalg import DEFAULT_MAX_ITER, DEFAULT_TOL, Matrix, PerronData, spectral_radius
from .saddle import (
    certify_saddle,
    check_saddle_hull_samples,
    product_table,
    reduce_table,
    solve_saddle,
)
from .sets import (
    DEFAULT_CAP,
    MatrixSet,
    hausdorff_distance,
    random_iru_pair,
    set_from_json,
)

EXIT_OK = 0
EXIT_PROPERTY = 1
EXIT_PARSE = 2
EXIT_NUMERIC = 3


def _env_cap() -> int:
    raw = os.environ.get("HOURGLASS_CAP")
    if raw is None:
        return DEFAULT_CAP
    try:
        cap = int(raw)
    except ValueError as exc:
        raise ParseError("HOURGLASS_CAP", f"not an integer: {raw!r}") from exc
    if cap < 1:
        raise ParseError("HOURGLASS_CAP", "cap must be at least 1")
    return cap


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(path, str(exc)) from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}:{exc.colno}", exc.msg) from exc
    except RecursionError as exc:
        raise ParseError(path, "JSON nesting is too deep") from exc


def _load_set(path: str) -> MatrixSet:
    return set_from_json(_load_json(path), location=path)


def _perron_json(perron: PerronData) -> dict:
    return {**dataclasses.asdict(perron), "vector": perron.vector.tolist()}


def _hourglass_report_json(report: HourglassReport) -> dict:
    def branch(b):
        return {
            "all_on_side": b.all_on_side,
            "witness": b.witness.to_json() if b.witness is not None else None,
            "satisfied": b.satisfied,
        }

    return {
        "probe_matrix": report.probe_matrix.to_json(),
        "probe_vector": report.probe_vector.tolist(),
        "h1": branch(report.h1),
        "h2": branch(report.h2),
        "holds": report.holds,
    }


def _cmd_spectral(args: argparse.Namespace) -> tuple[int, dict]:
    matrix = Matrix.from_json(_load_json(args.matrix), location=args.matrix)
    perron = spectral_radius(matrix, tol=args.tol, max_iter=args.max_iter)
    report = _perron_json(perron)
    if not perron.converged:
        report["error"] = {
            "kind": "non-convergence",
            "message": f"power iteration did not stabilize in {perron.iterations} steps",
        }
        return EXIT_NUMERIC, report
    return EXIT_OK, report


def _cmd_minimax(args: argparse.Namespace) -> tuple[int, dict]:
    a_set = _load_set(args.a_set)
    b_set = _load_set(args.b_set)
    stack_a, stack_b = a_set.stack(args.cap), b_set.stack(args.cap)
    table, _, _, conv = product_table(stack_a, stack_b, args.cap)
    minmax, maxmin, _, _ = reduce_table(table)
    report = {"minmax": minmax, "maxmin": maxmin, "gap": minmax - maxmin}
    if args.table:
        report["table"] = table.tolist()
    if not conv.all():
        report["error"] = {
            "kind": "non-convergence",
            "message": f"{int((~conv).sum())} table entries did not stabilize",
        }
        return EXIT_NUMERIC, report
    if args.require_equality and report["gap"] > args.tol:
        return EXIT_PROPERTY, report
    return EXIT_OK, report


def _cmd_saddle(args: argparse.Namespace) -> tuple[int, dict]:
    a_set = _load_set(args.a_set)
    b_set = _load_set(args.b_set)
    result = solve_saddle(a_set, b_set, cap=args.cap, tol=args.tol)
    report = {
        "a_tilde": result.a_tilde.to_json(),
        "b_tilde": result.b_tilde.to_json(),
        "value": result.value,
        "minmax": result.minmax,
        "maxmin": result.maxmin,
        "gap": result.gap,
        "w": result.w.tolist(),
        "perron": _perron_json(result.perron),
    }
    if args.certify:
        cert = certify_saddle(result, a_set, b_set, tol=args.tol, cap=args.cap)
        report["certificate"] = dataclasses.asdict(cert)
    if args.hull_samples > 0:
        report["hull_samples"] = args.hull_samples
        report["hull_check"] = check_saddle_hull_samples(
            result, a_set, b_set, args.hull_samples, args.seed, tol=args.tol, cap=args.cap
        )
    if not result.perron.converged:
        report["error"] = {
            "kind": "non-convergence",
            "message": "power iteration on the saddle product did not stabilize",
        }
        return EXIT_NUMERIC, report
    if args.require_equality and result.gap > args.tol:
        return EXIT_PROPERTY, report
    return EXIT_OK, report


def _cmd_hset_check(args: argparse.Namespace) -> tuple[int, dict]:
    mset = _load_set(args.set)
    outcome = check_hset_sampled(mset, args.probes, args.seed, tol=args.tol, cap=args.cap)
    report = {
        "passed": outcome.passed,
        "probes_per_member": args.probes,
        "failures": len(outcome.failures),
    }
    if outcome.failures:
        report["first_failure"] = _hourglass_report_json(outcome.failures[0])
        return EXIT_PROPERTY, report
    return EXIT_OK, report


def _cmd_hausdorff(args: argparse.Namespace) -> tuple[int, dict]:
    a_set = _load_set(args.a_set)
    b_set = _load_set(args.b_set)
    return EXIT_OK, {"distance": hausdorff_distance(a_set, b_set, cap=args.cap)}


def _cmd_algebra(args: argparse.Namespace) -> tuple[int, dict]:
    stack = _load_set(args.set).stack(args.cap)
    rows, cols = stack.shape[1:]
    matrices = [{"rows": rows, "cols": cols, "data": a.tolist()} for a in stack]
    return EXIT_OK, {"kind": "finite", "matrices": matrices}


def _cmd_batch(args: argparse.Namespace) -> tuple[int, dict]:
    rng = np.random.default_rng(args.seed)
    results = []
    max_gap = 0.0
    for index in range(args.trials):
        a_set, b_set = random_iru_pair(rng)
        n, m = a_set.shape
        solved = solve_saddle(a_set, b_set, cap=args.cap, tol=args.tol)
        max_gap = max(max_gap, solved.gap)
        results.append(
            {
                "trial": index,
                "n": n,
                "m": m,
                "value": solved.value,
                "minmax": solved.minmax,
                "maxmin": solved.maxmin,
                "gap": solved.gap,
            }
        )
    report = {
        "trials": args.trials,
        "tol": args.tol,
        "max_gap": max_gap,
        "all_within_tol": max_gap <= args.tol,
        "results": results,
    }
    if args.require_equality and max_gap > args.tol:
        return EXIT_PROPERTY, report
    return EXIT_OK, report


def _emit(report: dict, output: str | None) -> None:
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process on first use."""
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default=None, help="write the report to a file")
    capped = argparse.ArgumentParser(add_help=False)
    capped.add_argument("--cap", type=int, default=None, help="enumeration cap")
    pair = argparse.ArgumentParser(add_help=False)
    pair.add_argument("a_set", help="set JSON file for A")
    pair.add_argument("b_set", help="set JSON file for B")
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, default=0)
    equality = argparse.ArgumentParser(add_help=False)
    equality.add_argument("--tol", type=float, default=1e-9)
    equality.add_argument("--require-equality", action="store_true")

    parser = argparse.ArgumentParser(
        prog="hourglass",
        description=(
            "Saddle points, minimax tables, and alternative checks for "
            "spectral radii of products of non-negative matrices."
        ),
    )
    # Every command passes the --cap and --tol checks in main; a command's
    # own flags override these stand-ins.
    parser.set_defaults(cap=None, tol=1e-9)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, summary, parents):
        p = sub.add_parser(name, help=summary, parents=[*parents, out])
        p.set_defaults(run=run)
        return p

    p = command("spectral", _cmd_spectral, "spectral radius of one matrix", [])
    p.add_argument("matrix", help="matrix JSON file")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.add_argument("--max-iter", type=int, default=DEFAULT_MAX_ITER)

    p = command("minimax", _cmd_minimax, "min-max / max-min table reductions",
                [pair, equality, capped])
    p.add_argument("--table", action="store_true", help="include the full table")

    p = command("saddle", _cmd_saddle, "solve and optionally certify a saddle",
                [pair, equality, seeded, capped])
    p.add_argument("--certify", action="store_true")
    p.add_argument("--hull-samples", type=int, default=0)

    p = command("hset-check", _cmd_hset_check, "sampled alternative check of one set",
                [seeded, capped])
    p.add_argument("set", help="set JSON file")
    p.add_argument("--probes", type=int, default=50)
    p.add_argument("--tol", type=float, default=1e-10)

    command("hausdorff", _cmd_hausdorff, "Hausdorff distance of two sets", [pair, capped])

    p = command("algebra", _cmd_algebra, "materialize a set to its finite form", [capped])
    p.add_argument("set")

    p = command("batch", _cmd_batch, "random equality sweep over IRU pairs",
                [equality, seeded, capped])
    p.add_argument("--trials", type=int, default=20)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.cap is not None and args.cap < 1:
            raise ParseError("--cap", "cap must be at least 1")
        if not args.tol > 0:
            raise ParseError("--tol", "tolerance must be positive")
        for count in ("trials", "hull_samples", "probes"):
            if getattr(args, count, 0) < 0:
                raise ParseError("--" + count.replace("_", "-"), "must not be negative")
        if args.cap is None:
            args.cap = _env_cap()
        code, report = args.run(args)
    except ParseError as exc:
        code, report = EXIT_PARSE, {
            "error": {"kind": "parse", "location": exc.location, "message": exc.message}
        }
    except (CapExceededError, ShapeError, ValueError, TypeError) as exc:
        code, report = EXIT_PARSE, {"error": {"kind": "input", "message": str(exc)}}
    _emit(report, args.out)
    return code


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface: JSON in, a single JSON report out.

Exit codes: 0 success, 1 property failure (a gap above tolerance under
--require-equality, or a failed alternative check), 2 unusable input
(malformed JSON, schema violations, shape or cap errors), 3 numerical
non-convergence.  All randomness derives from --seed, so identical
invocations produce byte-identical reports.  Each report is the text the
standard library's ``json.dumps`` writes with an indent of 2 and sorted
keys, and a newline; a member stack is written as the list of its members
in the matrix wire form, with the same bytes.  The environment variable
HOURGLASS_CAP overrides the default enumeration cap; an explicit --cap flag
wins over both.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
from json.encoder import encode_basestring_ascii

import numpy as np

from .alternative import HourglassReport, check_hset_sampled
from .errors import CapExceededError, ParseError, ShapeError
from .linalg import (
    COMPARISON_TOL,
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    Matrix,
    PerronData,
    matrix_json,
    spectral_radius,
)
from .saddle import (
    CERTIFICATE_TOL,
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
            "witness": matrix_json(b.witness) if b.witness is not None else None,
            "satisfied": b.satisfied,
        }

    return {
        "probe_matrix": matrix_json(report.probe_matrix),
        "probe_vector": report.probe_vector.tolist(),
        "h1": branch(report.h1),
        "h2": branch(report.h2),
        "holds": report.holds,
    }


def _non_convergence(report: dict, message: str) -> tuple[int, dict]:
    """``report`` with a non-convergence error, under its exit code."""
    report["error"] = {"kind": "non-convergence", "message": message}
    return EXIT_NUMERIC, report


def _cmd_spectral(args: argparse.Namespace) -> tuple[int, dict]:
    matrix = Matrix.from_json(_load_json(args.matrix), location=args.matrix)
    perron = spectral_radius(matrix, tol=args.tol, max_iter=args.max_iter)
    report = _perron_json(perron)
    if not perron.converged:
        return _non_convergence(
            report, f"power iteration did not stabilize in {perron.iterations} steps"
        )
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
        return _non_convergence(
            report, f"{int((~conv).sum())} table entries did not stabilize"
        )
    if args.require_equality and report["gap"] > args.tol:
        return EXIT_PROPERTY, report
    return EXIT_OK, report


def _cmd_saddle(args: argparse.Namespace) -> tuple[int, dict]:
    a_set = _load_set(args.a_set)
    b_set = _load_set(args.b_set)
    result = solve_saddle(a_set, b_set, cap=args.cap, tol=args.tol)
    report = {
        "a_tilde": matrix_json(result.a_tilde),
        "b_tilde": matrix_json(result.b_tilde),
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
        return _non_convergence(
            report, "power iteration on the saddle product did not stabilize"
        )
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
    return EXIT_OK, {"kind": "finite", "matrices": _load_set(args.set).stack(args.cap)}


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


#: ``float.__repr__`` of the non-finite floats and their JSON words.
_FLOAT_WORDS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float_text(x: float) -> str:
    text = float.__repr__(x)
    return _FLOAT_WORDS.get(text, text)


def _scalar_text(o) -> str:
    """JSON text of a scalar, tested in the standard library's order."""
    if isinstance(o, str):
        return encode_basestring_ascii(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        return _float_text(o)
    raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def report_text(report) -> str:
    """``report`` as ``json.dumps`` writes it with indent 2 and sorted keys.

    With an indent, the standard library leaves its C encoder for a
    pure-Python one.  Here each list of floats is one ``str.join``.  A 3-D
    float64 array is a member stack, written as the list of its members'
    ``matrix_json`` wire forms: the bytes the standard library writes for
    that list.  Any other array raises ``TypeError``, as the standard
    library does.  Dict keys must be strings.
    """
    return _text(report, "\n")


def _text(o, nl: str) -> str:
    """JSON text of ``o``, closed by ``nl`` (a newline and the indentation)."""
    inner = nl + "  "
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        if type(o[0]) is float and not [x for x in o if type(x) is not float]:
            return "[" + inner + ("," + inner).join(map(_float_text, o)) + nl + "]"
        items = [_text(x, inner) for x in o]
        opening, closing = "[", "]"
    elif isinstance(o, dict):
        if not o:
            return "{}"
        items = [
            encode_basestring_ascii(k) + ": " + _text(v, inner)
            for k, v in sorted(o.items())
        ]
        opening, closing = "{", "}"
    elif isinstance(o, np.ndarray) and o.ndim == 3 and o.dtype == np.float64:
        return _stack_text(o, nl)
    else:
        return _scalar_text(o)
    return opening + inner + ("," + inner).join(items) + nl + closing


def _stack_text(stack: np.ndarray, nl: str) -> str:
    """JSON text of ``[matrix_json(a) for a in stack]``, closed by ``nl``.

    The members of a Minkowski sum share their rows, so each distinct row
    is formatted once and each member is joined from its rows' texts.
    Rows are told apart by their bytes, which keeps -0.0 and 0.0 apart.
    """
    if not stack.size:
        return _text([matrix_json(a) for a in stack], nl)
    k, n, m = stack.shape
    member, field, row = nl + "  ", nl + "    ", nl + "      "
    entry = row + "  "
    flat = np.ascontiguousarray(stack).reshape(k * n, m)
    distinct, which = np.unique(flat.view(np.dtype((np.void, 8 * m))), return_inverse=True)
    texts = [
        "[" + entry + ("," + entry).join(map(_float_text, r)) + row + "]"
        for r in distinct.view(np.float64).reshape(-1, m).tolist()
    ]
    rows = [texts[i] for i in which.reshape(-1).tolist()]
    head = "{" + field + f'"cols": {m},' + field + '"data": [' + row
    tail = field + "]," + field + f'"rows": {n}' + member + "}"
    members = [head + ("," + row).join(rows[i : i + n]) + tail for i in range(0, k * n, n)]
    return "[" + member + ("," + member).join(members) + nl + "]"


def _emit(report: dict, output: str | None) -> None:
    text = report_text(report) + "\n"
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
    equality.add_argument("--tol", type=float, default=CERTIFICATE_TOL)
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
    parser.set_defaults(cap=None, tol=CERTIFICATE_TOL)
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
    p.add_argument("--tol", type=float, default=COMPARISON_TOL)

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

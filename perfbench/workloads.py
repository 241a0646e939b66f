"""Seeded request generators and independent numpy references.

Each workload yields its requests in blocks.  A block is the unit the timed
loop stops on, so every run measures whole blocks of a fixed composition:
only the matrix entries (and which rows or positions get which role) change
with the seed, never the mix of request sizes.  That keeps throughput and
the tail comparable across seeds.

Every request carries the JSON documents the CLI reads, its flags, and a
check that compares the report against a reference computed here with
``np.linalg.eig``/``eigvals`` -- never with the package's own kernel.
A check returns ``("ok", "")``, ``("flagged", why)`` when the CLI exited
non-zero with an explicit non-convergence error, or ``("wrong", why)`` for
any other disagreement (wrong value, unexpected exit code).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

#: Relative tolerance for comparing reported spectral quantities with the
#: eigenvalue reference (the CLI kernel runs at 1e-12).
VALUE_TOL = 1e-9

#: A product whose two largest eigenvalue moduli agree within this relative
#: band, with rho > 0, has a tied spectrum: cyclic products (peripheral
#: eigenvalues r*exp(2*pi*i*k/p)) and reducible ones with two equal dominant
#: blocks.  Shifted power iteration cannot separate them.  This is a
#: property of the input, independent of any solver.
TIE_TOL = 1e-9

Check = Callable[[int, dict], tuple[str, str]]


@dataclass
class Request:
    """One CLI invocation: subcommand, input documents, flags, reference."""

    kind: str
    inputs: list[dict]
    flags: list[str]
    check: Check
    members: int = 0
    products: int = 0
    tied_products: int = 0


# --- wire format -------------------------------------------------------------


def _matrix_json(a: np.ndarray) -> dict:
    return {"rows": int(a.shape[0]), "cols": int(a.shape[1]), "data": a.tolist()}


def _finite_json(mats) -> dict:
    return {"kind": "finite", "matrices": [_matrix_json(a) for a in mats]}


def _iru_json(row_sets) -> dict:
    return {"kind": "iru", "row_sets": [rs.tolist() for rs in row_sets]}


def _sum_json(left: dict, right: dict) -> dict:
    return {
        "kind": "expr",
        "expr": {
            "op": "sum",
            "left": {"op": "leaf", "set": left},
            "right": {"op": "leaf", "set": right},
        },
    }


# --- references --------------------------------------------------------------


def _close(x: float, ref: float) -> bool:
    return abs(x - ref) <= VALUE_TOL * max(1.0, abs(ref))


def _iru_members(row_sets) -> np.ndarray:
    """All members of an IRU set, last row set varying fastest."""
    sizes = [len(rs) for rs in row_sets]
    choice = np.indices(sizes).reshape(len(sizes), -1).T
    return np.stack([rs[choice[:, i]] for i, rs in enumerate(row_sets)], axis=1)


def _perron(product: np.ndarray) -> tuple[float, np.ndarray]:
    values, vectors = np.linalg.eig(product)
    k = int(np.abs(values).argmax())
    v = np.abs(vectors[:, k].real)
    return float(abs(values[k])), v / v.sum()


def _in_rows(row: np.ndarray, rows: np.ndarray) -> bool:
    return bool((np.abs(rows - row).max(axis=1) <= 1e-12).any())


def _error_kind(report: dict) -> str | None:
    err = report.get("error")
    return err.get("kind") if isinstance(err, dict) else None


def _exit_status(code: int, report: dict) -> tuple[str, str] | None:
    """Classify a non-zero exit; None when the CLI exited 0."""
    if code == 0:
        return None
    if code == 3 and _error_kind(report) == "non-convergence":
        return "flagged", f"exit 3: {report['error'].get('message', '')}"
    return "wrong", f"unexpected exit {code}: {report.get('error')}"


def check_iru_saddle(a_rows, b_rows) -> Check:
    """Saddle of two IRU sets (a singleton B is an IRU set with one row each).

    Recomputes rho and the Perron vector v of a_tilde b_tilde with
    ``np.linalg.eig`` and checks the vertex inequalities row by row: for an
    IRU set, A w >= rho v over all members is min_{r in R_i} r.w >= rho v_i
    for every row i, and likewise for B.  IRU pairs always have a saddle, so
    minmax, maxmin and value must agree and the certificate and the hull
    spot-check must pass.
    """

    def check(code: int, report: dict) -> tuple[str, str]:
        status = _exit_status(code, report)
        if status is not None:
            return status
        a = np.asarray(report["a_tilde"]["data"], dtype=float)
        b = np.asarray(report["b_tilde"]["data"], dtype=float)
        if not all(_in_rows(a[i], rs) for i, rs in enumerate(a_rows)):
            return "wrong", "a_tilde is not a member of A"
        if not all(_in_rows(b[j], rs) for j, rs in enumerate(b_rows)):
            return "wrong", "b_tilde is not a member of B"
        rho, v = _perron(a @ b)
        for key in ("value", "minmax", "maxmin"):
            if not _close(report[key], rho):
                return "wrong", f"{key} {report[key]!r} != reference rho {rho!r}"
        w = b @ v
        band = VALUE_TOL * max(1.0, rho)
        a_slack = min(float((rs @ w).min()) - rho * v[i] for i, rs in enumerate(a_rows))
        b_slack = min(w[j] - float((rs @ v).max()) for j, rs in enumerate(b_rows))
        if a_slack < -band or b_slack < -band:
            return "wrong", f"vertex inequality violated ({a_slack:.3e}, {b_slack:.3e})"
        if report.get("certificate", {}).get("valid") is not True:
            return "wrong", "certificate not valid on an IRU pair"
        if report.get("hull_check") is not True:
            return "wrong", "hull spot-check failed on an IRU pair"
        return "ok", ""

    return check


def check_table(kind: str, table: np.ndarray) -> Check:
    """minimax or saddle on finite/expr sets against a full eigvals table."""
    minmax = float(table.max(axis=1).min())
    maxmin = float(table.min(axis=0).max())

    def check(code: int, report: dict) -> tuple[str, str]:
        status = _exit_status(code, report)
        if status is not None:
            return status
        expect = {"minmax": minmax, "maxmin": maxmin}
        if kind == "saddle":
            expect["value"] = maxmin
        for key, ref in expect.items():
            if not _close(report[key], ref):
                return "wrong", f"{key} {report[key]!r} != reference {ref!r}"
        return "ok", ""

    return check


def check_hset_passes(code: int, report: dict) -> tuple[str, str]:
    """IRU sets satisfy the image alternative at every probe pair."""
    status = _exit_status(code, report)
    if status is not None:
        return status
    if report.get("passed") is not True or report.get("failures") != 0:
        return "wrong", f"alternative failed on an IRU set: {report.get('failures')}"
    return "ok", ""


def check_point_set(expected: np.ndarray) -> Check:
    """algebra output equals the numpy Minkowski sum as a point set."""
    flat = np.unique(expected.reshape(len(expected), -1), axis=0)

    def check(code: int, report: dict) -> tuple[str, str]:
        status = _exit_status(code, report)
        if status is not None:
            return status
        got = np.asarray([m["data"] for m in report["matrices"]], dtype=float)
        got = np.unique(got.reshape(len(got), -1), axis=0)
        if got.shape != flat.shape:
            return "wrong", f"{len(got)} members, reference has {len(flat)}"
        if np.abs(got - flat).max() > 1e-12:
            return "wrong", "member values differ from the numpy sum"
        return "ok", ""

    return check


# --- iru-large ----------------------------------------------------------------

IRU_N = 6
IRU_ROW_SIZES = (2, 3)
IRU_HULL_SAMPLES = 200

#: Number of 3-member row sets in (A, B) for each request of a block; the
#: remaining rows get 2 members, and which rows get 3 is drawn per request.
#: Products per request are 2^(12-s) * 3^s with s = kA + kB.  Every block
#: opens with the full (6, 6) pair, 3^12 = 531,441 products, the request
#: that sets peak RSS.  Three requests share s = 9 (157,464 products), so
#: with 4 or 5 blocks per run the tail (10 samples beyond) falls inside that
#: group, and the median inside the s = 7 group.
IRU_BLOCK = ((6, 6), (5, 4), (4, 5), (3, 6), (2, 2), (3, 2), (3, 3), (2, 4), (4, 3))


def _positive_rows(rng, sizes, cols: int) -> list[np.ndarray]:
    """Row sets of the given sizes with entries uniform in [0.05, 1)."""
    return [rng.uniform(0.05, 1.0, size=(k, cols)) for k in sizes]


def _iru_row_sets(rng, rows: int, cols: int, threes: int) -> list[np.ndarray]:
    big = set(rng.permutation(rows)[:threes].tolist())
    return _positive_rows(rng, [IRU_ROW_SIZES[i in big] for i in range(rows)], cols)


def _iru_saddle_request(rng, threes_a: int, threes_b: int) -> Request:
    a_rows = _iru_row_sets(rng, IRU_N, IRU_N, threes_a)
    b_rows = _iru_row_sets(rng, IRU_N, IRU_N, threes_b)
    ka = int(np.prod([len(r) for r in a_rows]))
    kb = int(np.prod([len(r) for r in b_rows]))
    return Request(
        kind="saddle",
        inputs=[_iru_json(a_rows), _iru_json(b_rows)],
        flags=["--certify", "--hull-samples", str(IRU_HULL_SAMPLES)],
        check=check_iru_saddle(a_rows, b_rows),
        members=ka + kb,
        products=ka * kb,
    )


class IruLarge:
    """Positive IRU x IRU saddles with n = 6, full pair first in each block."""

    #: Four blocks put the tail on the middle of the twelve s = 9 requests;
    #: with three it would sit on the second fastest of nine.
    min_blocks = 4

    params = {
        "n": IRU_N,
        "row_set_sizes": IRU_ROW_SIZES,
        "block_threes": IRU_BLOCK,
        "hull_samples": IRU_HULL_SAMPLES,
        "entries": "uniform(0.05, 1)",
    }

    def blocks(self, rng) -> Iterator[list[Request]]:
        while True:
            yield [_iru_saddle_request(rng, ka, kb) for ka, kb in IRU_BLOCK]

    def warmup(self, rng) -> list[Request]:
        return [_iru_saddle_request(rng, 0, 0)]


# --- sparse-sweep -------------------------------------------------------------

SPARSE_DIMS = (2, 3)
SPARSE_MEMBERS = (2, 5)
SPARSE_ZERO_SHARE = 0.3

#: Requests per block, half with a finite B and half with an expr B.  A
#: multiple of 4, so that every block has the same saddle/minimax and
#: finite/expr mix.  Exactly one request per block (on a finite B) contains
#: a product with a tied spectrum; at SPARSE_ZERO_SHARE about 3% of i.i.d.
#: requests with a finite B and 0.3% with an expr B do, 1.6% of this mix, so
#: one in SPARSE_BLOCK keeps these stragglers at their natural frequency
#: while no seed can bunch them up (see NOTES.md).
SPARSE_BLOCK = 60

#: Candidates drawn per slot.  Power-iteration cost follows the spectral
#: ratio |lambda_2| / |lambda_1| of the slowest product, so each block takes
#: the bucket medians of a sorted pool: its ratios follow the natural
#: distribution's quantiles instead of a small random sample of it.
SPARSE_POOL = 8


def _sparse(rng, rows: int, cols: int, count: int) -> np.ndarray:
    mats = rng.uniform(0.05, 1.0, size=(count, rows, cols))
    mats[rng.random(mats.shape) < SPARSE_ZERO_SHARE] = 0.0
    return mats


@dataclass
class _Candidate:
    a: np.ndarray
    b_doc: dict
    b_count: int
    table: np.ndarray  # reference rho(A_i B_j)
    tied_mask: np.ndarray  # products with a tied spectrum
    ratio: float  # largest |lambda_2| / |lambda_1| over the products

    @property
    def tied(self) -> int:
        return int(self.tied_mask.sum())

    def tied_off_saddle(self) -> bool:
        """No column holding a tied product can win max-min.

        A correct solver then never picks a tied product as its saddle pair,
        so the request runs the kernel to max_iter once (for the table), not
        twice.  Row maxima, and so minmax, still see the tied products.
        """
        mask = self.tied_mask
        clean = ~mask.any(axis=0)
        if not clean.any():
            return False
        best = self.table[:, clean].min(axis=0).max()
        for j in np.flatnonzero(~clean):
            others = self.table[~mask[:, j], j]
            if others.size == 0 or others.min() >= best * (1.0 - 1e-6):
                return False
        return True


def _sparse_candidate(rng, b_expr: bool) -> _Candidate:
    n, m = (int(x) for x in rng.integers(SPARSE_DIMS[0], SPARSE_DIMS[1] + 1, size=2))
    lo, hi = SPARSE_MEMBERS
    a = _sparse(rng, n, m, int(rng.integers(lo, hi + 1)))
    if b_expr:
        k = int(rng.integers(lo, hi + 1))
        left_count, right_count = (2, 2) if k == 4 else (1, k)
        left = _sparse(rng, m, n, left_count)
        right = _sparse(rng, m, n, right_count)
        b = (left[:, None] + right[None, :]).reshape(-1, m, n)
        b_doc = _sum_json(_finite_json(left), _finite_json(right))
    else:
        b = _sparse(rng, m, n, int(rng.integers(lo, hi + 1)))
        b_doc = _finite_json(b)
    products = np.einsum("aij,bjk->abik", a, b).reshape(-1, n, n)
    moduli = np.sort(np.abs(np.linalg.eigvals(products)), axis=1)
    rho = moduli[:, -1]
    positive = rho > 1e-12 * products.sum(axis=(1, 2))
    ratio = np.where(positive, moduli[:, -2] / np.where(positive, rho, 1.0), 0.0)
    tied = positive & (ratio >= 1.0 - TIE_TOL)
    shape = (len(a), len(b))
    return _Candidate(a, b_doc, len(b), rho.reshape(shape), tied.reshape(shape),
                      float(ratio.max()))


class SparseSweep:
    """Small sparse finite/expr requests, stratified by spectral ratio."""

    params = {
        "dims": SPARSE_DIMS,
        "members": SPARSE_MEMBERS,
        "zero_share": SPARSE_ZERO_SHARE,
        "entries": "uniform(0.05, 1) or 0",
        "block": SPARSE_BLOCK,
        "tied_requests_per_block": 1,
        "pool_per_slot": SPARSE_POOL,
        "mix": "saddle --certify / minimax alternating; B finite / expr sum every 2",
    }

    #: Each block holds one request that runs the kernel to max_iter (about
    #: 2-3 s here), so a 20 s run holds fewer than the 11 that a tail with 10
    #: samples beyond needs.  Running at least this many blocks puts the tail
    #: on the stragglers in every run, instead of on whichever request
    #: happens to rank 11th, and on the 4th fastest of them rather than on
    #: the fastest, which the host's speed swings move most.
    min_blocks = 14

    def __init__(self):
        self.drawn = 0
        self.drawn_tied = 0

    def _strata(self, rng, b_expr: bool, count: int):
        """``count`` untied bucket medians, plus the pool's tied candidates."""
        pool = [_sparse_candidate(rng, b_expr) for _ in range(count * SPARSE_POOL)]
        self.drawn += len(pool)
        tied = [c for c in pool if c.tied]
        self.drawn_tied += len(tied)
        untied = sorted((c for c in pool if not c.tied), key=lambda c: c.ratio)
        step = len(untied) / count
        return [untied[int((j + 0.5) * step)] for j in range(count)], tied

    def _request(self, position: int, c: _Candidate) -> Request:
        kind = "saddle" if position % 2 == 0 else "minimax"
        return Request(
            kind=kind,
            inputs=[_finite_json(c.a), c.b_doc],
            flags=["--certify"] if kind == "saddle" else [],
            check=check_table(kind, c.table),
            members=len(c.a) + c.b_count,
            products=c.table.size,
            tied_products=c.tied,
        )

    def _block(self, rng, tied_slot: int | None) -> list[Request]:
        half = SPARSE_BLOCK // 2
        finite, tied = self._strata(rng, False, half - (tied_slot is not None))
        expr, _ = self._strata(rng, True, half)
        if tied_slot is not None:
            # A tied saddle keeps its tied products off the saddle pair, so
            # every block stalls the kernel exactly once.
            usable = [c for c in tied if tied_slot % 2 or c.tied_off_saddle()]
            while not usable:
                c = _sparse_candidate(rng, False)
                if c.tied and (tied_slot % 2 or c.tied_off_saddle()):
                    usable = [c]
        finite = [finite[k] for k in rng.permutation(len(finite))]
        expr = [expr[k] for k in rng.permutation(len(expr))]
        block = []
        for i in range(SPARSE_BLOCK):
            if i == tied_slot:
                c = usable[0]
            else:
                c = finite.pop() if i % 4 < 2 else expr.pop()
            block.append(self._request(i, c))
        return block

    def blocks(self, rng) -> Iterator[list[Request]]:
        block = 0
        while True:
            # The tied request sits on a finite-B slot (position % 4 < 2),
            # a saddle in even blocks and a minimax in odd ones.
            yield self._block(rng, 4 * int(rng.integers(SPARSE_BLOCK // 4)) + block % 2)
            block += 1

    def warmup(self, rng) -> list[Request]:
        return self._block(rng, None)[:4]


# --- set-stress ---------------------------------------------------------------

HSET_ROWS = (5, 5, 5, 5)  # 625 members, 4x4
HSET_PROBES = 10
STRESS_SADDLE_ROWS = (12, 12, 12, 12)  # 20,736 members, 4x4
ALGEBRA_ROWS = (4, 4, 4)  # 64 members, 3x3, summed with another 64


def _hset_request(rng, sizes=HSET_ROWS) -> Request:
    rows = _positive_rows(rng, sizes, len(sizes))
    count = int(np.prod(sizes))
    return Request(
        kind="hset-check",
        inputs=[_iru_json(rows)],
        flags=["--probes", str(HSET_PROBES), "--seed", str(int(rng.integers(2**31)))],
        check=check_hset_passes,
        members=count,
    )


def _stress_saddle_request(rng, sizes=STRESS_SADDLE_ROWS) -> Request:
    n = len(sizes)
    a_rows = _positive_rows(rng, sizes, n)
    b = rng.uniform(0.05, 1.0, size=(n, n))
    count = int(np.prod(sizes))
    return Request(
        kind="saddle",
        inputs=[_iru_json(a_rows), _finite_json([b])],
        flags=[
            "--certify",
            "--hull-samples",
            str(IRU_HULL_SAMPLES),
            "--seed",
            str(int(rng.integers(2**31))),
        ],
        check=check_iru_saddle(a_rows, [row[None, :] for row in b]),
        members=count + 1,
        products=count,
    )


def _algebra_request(rng, sizes=ALGEBRA_ROWS) -> Request:
    n = len(sizes)
    left = _positive_rows(rng, sizes, n)
    right = _positive_rows(rng, sizes, n)
    arr_l, arr_r = _iru_members(left), _iru_members(right)
    sums = (arr_l[:, None] + arr_r[None, :]).reshape(-1, n, n)
    return Request(
        kind="algebra",
        inputs=[_sum_json(_iru_json(left), _iru_json(right))],
        flags=[],
        check=check_point_set(sums),
        members=len(arr_l) + len(arr_r),
    )


class SetStress:
    """Fixed mix: hset-check, a 2e4-member saddle, a Minkowski-sum algebra."""

    #: With 21 requests or fewer, the order statistic with 10 samples above
    #: it sits at or below the median; 8 blocks give 24, so the tail stays
    #: above it.
    min_blocks = 8

    params = {
        "hset_check": {"row_sets": HSET_ROWS, "probes": HSET_PROBES},
        "saddle": {"row_sets": STRESS_SADDLE_ROWS, "b": "one positive 4x4",
                   "hull_samples": IRU_HULL_SAMPLES},
        "algebra": {"row_sets": ALGEBRA_ROWS, "op": "sum of two"},
        "entries": "uniform(0.05, 1)",
    }

    def blocks(self, rng) -> Iterator[list[Request]]:
        while True:
            yield [_hset_request(rng), _stress_saddle_request(rng), _algebra_request(rng)]

    def warmup(self, rng) -> list[Request]:
        small = (2, 2, 2)
        return [
            _hset_request(rng, small),
            _stress_saddle_request(rng, small),
            _algebra_request(rng, small),
        ]


WORKLOADS = {"iru-large": IruLarge, "sparse-sweep": SparseSweep, "set-stress": SetStress}

"""Runs one workload in this process and prints one JSON line.

Started by run.py in a fresh interpreter per workload, so ``ru_maxrss`` is
the workload's own peak.  The loop is closed with one client: the next
request is generated and written, and the previous report checked against
its reference, only after the previous request returned; only the
``cli.main`` call is timed.  A fixed subset of requests is then replayed for
byte identity.  With ``--trace 1`` every request also runs once under the
span tracer, which must not change its report.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import workloads
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent

#: Requests whose index is REPLAY_PHASE modulo REPLAY_EVERY are run again
#: after the timed phase and must reproduce their report byte for byte.
REPLAY_EVERY = 10
REPLAY_PHASE = 3

#: Samples that must lie above the reported tail percentile.
TAIL_BEYOND = 10


@dataclass
class Done:
    """A completed request, kept small.

    Neither the report (only its digest) nor the request's input documents
    are kept: thousands of retained JSON trees would make every garbage
    collection inside a timed call slower as the run goes on.
    """

    kind: str
    members: int
    products: int
    tied_products: int
    block: int
    argv: list[str]
    code: int
    digest: str
    latency: float
    status: str
    why: str
    traced_latency: float = 0.0
    traced_same: bool = True


class Client:
    """Writes each request's input files and calls the CLI in-process."""

    def __init__(self, cli, workdir: Path):
        self.cli = cli
        self.workdir = workdir

    def argv(self, index: int, request: workloads.Request) -> list[str]:
        paths = []
        for j, doc in enumerate(request.inputs):
            path = self.workdir / f"r{index:06d}-{j}.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
            paths.append(str(path))
        return [request.kind, *paths, *request.flags]

    def call(self, argv: list[str]) -> tuple[int, str, float]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            start = perf_counter()
            code = self.cli.main(argv)
            elapsed = perf_counter() - start
        return code, out.getvalue(), elapsed


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def timed_phase(client: Client, blocks, seconds: float, min_blocks: int,
                tracer: Tracer | None = None) -> list[Done]:
    """Run whole blocks until the summed latency reaches ``seconds``.

    At least ``min_blocks`` blocks are run, however long they take.  With a
    tracer, every request also runs traced right next to its untraced run,
    in alternating order so that neither side always runs first.
    """
    done: list[Done] = []
    busy = 0.0
    for number, block in enumerate(blocks):
        for request in block:
            index = len(done)
            argv = client.argv(index, request)
            traced = None
            if tracer is not None and index % 2:
                traced = _traced_call(client, tracer, index, argv)
            code, text, latency = client.call(argv)
            if tracer is not None and not index % 2:
                traced = _traced_call(client, tracer, index, argv)
            status, why = request.check(code, json.loads(text))
            done.append(Done(request.kind, request.members, request.products,
                             request.tied_products, number, argv, code, _digest(text),
                             latency, status, why))
            if traced is not None:
                done[-1].traced_latency = traced[2]
                done[-1].traced_same = traced[:2] == (code, done[-1].digest)
            busy += latency
        if busy >= seconds and number + 1 >= min_blocks:
            return done


def _traced_call(client: Client, tracer: Tracer, index: int, argv: list[str]):
    tracer.request = index
    tracer.install()
    try:
        code, text, latency = client.call(argv)
    finally:
        tracer.uninstall()
    tracer.counts["cli.report_bytes"] += len(text.encode("utf-8"))
    return code, _digest(text), latency


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Highest order statistic with TAIL_BEYOND samples above it.

    Returns (value, percentile, samples above); with too few samples, the
    maximum at percentile 100.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    index = n - TAIL_BEYOND - 1 if n > TAIL_BEYOND else n - 1
    return ordered[index], 100.0 * (index + 1) / n, n - index - 1


def block_throughput(done: list[Done]) -> float:
    """Median over blocks of requests per busy second.

    Blocks share one composition, so the median discards a block that a
    burst of load on the host slowed down.
    """
    busy: dict[int, float] = {}
    count: dict[int, int] = {}
    for d in done:
        busy[d.block] = busy.get(d.block, 0.0) + d.latency
        count[d.block] = count.get(d.block, 0) + 1
    return float(np.median([count[b] / busy[b] for b in busy]))


def replay(client: Client, done: list[Done], indices) -> list[int]:
    """Indices whose second run did not reproduce the report bytes."""
    mismatched = []
    for i in indices:
        code, text, _ = client.call(done[i].argv)
        if code != done[i].code or _digest(text) != done[i].digest:
            mismatched.append(i)
    return mismatched


def input_properties(done: list[Done], workload) -> dict:
    members = [d.members for d in done]
    products = [d.products for d in done]
    tied = [d.tied_products for d in done]
    props = {
        "members_per_request_median": float(np.median(members)),
        "members_per_request_max": int(max(members)),
        "products_per_request_median": float(np.median(products)),
        "products_per_request_max": int(max(products)),
        "tied_request_share": sum(t > 0 for t in tied) / len(done),
        "tied_product_share": sum(tied) / max(sum(products), 1),
    }
    drawn = getattr(workload, "drawn", 0)
    if drawn:
        props["natural_tied_request_share"] = workload.drawn_tied / drawn
        props["candidates_drawn"] = drawn
    return props


def outcome(done: list[Done], mismatched: list[int]) -> dict:
    """Failure counts.

    A request fails on a non-zero exit, a report that disagrees with the
    reference, or a replay that changes the bytes.  ``wrong_untied`` counts
    wrong reports on requests without a tied-spectrum product.  Wrong
    reports on requests with one are the known kernel defect (cyclic
    products do not converge, and ``saddle`` does not flag that): they
    count as failed but do not make the run incorrect.
    """
    statuses = {"ok": 0, "flagged": 0, "wrong": 0}
    for d in done:
        statuses[d.status] += 1
    failed = {i for i, d in enumerate(done) if d.status != "ok"} | set(mismatched)
    examples = [
        f"#{i} {d.kind}{' (tied spectrum)' if d.tied_products else ''}: "
        f"{d.status}: {d.why}"
        for i, d in enumerate(done) if d.status != "ok"
    ][:5]
    return {
        "failed": len(failed),
        "statuses": statuses,
        "wrong_untied": sum(d.status == "wrong" and not d.tied_products for d in done),
        "byte_mismatches": len(mismatched),
        "examples": examples,
    }


def by_kind(done: list[Done]) -> dict:
    kinds: dict[str, list[float]] = {}
    for d in done:
        kinds.setdefault(d.kind, []).append(d.latency)
    return {k: {"n": len(v), "median_s": float(np.median(v)), "max_s": max(v)}
            for k, v in kinds.items()}


def trace_summary(tracer: Tracer, done: list[Done], name: str, seed: int) -> dict:
    untraced = sum(d.latency for d in done)
    traced = sum(d.traced_latency for d in done)
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"trace-{name}-seed{seed}.jsonl"
    tracer.write(spans_path)
    return {
        "metrics": tracer.layer_metrics(traced / untraced - 1.0),
        "traced_busy_s": traced,
        "untraced_busy_s": untraced,
        "spans": len(tracer.spans),
        "absent": sorted(set(tracer.absent)),
        "uncounted": sorted(tracer.uncounted),
        "output_differs": sum(not d.traced_same for d in done),
        "spans_file": str(spans_path.relative_to(ROOT)),
    }


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    from hourglass import cli

    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise RuntimeError(f"hourglass imported from {cli.__file__}, not from {ROOT / 'src'}")

    workload = workloads.WORKLOADS[name]()
    workdir = ROOT / ".perfbench_work" / f"{name}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        client = Client(cli, workdir)
        for k, request in enumerate(workload.warmup(np.random.default_rng([seed, 1]))):
            client.call(client.argv(10**6 + k, request))

        tracer = Tracer() if trace else None
        done = timed_phase(client, workload.blocks(np.random.default_rng([seed, 0])),
                           seconds, getattr(workload, "min_blocks", 1), tracer)
        replayed = [i for i in range(len(done)) if i % REPLAY_EVERY == REPLAY_PHASE]
        mismatched = replay(client, done, replayed)
        latencies = [d.latency for d in done]
        tail_value, tail_pct, tail_beyond = tail(latencies)
        result = {
            "workload": name,
            "seed": seed,
            "requests": len(done),
            "blocks": done[-1].block + 1,
            "busy_s": sum(latencies),
            "throughput_per_s": block_throughput(done),
            "latency_p50_s": float(np.median(latencies)),
            "latency_tail_s": tail_value,
            "tail_percentile": tail_pct,
            "tail_beyond": tail_beyond,
            "replayed": len(replayed),
            **outcome(done, mismatched),
            "by_kind": by_kind(done),
            "input": input_properties(done, workload),
            "params": workload.params,
        }
        if tracer is not None:
            result["trace"] = trace_summary(tracer, done, name, seed)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    print(json.dumps(run(args.workload, args.seed, args.seconds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())

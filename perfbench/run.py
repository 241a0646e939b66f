"""hourglass benchmark: three closed-loop CLI workloads, end to end or traced.

    python3 perfbench/run.py --workload iru-large --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Run from the root of a source checkout: the package is imported from
``src/``, nothing is installed.  Each workload runs in a fresh interpreter
(worker.py) with BLAS/OpenMP threads pinned, so peak RSS is the workload's
own.  ``setup_s`` is the median time for a fresh interpreter to have
``hourglass.cli`` imported.  With ``--trace 0`` the last line holds the
end-to-end metrics; with ``--trace 1`` the per-layer metrics from running
every request a second time under the span tracer (spans.py).  Exit status
is 0 only when a result was printed; a failed reference check is reported
in the result, not as an error.  Workloads, parameters and the metric
mapping are described in NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

from spans import LAYER_METRICS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Fresh interpreters timed for setup_s (after one untimed import that
#: byte-compiles the package).
SETUP_SAMPLES = 11

#: Wall-clock limit for one workload's worker, seconds.
WORKER_TIMEOUT = 170


def thread_env() -> dict[str, str]:
    """One BLAS/OpenMP thread: the kernels here are batched small matrices,
    and starting a BLAS thread pool at import makes set-up time erratic."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def measure_setup(env: dict[str, str]) -> list[float]:
    """Seconds from spawning an interpreter to ``hourglass.cli`` imported."""
    probe = "import time, hourglass.cli; print(repr(time.perf_counter()))"
    samples = []
    for k in range(SETUP_SAMPLES + 1):
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-c", probe], env=env, cwd=ROOT,
            capture_output=True, text=True, timeout=60, check=True,
        )
        if k:  # the first import may byte-compile the package
            samples.append(float(done.stdout.strip()) - start)
    return samples


def run_worker(name: str, seed: int, seconds: float, trace: bool, env) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
    with subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        try:
            out, _ = proc.communicate(timeout=WORKER_TIMEOUT)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise RuntimeError(f"{name}: worker exceeded {WORKER_TIMEOUT} s")
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{name}: worker exited with {proc.returncode}")
    return json.loads(lines[-1])


def machine(env: dict[str, str]) -> str:
    try:
        with open("/proc/meminfo", encoding="ascii") as fh:
            ram = int(fh.readline().split()[1]) / 2**20
    except (OSError, ValueError, IndexError):
        ram = float("nan")
    return (f"machine: nproc {os.cpu_count()}, RAM {ram:.1f} GiB, Python "
            f"{platform.python_version()}, numpy {numpy.__version__}, "
            f"BLAS/OpenMP threads {env['OPENBLAS_NUM_THREADS']}")


def end_to_end(result: dict, setup: list[float]) -> dict:
    return {
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "throughput_per_s": {"value": result["throughput_per_s"], "unit": "1/s"},
        "latency_p50_s": {"value": result["latency_p50_s"], "unit": "s"},
        "latency_tail_s": {"value": result["latency_tail_s"], "unit": "s"},
        "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
    }


def describe(result: dict, setup: list[float]) -> list[str]:
    n = result["requests"]
    failed = result["failed"]
    st = result["statuses"]
    lines = [
        f"workload {result['workload']}  seed {result['seed']}  "
        f"{n} requests in {result['blocks']} blocks, {result['busy_s']:.2f} s busy "
        f"(closed loop, 1 client)",
        f"  setup_s           {statistics.median(setup):10.4f} s     "
        f"median of {len(setup)} fresh interpreters",
        f"  throughput_per_s  {result['throughput_per_s']:10.4f} 1/s   "
        f"median of {result['blocks']} blocks, n={n}",
        f"  latency_p50_s     {result['latency_p50_s']:10.4f} s     n={n}",
        f"  latency_tail_s    {result['latency_tail_s']:10.4f} s     "
        f"p{result['tail_percentile']:.1f}, n={n}, {result['tail_beyond']} samples beyond",
        f"  peak_rss_mb       {result['peak_rss_mb']:10.1f} MB    n=1 process",
        f"  fail_share        {failed / n:10.4f} share "
        f"{failed} of {n}: {st['flagged']} flagged non-convergence, {st['wrong']} wrong "
        f"({st['wrong'] - result['wrong_untied']} on tied-spectrum requests), "
        f"{result['byte_mismatches']} byte mismatches in {result['replayed']} replays",
    ]
    for kind, row in result["by_kind"].items():
        lines.append(f"  {kind:<12} n={row['n']:<5} median {row['median_s']:.4f} s  "
                     f"max {row['max_s']:.4f} s")
    lines.append("  params " + json.dumps(result["params"]))
    lines.append("  input " + json.dumps(result["input"], sort_keys=True))
    lines.extend("  failure " + e for e in result["examples"])
    trace = result.get("trace")
    if trace:
        lines.append(f"  traced runs: {trace['spans']} spans in {trace['spans_file']}, "
                     f"{trace['traced_busy_s']:.2f} s traced vs {trace['untraced_busy_s']:.2f} "
                     f"s untraced, {trace['output_differs']} outputs differ, absent: "
                     f"{', '.join(trace['absent']) or 'none'}, uncounted: "
                     f"{', '.join(trace['uncounted']) or 'none'}")
        for name, unit, _, moves, on in LAYER_METRICS:
            where = "" if on == "both" else f" on {on}"
            lines.append(f"    {name:<28} {trace['metrics'][name]:16.6g} {unit:<6} "
                         f"-> {moves}{where}")
    return lines


def run_one(name: str, seed: int, seconds: float, trace: bool, env) -> dict:
    setup = measure_setup(env)
    result = run_worker(name, seed, seconds, trace, env)
    for line in describe(result, setup):
        print(line)
    if trace:
        values = result["trace"]["metrics"]
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit, *_ in LAYER_METRICS}
    else:
        metrics = end_to_end(result, setup)
    correct = (result["wrong_untied"] == 0 and result["byte_mismatches"] == 0
               and result.get("trace", {}).get("output_differs", 0) == 0)
    return {"correct": correct, "attempted": result["requests"],
            "failed": result["failed"], "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "hourglass" / "cli.py").is_file():
        print(f"error: no hourglass sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = thread_env()
    print(machine(env))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {name: run_one(name, args.seed, args.seconds, bool(args.trace), env)
                   for name in names}
    except (RuntimeError, subprocess.SubprocessError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{k}": v for name, r in results.items()
                        for k, v in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

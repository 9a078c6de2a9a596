"""skeinlab benchmark: one workload per call, measured from outside.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
`src/`, and the oracle of `tests/oracles.py` checks small products.  A
run repeats whole rounds of the workload's fixed operation list, as many
as fit in S seconds (at least one), checks every output, and prints as
its last line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (see README.md), timed
by CPU time, and the workload's wall-clock figures are printed before
the JSON line; with --trace 1 the run alternates untraced and traced
rounds and reports the per-layer figures of the traced ones, plus the
tracing overhead.
`--workload all` runs every workload in its own fresh interpreter, one
after another, and prints each one's result line.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

# One thread per process, inherited by every process the run starts.  By
# default numpy's OpenBLAS starts a worker thread per core in each process
# that imports it; the workers spin at start-up, so on a shared machine a
# command's time follows the other load rather than the program.
os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")

from spans import Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = {
    "roundtrip-5h": "roundtrip",
    "products-5h": "products",
    "cli-defaults": "cli_defaults",
}
SETUP_REPEATS = 25


def _metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": value, "unit": unit}


def _import_workload(name: str):
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    return __import__(WORKLOADS[name])


def _probe_setup(workload: str, seed: int) -> float:
    """Seconds from spawning a fresh interpreter until it has built the
    workload's inputs."""
    argv = [sys.executable, __file__, "--workload", workload, "--seed", str(seed), "--setup-probe"]
    start = time.perf_counter()
    with subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=60)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"setup probe for {workload} failed (exit {code})")
    return elapsed


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024


def _timed_round(module, inputs, tracer=None):
    gc.collect()
    start = time.perf_counter()
    rnd = module.run_round(inputs, tracer)
    return rnd, time.perf_counter() - start


def run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    module = _import_workload(workload)
    setup_s = statistics.median(_probe_setup(workload, seed) for _ in range(SETUP_REPEATS))
    inputs = module.build(ROOT, seed)
    try:
        plain, traced = [], []
        start = time.perf_counter()
        # Whole rounds only, as many as fit in `seconds` (at least one), so
        # every run attempts the same operations in the same proportions.
        while True:
            begun = time.perf_counter()
            plain.append(_timed_round(module, inputs))
            if trace:
                tracer = Tracer()
                traced.append((tracer,) + _timed_round(module, inputs, tracer))
            now = time.perf_counter()
            if now - start + (now - begun) > seconds:
                break
        rounds = [rnd for rnd, _ in plain] + [rnd for _, rnd, _ in traced]
        problems = [p for rnd in rounds for p in rnd.problems]
        problems += module.check_once(inputs, rounds[0])
        if any(rnd.outputs != rounds[0].outputs for rnd in rounds):
            problems.append("rounds gave different outputs")
    finally:
        close = getattr(module, "close", None)
        if close is not None:
            close(inputs)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    if trace:
        metrics = _layer_metrics(plain, traced)
    else:
        metrics = _end_to_end(module, plain, setup_s)
    return {
        "correct": not problems,
        "attempted": sum(rnd.attempted for rnd in rounds),
        "failed": sum(rnd.failed for rnd in rounds),
        "metrics": metrics,
    }


def _end_to_end(module, plain, setup_s: float) -> dict:
    # Each operation's median over the run's rounds: round_cpu_s is one
    # round at those medians, op_cpu_geomean_ms weighs every operation
    # alike.  CPU time leaves out waiting for a core and for the disk.
    cpu = _op_medians(rnd.op_cpu_seconds for rnd, _ in plain)
    wall = _op_medians(rnd.op_wall_seconds for rnd, _ in plain)
    # The workload's own wall-clock figures under the names users know;
    # the JSON carries the metrics that every workload shares.
    for name, (value, unit) in module.named_metrics(wall).items():
        print(f"{name} = {value:.6g} {unit}")
    geomean_s = math.exp(statistics.fmean(math.log(t) for t in cpu))
    return {
        "setup_s": _metric(setup_s, "s"),
        "round_cpu_s": _metric(sum(cpu), "s"),
        "op_cpu_geomean_ms": _metric(geomean_s * 1000, "ms"),
        "peak_rss_mb": _metric(_peak_rss_mb(), "MB"),
    }


def _op_medians(per_round) -> List[float]:
    return [statistics.median(times) for times in zip(*per_round)]


def _layer_metrics(plain, traced) -> dict:
    per_round = []
    for tracer, rnd, wall in traced:
        for key, value in rnd.counts.items():
            tracer.counts[key] += value
        values = tracer.layer_metrics()
        values["trace.other_s"] = wall - sum(v for k, v in values.items() if k.endswith("_s"))
        values["trace.round_s"] = wall
        per_round.append(values)
    metrics = {}
    for key in per_round[0]:
        value = statistics.median(values[key] for values in per_round)
        metrics[key] = _metric(value, "s" if key.endswith("_s") else "count")
    untraced = statistics.median(wall for _, wall in plain)
    metrics["trace.untraced_round_s"] = _metric(untraced, "s")
    metrics["trace.overhead_s"] = _metric(metrics["trace.round_s"]["value"] - untraced, "s")
    return metrics


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    missing = [p for p in ("src/skeinlab/skein.py", "tests/oracles.py") if not (ROOT / p).is_file()]
    if missing:
        print(f"not a skeinlab source checkout: missing {', '.join(missing)}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)
    if args.setup_probe:
        module = _import_workload(args.workload)
        inputs = module.build(ROOT, args.seed)
        print("ready", flush=True)
        getattr(module, "close", lambda _: None)(inputs)
        return 0
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


def _run_all(args) -> int:
    code = 0
    for workload in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
        if result is None or not result["correct"]:
            code = 1
        print(f"{workload}: " + json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark runner for perioddomains.

    python3 perfbench/run.py --workload coset_sweep --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all [--trace 1]

A workload's unit is a fixed, seeded sequence of ops. Every unit runs in a
fresh child interpreter (child.py) with this checkout's src/ on PYTHONPATH,
hash seed 0 and BLAS/OpenMP threads pinned to 1, one child at a time, so
each unit sets the workload up from cold caches. With --trace 0 a run
repeats the unit until --seconds have passed, at least MIN_UNITS times, and
reports the end-to-end metrics of BENCHMARK.json as medians over units;
setup_s also counts set-up-only children, so that it is the median of at
least MIN_SETUPS set-ups. Set-up and op times are scaled to a reference
interpreter speed (speed.py). A unit with any failed check fails as a
whole, and the run then exits with code 1 after printing its result. With
--trace 1 it runs one untraced and one traced unit and reports the
per-layer metrics, including the tracing overhead; the spans go to
perfbench/out/trace-*.json.

The last line of stdout is the JSON result. Each run is also appended, with
seed, run index, commit and versions, to perfbench/out/results.jsonl.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
PACKAGE = ROOT / "src" / "perioddomains"
MIN_UNITS = 3
# setup_s is the median of at least this many set-ups: one per unit, and
# set-up-only children for the rest. With the 3 or 4 units of a flag_count
# run alone, its spread over seeds was 7-8%.
MIN_SETUPS = 7
RUN_LIMIT_S = 170
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class RunFailed(Exception):
    pass


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def run_child(phase: str, workload: str, seed: int, size: str, deadline: float,
              trace_file: Path | None = None) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    env.update({var: "1" for var in THREAD_VARS})
    cmd = [sys.executable, str(BENCH_DIR / "child.py"), phase, workload, str(seed), size]
    if trace_file is not None:
        cmd.append(str(trace_file))
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise RunFailed(f"{phase} phase of {workload} ran past the time limit") from None
    if proc.returncode != 0:
        raise RunFailed(f"{phase} phase of {workload} exited with code {proc.returncode}")
    return json.loads(proc.stdout)


def percentile(sorted_values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(p / 100 * len(sorted_values)) - 1)]


def end_to_end(units: list[dict], setups: list[float]) -> dict[str, float]:
    """Median set-up time, and medians over units of each unit's throughput,
    latency percentiles and peak RSS."""
    def median(f):
        return statistics.median(f(u) for u in units)

    def latency_ms(p):
        return lambda u: 1e3 * percentile(sorted(u["latencies"]), p)

    return {
        "setup_s": statistics.median(setups),
        "ops_per_s": median(lambda u: len(u["latencies"]) / sum(u["latencies"])),
        "op_p50_ms": median(latency_ms(50)),
        "op_p99_ms": median(latency_ms(99)),
        "ok_frac": 1 - sum(u["failed"] for u in units) / sum(u["attempted"] for u in units),
        "peak_rss_mb": median(lambda u: u["peak_rss_mb"]),
    }


def tracing_overhead(timed: dict, traced: dict) -> float:
    """Traced over untraced time for the same unit of ops, minus one."""
    return sum(traced["latencies"]) / sum(timed["latencies"]) - 1


def run_workload(workload: str, seed: int, seconds: float, trace: bool, size: str) -> dict:
    """One run: the measured values and the children's results."""
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    if not trace:
        units = []
        while len(units) < MIN_UNITS or time.monotonic() - start < seconds:
            began = time.monotonic()
            units.append(run_child("timed", workload, seed, size, deadline))
            now = time.monotonic()
            if len(units) >= MIN_UNITS and now + (now - began) > deadline:
                break
        setups = [u["setup_s"] for u in units]
        while len(setups) < MIN_SETUPS:
            setups.append(run_child("setup", workload, seed, size, deadline)["setup_s"])
        return {"values": end_to_end(units, setups), "children": units}
    OUT_DIR.mkdir(exist_ok=True)
    timed = run_child("timed", workload, seed, size, deadline)
    trace_file = OUT_DIR / f"trace-{workload}-seed{seed}.json"
    traced = run_child("traced", workload, seed, size, deadline, trace_file)
    values = dict(traced["layers"], **{"trace.overhead_frac": tracing_overhead(timed, traced)})
    return {"values": values, "children": [timed, traced], "groups": traced["groups"],
            "trace_file": trace_file}


def commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                              capture_output=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() or None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(PACKAGE.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def record(args, run: dict, metrics: dict, result: dict) -> None:
    """Append the run, with everything needed to compare it later, to results.jsonl."""
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / "results.jsonl"
    key = (args.workload, args.seed, args.trace, args.size)
    index = 0
    if path.exists():
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                old = json.loads(line)
                index += (old["workload"], old["seed"], old["trace"], old["size"]) == key
    child = run["children"][0]
    entry = {
        "workload": args.workload, "seed": args.seed, "run": index, "trace": args.trace,
        "size": args.size, "seconds": args.seconds, "commit": commit(),
        "src_sha256": source_digest(), "python": child["python"], "numpy": child["numpy"],
        "nproc": len(os.sched_getaffinity(0)), "digest": child["digest"],
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"], "metrics": metrics, "groups": run.get("groups"),
    }
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(entry) + "\n")


def one_run(args, spec: dict) -> dict:
    run = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": run["values"][m["name"]], "unit": m["unit"],
                           "better": m["better"]} for m in wanted}
    attempted = sum(c["attempted"] for c in run["children"])
    failed = sum(c["failed"] for c in run["children"])
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in metrics.items()}}
    child = run["children"][0]
    units = run["children"][:1] if args.trace else run["children"]
    n = len(child["latencies"])
    print(f"# {args.workload} seed={args.seed} trace={args.trace} size={args.size}: "
          f"{len(units)} unit run(s) of {n} ops, {n - math.ceil(0.99 * n)} beyond each unit's p99; "
          f"{attempted} attempted, {failed} failed; output digest {child['digest']}")
    if args.trace:
        top = ", ".join(f"{g} {share:.1%}" for g, share in run["groups"][:3])
        print(f"# share of op time in the traced unit: {top}")
        print(f"# spans written to {run['trace_file'].relative_to(ROOT)}")
    record(args, run, metrics, result)
    return result


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every workload, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: no perioddomains package at {PACKAGE.relative_to(ROOT)}", file=sys.stderr)
        return 2
    try:
        if args.workload != "all":
            result = one_run(args, spec)
            print(json.dumps(result))
            return 0 if result["correct"] else 1
        all_correct = True
        rows = []
        for name in names:
            args.workload = name
            result = one_run(args, spec)
            all_correct &= result["correct"]
            rows += [(name, metric, m["value"], m["unit"])
                     for metric, m in result["metrics"].items()]
    except RunFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for name, metric, value, unit in rows:
        print(f"{name:12} {metric:34} {value:14.6g} {unit}")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Record a before/after benchmark comparison in BENCH_<name>.json.

Exports HEAD (the parent) and the working tree's tracked files (the change;
stage new files with `git add` first) with `git archive` into a temporary
directory, and runs `perfbench/run.py` in each on the held-out seed 1 for
the run length that BENCHMARK.json fixes, ten pairs per workload,
alternating which side runs first. Each side runs its own committed
benchmark and library, so only the exported files are measured. The record
holds the workload, seed, run length, Python version and CPU count, and per
end-to-end metric each side's runs, median and quartiles, the pairs the
change won, and a verdict. Each side also records its `src` tree hash,
`src_lines`, the `wc -l` total of `src/perioddomains/*.py` in its export,
and `tests_lines`, that of `tests/*.py`, so that code moved from the
library into the tests shows as moved, not as removed.
The verdicts:

- gain: the change won at least nine tenths of the pairs (ties count for
  neither side), and the medians differ by more than the distance between
  the quartiles of the parent's runs and by at least one fifth of the
  metric's bound, relative to the parent's median (GAIN_SHARE);
- regression: the change's median is worse than the parent's by more than
  the metric's bound in BENCHMARK.json;
- unresolved: either side's spread, (q3 - q1) / |median|, is wider than the
  bound, and not every run of the change beats every run of the parent;
- within bound: none of these.

A verdict compares the two exports, not the code: a `gain` says that one
export ran faster than the other, not that the changed code made it so. A
workload that runs no changed code can read `gain` on a drift of about 3%
between the sides (flag_count in BENCH_26), so a record that reports a
gain also says whether that workload times code the change touched.

Example:
    python scripts/bench_record.py --name 8 --workload flag_count
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("before", "after")
SEED = 1
PAIRS = 10
# a gain must move the median by at least this share of the metric's bound
GAIN_SHARE = 0.2


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, stdout=subprocess.PIPE,
                          text=True).stdout.strip()


def commits() -> dict[str, str]:
    """HEAD, and a commit of the working tree's tracked files."""
    head = git("rev-parse", "HEAD")
    return {"before": head, "after": git("stash", "create") or head}


def export(commit: str, dest: Path) -> None:
    tar = subprocess.run(["git", "archive", commit], cwd=ROOT, check=True,
                         stdout=subprocess.PIPE).stdout
    # extraction filters came with Python 3.10.12 and 3.11.4; the archive is
    # this repository's own, so older releases extract it unfiltered
    safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, **safe)


def _wc(directory: Path) -> int:
    """The `wc -l` total of the Python files directly in directory."""
    return sum(p.read_bytes().count(b"\n") for p in directory.glob("*.py"))


def src_lines(tree: Path) -> int:
    """The `wc -l` total of the library's modules in an exported tree."""
    return _wc(tree / "src" / "perioddomains")


def tests_lines(tree: Path) -> int:
    """The `wc -l` total of the test modules in an exported tree."""
    return _wc(tree / "tests")


def run_bench(tree: Path, workload: str, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", str(seconds)],
        cwd=tree, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise SystemExit(f"error: {workload} in {tree} exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    return {"correct": result["correct"],
            "metrics": {name: m["value"] for name, m in result["metrics"].items()}}


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def spread(side: dict) -> float:
    """The distance between the quartiles relative to the median."""
    width = side["q3"] - side["q1"]
    if not side["median"]:
        return float("inf") if width else 0.0
    return width / abs(side["median"])


def compare(before: list[float], after: list[float], better: str, bound: float) -> dict:
    """Both sides' summaries, the pairs the change won, and the verdict."""
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (a - b) > 0 for b, a in zip(before, after))
    b, a = summary(before), summary(after)
    gap = sign * (a["median"] - b["median"])
    shift = gap / abs(b["median"]) if b["median"] else 0.0
    if wins >= 0.9 * len(before) and gap > b["q3"] - b["q1"] and shift >= GAIN_SHARE * bound:
        verdict = "gain"
    elif -shift > bound:
        verdict = "regression"
    elif max(spread(b), spread(a)) > bound and \
            not all(sign * (x - y) > 0 for x in after for y in before):
        verdict = "unresolved"
    else:
        verdict = "within bound"
    return {"before": b, "after": a, "after_wins": wins, "pairs": len(before),
            "verdict": verdict}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--name", required=True, help="the record is BENCH_<name>.json")
    parser.add_argument("--workload", action="append", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    args = parser.parse_args(argv)

    seconds = spec["run_seconds"]
    revs = commits()
    record = {
        "seed": SEED, "seconds": seconds, "pairs": PAIRS,
        "python": platform.python_version(), "cpu_count": os.cpu_count(),
        **{side: {"rev": "HEAD" if side == "before" else "working tree",
                  "src_tree": git("rev-parse", f"{revs[side]}:src")} for side in SIDES},
        "workloads": {},
    }
    with tempfile.TemporaryDirectory() as scratch:
        trees = {side: Path(scratch) / side for side in SIDES}
        for side in SIDES:
            export(revs[side], trees[side])
            record[side]["src_lines"] = src_lines(trees[side])
            record[side]["tests_lines"] = tests_lines(trees[side])
        for workload in args.workload:
            runs: dict[str, list[dict]] = {side: [] for side in SIDES}
            for pair in range(PAIRS):
                order = SIDES if pair % 2 == 0 else SIDES[::-1]
                for side in order:
                    runs[side].append(run_bench(trees[side], workload, seconds))
                print(f"{workload}: pair {pair + 1}/{PAIRS} done", file=sys.stderr)
            record["workloads"][workload] = {
                "correct": {side: all(r["correct"] for r in runs[side]) for side in SIDES},
                "metrics": {
                    m["name"]: {"unit": m["unit"], "better": m["better"], "bound": m["bound"],
                                **compare([r["metrics"][m["name"]] for r in runs["before"]],
                                          [r["metrics"][m["name"]] for r in runs["after"]],
                                          m["better"], m["bound"])}
                    for m in spec["end_to_end"]},
            }
    out = ROOT / f"BENCH_{args.name}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out.name}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())

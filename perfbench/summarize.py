"""Summarise two sets of benchmark runs into perfbench/baseline.json.

    for set in 1 2; do
      for w in coset_sweep cli_repeat flag_agree flag_count; do
        for seed in 0 1 2 3 4 5 6 7 8 9; do
          python3 perfbench/run.py --workload $w --seed $seed
        done
      done
    done
    for w in coset_sweep cli_repeat flag_agree flag_count; do
      python3 perfbench/run.py --workload $w --trace 1
    done
    python3 perfbench/summarize.py

Reads perfbench/out/results.jsonl and keeps the full-size runs of the
current src/perioddomains (by digest) at BENCHMARK.json's run_seconds. The
k-th untraced run of each (workload, seed) belongs to set k. For each of the
first two sets, workload and end-to-end metric it gives the median over
seeds, the quartiles (statistics.quantiles, n=4) and the spread, the
interquartile range as a share of the median. It compares the two medians
both ways: how much worse the second set is than the first, as a share of
the first, and the first than the second, as a share of the second. A
spread above a third of the metric's bound is flagged SPREAD, a change in
either direction above the bound SHIFT. The last traced run of each
workload adds the per-layer metrics. Writes perfbench/baseline.json and
exits 1 on any flag, any incorrect run, or fewer than two sets.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict

import run as runner


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"values": values, "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median}


def worse(metric: dict, value: float, reference: float) -> float:
    """How much worse `value` is than `reference`, as a share of `reference`."""
    change = value - reference if metric["better"] == "lower" else reference - value
    return change / reference


def main() -> int:
    spec = runner.load_spec()
    digest = runner.source_digest()
    entries = []
    with open(runner.OUT_DIR / "results.jsonl", encoding="utf-8") as handle:
        for line in handle:
            e = json.loads(line)
            if (e["src_sha256"] == digest and e["size"] == "full"
                    and e["seconds"] == spec["run_seconds"]):
                entries.append(e)
    sets: dict[str, list[dict[int, dict]]] = defaultdict(list)
    traced = {}
    for e in entries:
        if e["trace"]:
            traced[e["workload"]] = e
            continue
        runs = sets[e["workload"]]
        k = next((k for k, s in enumerate(runs) if e["seed"] not in s), len(runs))
        if k == len(runs):
            runs.append({})
        runs[k][e["seed"]] = e

    ok = all(e["correct"] for e in entries)
    first = entries[0] if entries else {}
    report = {key: first.get(key) for key in ("commit", "src_sha256", "python", "numpy", "nproc")}
    report["run_seconds"] = spec["run_seconds"]
    report["workloads"] = {}
    for w in (w["name"] for w in spec["workloads"]):
        runs = sets.get(w, [])
        if len(runs) < 2 or sorted(runs[0]) != sorted(runs[1]) or w not in traced:
            print(f"{w}: needs two sets of untraced runs on the same seeds and a traced run",
                  file=sys.stderr)
            ok = False
            continue
        entry = {"seeds": sorted(runs[0]), "sets": [{}, {}], "change": {}}
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            a, b = ([runs[k][s]["metrics"][name]["value"] for s in entry["seeds"]]
                    for k in (0, 1))
            entry["sets"][0][name], entry["sets"][1][name] = spread(a), spread(b)
            change = {"second_vs_first": worse(m, entry["sets"][1][name]["median"],
                                               entry["sets"][0][name]["median"]),
                      "first_vs_second": worse(m, entry["sets"][0][name]["median"],
                                               entry["sets"][1][name]["median"]),
                      "bound": bound}
            entry["change"][name] = change
            flags = []
            if max(s[name]["spread"] for s in entry["sets"]) > bound / 3:
                flags.append("SPREAD")
            if max(change["second_vs_first"], change["first_vs_second"]) > bound:
                flags.append("SHIFT")
            ok &= not flags
            print(f"{w:12} {name:12} median {entry['sets'][0][name]['median']:12.6g} "
                  f"{entry['sets'][1][name]['median']:12.6g} {m['unit']:6} spread "
                  f"{entry['sets'][0][name]['spread']:6.2%} {entry['sets'][1][name]['spread']:6.2%} "
                  f"worse {change['second_vs_first']:+7.2%} {change['first_vs_second']:+7.2%} "
                  f"bound {bound:.0%} {' '.join(flags)}")
        t = traced[w]
        entry["traced"] = {"seed": t["seed"], "groups": t["groups"][:5],
                           "metrics": {k: v["value"] for k, v in t["metrics"].items()}}
        report["workloads"][w] = entry
    with open(runner.BENCH_DIR / "baseline.json", "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1)
        handle.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

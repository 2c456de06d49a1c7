"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import cli_repeat  # noqa: E402
import flags  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from spans import NULL_TRACER  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", NAMES)
def test_tiny_run_reports_every_metric(name, trace):
    proc = run_bench("--workload", name, "--size", "tiny", "--seconds", "0",
                     "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))


def test_wrong_pinned_count_fails_the_unit(monkeypatch):
    cell = (2, 2, (1, -1))
    monkeypatch.setitem(flags.PINNED_SEMISTABLE, cell, flags.PINNED_SEMISTABLE[cell] + 1)
    workload = flags.FlagAgree(0, "tiny", NULL_TRACER)
    result = workloads.measure(workload, NULL_TRACER, speed.SpeedClock())
    assert result["checks_failed"] == 1
    assert result["failed"] == result["attempted"] > 0


def test_wrong_digest_fails_the_unit():
    workload = flags.FlagCount(0, "tiny", NULL_TRACER)
    result = workloads.measure(workload, NULL_TRACER, speed.SpeedClock(), "0" * 64)
    assert result["checks_failed"] == 1
    assert result["failed"] == result["attempted"] > 0


def test_failed_unit_fails_the_run(monkeypatch, tmp_path, capsys):
    def failing_child(phase, workload, seed, size, deadline, trace_file=None):
        return {"setup_s": 0.5, "latencies": [1e-3] * 200, "attempted": 200,
                "failed": 200, "checks_failed": 1, "digest": "0" * 64, "peak_rss_mb": 30.0,
                "python": "3", "numpy": "2"}
    monkeypatch.setattr(run, "run_child", failing_child)
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    assert run.main(["--workload", NAMES[0], "--seconds", "0"]) == 1
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert not result["correct"] and result["failed"] == result["attempted"]
    assert result["metrics"]["ok_frac"]["value"] == 0


def test_inputs_depend_only_on_seed():
    def texts(seed):
        return [call.args[1] for _, call, _ in
                cli_repeat.CliRepeat(seed, "tiny", NULL_TRACER).ops(NULL_TRACER)]
    assert texts(workloads.DEFAULT_SEED) == texts(workloads.DEFAULT_SEED)
    assert texts(workloads.DEFAULT_SEED) != texts(workloads.HELD_OUT_SEED)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("--workload", NAMES[0], "--seed", "0", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

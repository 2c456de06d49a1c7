"""Child interpreter of the benchmark: set up one workload, then run one unit.

    python perfbench/child.py PHASE WORKLOAD SEED SIZE [TRACE_FILE]

Sets the workload up, then runs one unit of it. PHASE is `timed`;
`traced`, which also records spans and writes them to TRACE_FILE; or
`setup`, which stops after set-up and reports only its time. run.py
starts a fresh child for every unit, so the library's caches start cold
every time. Set-up is timed from just after speed.py, and with it
fractions, is imported; set-up and op times are at reference speed
(speed.SpeedClock). Prints one JSON object on stdout.
"""

import sys
from time import perf_counter

import speed

CLOCK = speed.SpeedClock()
CLOCK.arm()
SETUP_START = perf_counter()

import json  # noqa: E402

import workloads  # noqa: E402
from spans import NULL_TRACER, Tracer, group_shares, layer_metrics, scale_durations  # noqa: E402


def peak_rss_mb() -> float:
    """Peak RSS of this process's own address space. ru_maxrss would not do:
    Linux carries the parent's peak over into it across fork and exec, and
    the parent grows as it collects the units' results."""
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(argv: list[str]) -> int:
    phase, name, seed, size = argv[:4]
    seed = int(seed)
    tracer = Tracer() if phase == "traced" else NULL_TRACER
    workload = workloads.load(name)(seed, size, tracer)
    setup_end = perf_counter()
    CLOCK.disarm()
    if phase == "setup":
        CLOCK.stop()
        json.dump({"setup_s": CLOCK.scaled([(SETUP_START, setup_end)])[0]}, sys.stdout)
        return 0
    pinned = None
    if seed == workloads.DEFAULT_SEED and size == "full":
        pinned = workloads.PINNED_DIGESTS.get(name)
    result = workloads.measure(workload, tracer, CLOCK, pinned)
    CLOCK.stop()
    scaled = CLOCK.scaled([(SETUP_START, setup_end)] + result.pop("intervals"))
    result["setup_s"], result["latencies"] = scaled[0], scaled[1:]
    result["peak_rss_mb"] = peak_rss_mb()
    if phase == "traced":
        scale_durations(tracer.spans, CLOCK)
        tracer.write(argv[4])
        result["layers"] = layer_metrics(tracer.spans)
        result["groups"] = group_shares(tracer.spans)
    # Looked up after the unit, which must not pay for it.
    from importlib.metadata import version
    result["python"] = sys.version.split()[0]
    result["numpy"] = version("numpy")
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""The four seeded workloads of the perioddomains benchmark.

A workload builds everything it needs in its constructor; that is the
set-up `setup_s` times. `ops` then yields the workload's unit of work, a
fixed sequence of ops, as `(group, call, check)`:

* `call()` calls the library's public functions and is the only part timed;
* `check(value)` compares the value with its reference outside the timer and
  returns `(failures, record)`; the records feed the output digest.

After the last op, `finish()` checks the unit as a whole (pinned or
closed-form counts) and returns its failures. Inputs come from the workload
seed; the library receives only values. One child interpreter runs one
unit, so every unit starts with the library's caches cold.

The workloads themselves are in coset_sweep.py, cli_repeat.py and flags.py;
this module loads them and runs a unit.
"""

from __future__ import annotations

import hashlib
import importlib
import sys
from time import perf_counter

DEFAULT_SEED = 0
HELD_OUT_SEED = 1


# Each workload lives in a module of its own that imports only the library
# modules it calls, so its set-up pays for no other import: the flag
# workloads, for one, never import strata and so numpy.
WORKLOADS = {"coset_sweep": ("coset_sweep", "CosetSweep"),
             "cli_repeat": ("cli_repeat", "CliRepeat"),
             "flag_agree": ("flags", "FlagAgree"),
             "flag_count": ("flags", "FlagCount")}


def load(name: str):
    """The workload class of `name`, importing its module."""
    module, cls = WORKLOADS[name]
    return getattr(importlib.import_module(module), cls)


# sha256 of the records of one unit at DEFAULT_SEED, full size.
PINNED_DIGESTS = {
    "coset_sweep": "5118988eaddf831dc370f0e8c7269b697b2d1c56fb5dfa2826658535c38dc16a",
    "cli_repeat": "01daf615444d84315c5aef6c3a1e831deb87b4cd367e2662cc2f7bf030e142be",
    "flag_agree": "bf40fd68557eafc8d31c188bc15b8bf0355ffbf70dbdd164884530279fcc88c7",
    "flag_count": "4ac14c2f0a8cc6e8c2c865d89a2b1237d0ca7dd8219d846cd6269122f29c3453",
}

MAX_REPORTED_ERRORS = 5


def measure(workload, tr, clock, pinned_digest: str | None = None) -> dict:
    """Run and check every op of the workload's unit, timing each call.

    `intervals` holds each op's (start, end) perf_counter reading, for
    `clock`, a speed.SpeedClock, to scale. `checks_failed` counts failed ops plus failed
    unit-level checks (counts, digest). A unit with any failed check fails
    as a whole: `failed` is then every op of the unit, so one wrong count or
    one disagreeing point is enough to move `ok_frac`.
    """
    intervals = []
    failed = errors = 0
    digest = hashlib.sha256()
    for i, (group, call, check) in enumerate(workload.ops(tr)):
        tr.op = i
        clock.arm()
        t0 = perf_counter()
        try:
            with tr.span("op", group=group):
                value = call()
        except Exception as exc:  # an op that raises is a failed op, reported below
            intervals.append((t0, perf_counter()))
            clock.disarm()
            errors += 1
            if errors <= MAX_REPORTED_ERRORS:
                print(f"op {i} ({group}) raised {exc!r}", file=sys.stderr)
            bad, record = 1, f"error {type(exc).__name__}"
        else:
            intervals.append((t0, perf_counter()))
            clock.disarm()
            bad, record = check(value)
        clock.after_op(intervals[-1][1] - t0)
        failed += bad
        digest.update(record.encode() + b"\n")
    tr.op = None
    failed += workload.finish()
    hexdigest = digest.hexdigest()
    if pinned_digest is not None and hexdigest != pinned_digest:
        print(f"output digest {hexdigest} differs from the pinned one", file=sys.stderr)
        failed += 1
    attempted = len(intervals)
    return {"intervals": intervals, "attempted": attempted,
            "failed": attempted if failed else 0, "checks_failed": failed,
            "digest": hexdigest}

"""In-memory spans around the benchmark's calls into the library, and the
per-layer metrics derived from them.

A span records name, start, end, parent span and op id, plus a few
attributes (cold key, semistability verdict, command, group).  Spans are
kept in a list while the traced phase runs and written out once at the end,
with each span's duration at reference speed (speed.py). Untraced phases
use NULL_TRACER, whose spans do no bookkeeping.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from time import perf_counter


class Span:
    __slots__ = ("id", "name", "start", "end", "duration", "parent", "op", "attrs", "_open")

    def __init__(self, sid, name, parent, op, attrs, open_stack):
        self.id, self.name, self.parent, self.op = sid, name, parent, op
        self.attrs, self._open = attrs, open_stack
        self.end = self.duration = None
        self.start = perf_counter()

    def __enter__(self) -> dict:
        return self.attrs

    def __exit__(self, *exc) -> bool:
        self.end = perf_counter()
        self._open.pop()
        return False


class Tracer:
    """Records every span in memory; `op` is the id of the op being run
    (None during set-up)."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self.op: int | None = None
        self.origin = perf_counter()

    def span(self, name: str, **attrs) -> Span:
        parent = self._open[-1] if self._open else None
        s = Span(len(self.spans), name, parent, self.op, attrs, self._open)
        self.spans.append(s)
        self._open.append(s.id)
        return s

    def write(self, path) -> None:
        rows = [{"id": s.id, "name": s.name,
                 "start": s.start - self.origin, "end": s.end - self.origin,
                 "duration": s.duration, "parent": s.parent, "op": s.op, **s.attrs}
                for s in self.spans]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(rows, handle)


class _NullSpan:
    attrs: dict = {}

    def __enter__(self) -> dict:
        return self.attrs

    def __exit__(self, *exc) -> bool:
        return False


class _NullTracer:
    op = None
    _span = _NullSpan()

    def span(self, name: str, **attrs) -> _NullSpan:
        return self._span


NULL_TRACER = _NullTracer()


def scale_durations(spans: list[Span], clock) -> None:
    """Set each span's duration to its time at reference speed, by the
    child's speed.SpeedClock. Spans of one name never overlap, so each
    name's spans are scaled as one ordered run of intervals."""
    by_name: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
    for same in by_name.values():
        for s, d in zip(same, clock.scaled([(s.start, s.end) for s in same])):
            s.duration = d


def _p50(spans) -> float:
    return statistics.median(s.duration for s in spans) if spans else 0.0


def _total(spans) -> float:
    return sum(s.duration for s in spans)


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer numbers of one traced unit.

    Busy times and counts cover every op of the unit, which is the same work
    on every commit; build times cover set-up (spans with no op id). A layer
    the workload never calls reports 0.
    """
    setup: dict[str, list[Span]] = defaultdict(list)
    ops: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        (setup if s.op is None else ops)[s.name].append(s)

    def where(items, key, value):
        return [s for s in items if s.attrs.get(key) == value]

    out = {"rootdata.build_s": _total(setup["rootdata.build_group"])}

    cls = ops["classify.classify"]
    out["classify.busy_s"] = _total(cls)
    out["classify.call_us_p50"] = 1e6 * _p50(cls)

    st = ops["strata.strata_report"]
    cold = where(st, "cold", True)
    busy = _total(st)
    out["strata.cold_ms_p50"] = 1e3 * _p50(cold)
    out["strata.warm_ms_p50"] = 1e3 * _p50(where(st, "cold", False))
    out["strata.cold_share"] = _total(cold) / busy if busy else 0.0
    out["strata.cosets_cold"] = sum(s.attrs["cosets"] for s in cold)
    out["strata.busy_s"] = busy

    out["cli.parse_us_p50"] = 1e6 * _p50(ops["cli.parse_jobspec"])
    for command in ("classify", "strata", "tables"):
        out[f"cli.{command}_ms_p50"] = 1e3 * _p50(
            where(ops["cli.run_job"], "command", command))

    for layer, name in (("subspace", "finflag.is_semistable_subspace_test"),
                        ("strata", "finflag.is_semistable_strata_test")):
        calls = ops[name]
        out[f"finflag.{layer}_busy_s"] = _total(calls)
        out[f"finflag.{layer}_us_p50_ss"] = 1e6 * _p50(where(calls, "ss", True))
        out[f"finflag.{layer}_us_p50_unstable"] = 1e6 * _p50(where(calls, "ss", False))

    out["finflag.field_build_s"] = _total(setup["finflag.finite_field"])
    out["finflag.enum_s"] = (_total(setup["finflag.enumerate_flags"])
                             + _total(ops["finflag.enumerate_flags"]))
    tested = ops["finflag.is_semistable_subspace_test"]
    out["finflag.points"] = len(tested)
    out["finflag.semistable_share"] = (
        len(where(tested, "ss", True)) / len(tested) if tested else 0.0)
    return out


def group_shares(spans: list[Span]) -> list[tuple[str, float]]:
    """Share of op time per input group (configuration or field cell),
    largest first."""
    by_group: dict[str, float] = defaultdict(float)
    for s in spans:
        if s.name == "op":
            by_group[s.attrs["group"]] += s.duration
    total = sum(by_group.values()) or 1.0
    return sorted(((g, t / total) for g, t in by_group.items()),
                  key=lambda item: -item[1])

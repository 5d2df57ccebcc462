"""Span tracing from outside the package, for the per-layer metrics.

Wrappers go around the public functions the engine calls: engine.spawn
(the rng layer), Marginal.draw (distributions), engine.replicate and
theory.replicate, engine.run_monte_carlo, the names cli imports from
engine, theory._event_frequency, and cli.parse_config / cli.emit. Each
call records a span (id, parent id, name, start, end, attributes) in
memory. Spans started on a thread with no open span (the replicate worker
threads) take the innermost open replicate span as parent.

A span's self time is its duration minus the union of the intervals its
children cover. replicate's self time therefore holds the kernels and the
selection-uniform draws, which happen inside engine._tables and cannot be
wrapped from outside.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
from contextlib import contextmanager
from time import perf_counter, process_time
from typing import NamedTuple

SPAWN = "rng.spawn"
DRAW = "distributions.draw"
REPLICATE = "engine.replicate"
RUN_MC = "engine.run_monte_carlo"
DRIVERS = ("engine.sweep_worst_case", "engine.consistency_curve")
EVENT_FREQ = "theory.event_frequency"
PARSE = "cli.parse_config"
EMIT = "cli.emit"
LEAVES = (SPAWN, DRAW)


class Span(NamedTuple):
    """One call of a wrapped function.

    start/end bracket the call itself; outer_start/outer_end also cover the
    wrapper's own bookkeeping, so that a parent's self time does not
    absorb the tracing overhead of its children.
    """

    id: int
    parent: int | None
    name: str
    start: float
    end: float
    attrs: dict | None
    outer_start: float
    outer_end: float


class Tracer:
    """Collects spans from the wrapped functions while installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._launchers: list[int] = []

    def wrap(self, name: str, fn, attrs=None):
        """fn wrapped to record a span; attrs(args, kwargs, result) adds attributes."""
        local = self._local
        launchers = self._launchers
        ids = self._ids
        launches = name == REPLICATE

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            o0 = perf_counter()
            try:
                stack = local.stack
            except AttributeError:
                stack = local.stack = []
            parent = stack[-1] if stack else (launchers[-1] if launchers else None)
            sid = next(ids)
            stack.append(sid)
            if launches:
                launchers.append(sid)
                c0 = process_time()
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                if launches:
                    launchers.pop()
            extra = attrs(args, kwargs, result) if attrs else None
            if launches:
                extra["cpu_s"] = process_time() - c0
            self.spans.append(Span(sid, parent, name, t0, t1, extra, o0, perf_counter()))
            return result

        return wrapper

    def take(self) -> list[Span]:
        """The spans recorded so far; the tracer starts over empty."""
        spans, self.spans = self.spans, []
        return spans


def _replicate_attrs(args, kwargs, result):
    cfg, R = args[0], (args[1] if len(args) > 1 else kwargs["R"])
    return {"cells": R * cfg.T}


def _draw_attrs(args, kwargs, result):
    # result is an ndarray, or a numpy scalar for size=None; both have these.
    return {"values": result.size, "bytes": result.nbytes}


@contextmanager
def installed(tracer: Tracer):
    """Wrap the package's layer boundaries for the duration of the block."""
    from neyman_bai import cli, engine, theory
    from neyman_bai.distributions import Marginal

    targets = [
        (engine, "spawn", SPAWN, None),
        (Marginal, "draw", DRAW, _draw_attrs),
        (engine, "replicate", REPLICATE, _replicate_attrs),
        (theory, "replicate", REPLICATE, _replicate_attrs),
        (engine, "run_monte_carlo", RUN_MC, None),
        (cli, "run_monte_carlo", RUN_MC, None),
        (cli, "sweep_worst_case", DRIVERS[0], None),
        (cli, "consistency_curve", DRIVERS[1], None),
        (theory, "_event_frequency", EVENT_FREQ, None),
        (cli, "parse_config", PARSE, None),
        (cli, "emit", EMIT, None),
    ]
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _, _ in targets]
    try:
        for owner, attr, name, attrs in targets:
            setattr(owner, attr, tracer.wrap(name, owner.__dict__[attr], attrs))
        yield tracer
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)


def _union(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    end = None
    for lo, hi in sorted(intervals):
        if end is None or lo > end:
            total += hi - lo
            end = hi
        elif hi > end:
            total += hi - end
            end = hi
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    by_id = {s.id: s for s in spans}
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        p = by_id.get(s.parent)
        if p is not None:
            lo, hi = max(s.outer_start, p.start), min(s.outer_end, p.end)
            if hi > lo:
                children.setdefault(p.id, []).append((lo, hi))
    return {s.id: (s.end - s.start) - _union(children.get(s.id, [])) for s in spans}


def replicate_wall(spans: list[Span]) -> float:
    return sum(s.end - s.start for s in spans if s.name == REPLICATE)


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer figures of one traced operation (times in seconds)."""
    selfs = self_times(spans)

    def total(name, key=None):
        return sum(s.attrs[key] if key else s.end - s.start for s in spans if s.name == name)

    def self_sum(names):
        return sum(selfs[s.id] for s in spans if s.name in names)

    def count(name):
        return sum(1 for s in spans if s.name == name)

    def ratio(a, b):
        return a / b if b else 0.0

    spawn_calls = count(SPAWN)
    spawn_s = total(SPAWN)
    values = total(DRAW, "values")
    draw_s = total(DRAW)
    cells = total(REPLICATE, "cells")
    rep_self = self_sum((REPLICATE,))
    rep_wall = replicate_wall(spans)
    return {
        "rng.spawn_calls": spawn_calls,
        "rng.spawn_s": spawn_s,
        "rng.spawn_us_per_call": ratio(spawn_s * 1e6, spawn_calls),
        "distributions.draw_calls": count(DRAW),
        "distributions.draw_s": draw_s,
        "distributions.draw_ns_per_value": ratio(draw_s * 1e9, values),
        "distributions.bytes_drawn": total(DRAW, "bytes"),
        "engine.cells": cells,
        "engine.replicate_self_s": rep_self,
        "engine.kernel_ns_per_cell": ratio(rep_self * 1e9, cells),
        "engine.replicate_cpu_per_wall": ratio(total(REPLICATE, "cpu_s"), rep_wall),
        "engine.aggregate_s": self_sum((RUN_MC,)),
        "engine.driver_s": self_sum(DRIVERS),
        "theory.event_frequency_self_s": self_sum((EVENT_FREQ,)),
        "cli.parse_s": total(PARSE),
        "cli.emit_s": total(EMIT),
    }


def write_spans(path, spans: list[Span], origin: float) -> None:
    """Write spans as JSON: inner spans one by one, leaf spans summed per parent.

    Leaf spans (spawn, draw) number in the hundreds of thousands per
    operation, so each (parent, name) pair is written as one record with
    the call count and busy seconds. Times are seconds from `origin`.
    """
    inner = []
    leaves: dict[tuple, list] = {}
    for s in spans:
        if s.name in LEAVES:
            rec = leaves.setdefault((s.parent, s.name), [0, 0.0])
            rec[0] += 1
            rec[1] += s.end - s.start
        else:
            inner.append({
                "id": s.id, "parent": s.parent, "name": s.name,
                "start_s": s.start - origin, "end_s": s.end - origin, **(s.attrs or {}),
            })
    summary = [
        {"parent": parent, "name": name, "calls": n, "busy_s": busy}
        for (parent, name), (n, busy) in leaves.items()
    ]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"spans": inner, "leaf_totals": summary}, fh, indent=1)

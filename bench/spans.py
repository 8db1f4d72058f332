"""Spans around the calls into trisre's modules, recorded from the
benchmark's side of the boundary.

`Tracer.install` rebinds public functions in the module namespaces their
callers look them up in, so that every call (including those made inside
worker threads) records a span: name, start, end, process CPU time and
parent. Spans stay in memory until the run ends. Memory peaks of the
top-level sampling and prediction stages come from `tracemalloc`.
The hot leaves (`distributions.sample`, `RngStream.substream`) only feed
counters. `uninstall` restores the original bindings.
"""
from __future__ import annotations

import functools
import inspect
import json
import threading
import time
import tracemalloc
from collections import Counter
from contextlib import contextmanager

from trisre import distributions, model, rng, scenarios, stationary, tilting

SCENARIO = "scenario"
# Top-level stages whose peak memory is traced. tracemalloc slows every
# Python allocation while it runs (the lazy scipy.stats import inside
# classify takes ~4x longer under it), so it runs only inside these
# numpy-bound stages, where it costs little.
MEMORY_STAGES = ("stationary.sample_stationary_batch", "scenarios.predict")


class Span:
    __slots__ = ("index", "name", "parent", "t0", "t1", "cpu0", "cpu1",
                 "attrs", "peak_mb")

    def __init__(self, index: int, name: str, parent: "Span | None",
                 attrs: dict):
        self.index, self.name, self.parent, self.attrs = index, name, parent, attrs
        self.peak_mb = None
        self.t1 = self.cpu1 = None
        self.cpu0 = time.process_time()
        self.t0 = time.perf_counter()

    @property
    def dur(self) -> float:
        return self.t1 - self.t0

    @property
    def cpu(self) -> float:
        return self.cpu1 - self.cpu0

    def to_dict(self) -> dict:
        return {"i": self.index, "name": self.name,
                "parent": None if self.parent is None else self.parent.index,
                "t0": self.t0, "t1": self.t1, "cpu": self.cpu,
                "peak_mb": self.peak_mb, **self.attrs}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.busy: Counter = Counter()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, **attrs):
        stack = self._stack()
        parent = stack[-1] if stack else None
        with self._lock:
            sp = Span(len(self.spans), name, parent, attrs)
            self.spans.append(sp)
        traced = (name in MEMORY_STAGES and parent is not None
                  and parent.name == SCENARIO)
        if traced:
            tracemalloc.start()
        stack.append(sp)
        try:
            yield sp
        finally:
            stack.pop()
            sp.t1 = time.perf_counter()
            sp.cpu1 = time.process_time()
            if traced:
                sp.peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
                tracemalloc.stop()

    @contextmanager
    def adopt(self, parent: Span):
        """Make `parent` the current span of this thread (a pool worker
        running a chunk for a span opened in another thread)."""
        stack = self._stack()
        if stack and stack[-1] is parent:
            yield
            return
        stack.append(parent)
        try:
            yield
        finally:
            stack.pop()

    def count(self, key: str, n: int = 1, busy: float = 0.0) -> None:
        with self._lock:
            self.counts[key] += n
            self.busy[key] += busy

    # -- instrumentation -------------------------------------------------

    def _patch(self, owners, attr: str, make):
        orig = getattr(owners[0], attr)
        wrapper = functools.update_wrapper(make(orig), orig, updated=())
        for owner in owners:
            self._patches.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, wrapper)

    def _wrap(self, owners, attr: str, name: str, attrs=None, result=None):
        """Record a span per call; attrs maps the call's bound arguments,
        and result its return value, to span attributes."""
        tracer = self

        def make(orig):
            sig = inspect.signature(orig)

            def wrapper(*args, **kwargs):
                extra = {}
                if attrs:
                    extra = attrs(sig.bind(*args, **kwargs).arguments)
                with tracer.span(name, **extra) as sp:
                    out = orig(*args, **kwargs)
                    if result:
                        sp.attrs.update(result(out))
                    return out
            return wrapper

        self._patch(owners, attr, make)

    def install(self) -> None:
        w = self._wrap
        w([scenarios], "classify", "regime.classify")
        w([scenarios], "predict", "scenarios.predict")
        w([scenarios, stationary], "sample_stationary_batch",
          "stationary.sample_stationary_batch",
          attrs=lambda a: {"paths": a["m"]},
          result=lambda out: {"depth": out.truncation_depth})
        w([model], "draw_innovations", "model.draw_innovations")
        w([tilting], "coupling_sum_moments", "tilting.coupling_sum_moments",
          attrs=lambda a: {"path_steps": a["N"] * max(a["horizons"])})
        w([scenarios], "clt_constant", "tilting.clt_constant")
        w([scenarios], "goldie_constant_direct", "tails.goldie_constant_direct",
          attrs=lambda a: {"samples": a["N"]})
        w([scenarios], "EmpiricalTail", "tails.EmpiricalTail")
        w([scenarios], "ccdf", "tails.ccdf")
        w([scenarios], "default_log_grid", "tails.default_log_grid")
        w([scenarios], "hill", "tails.hill")
        w([scenarios], "log_factor_regression", "tails.log_factor_regression")
        tracer = self

        def make_map_chunks(orig):
            def wrapper(total, chunk, fn, rng_, workers=None):
                n = -(-total // chunk)
                eff = workers if workers is not None else rng.default_workers()
                eff = 1 if eff <= 1 or n <= 1 else min(eff, n)
                with tracer.span("rng.map_chunks", chunks=n, chunk=chunk,
                                 workers=eff) as sp:
                    def run_chunk(m, sub):
                        with tracer.adopt(sp), tracer.span("rng.chunk"):
                            return fn(m, sub)
                    return orig(total, chunk, run_chunk, rng_, workers)
            return wrapper

        self._patch([stationary], "map_chunks", make_map_chunks)

        def make_sample(orig):
            def wrapper(spec, rng_, size=None):
                t0 = time.perf_counter()
                out = orig(spec, rng_, size)
                tracer.count("draws", 1 if size is None else size,
                             time.perf_counter() - t0)
                return out
            return wrapper

        self._patch([distributions], "sample", make_sample)

        def make_substream(orig):
            def wrapper(self_, index):
                tracer.count("substreams")
                return orig(self_, index)
            return wrapper

        self._patch([rng.RngStream], "substream", make_substream)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": [s.to_dict() for s in self.spans],
                       "counts": dict(self.counts),
                       "busy_s": dict(self.busy)}, fh)


# -- derived metrics ------------------------------------------------------

def _covered(intervals: list[tuple[float, float]]) -> float:
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def _has_ancestor(sp: Span, name: str) -> bool:
    p = sp.parent
    while p is not None:
        if p.name == name:
            return True
        p = p.parent
    return False


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced pass, keyed by metric name
    (module prefix = layer). Self time is a span's duration minus the
    part of it that its child spans cover."""
    by_name: dict[str, list[Span]] = {}
    children: dict[int, list[Span]] = {}
    for sp in tracer.spans:
        by_name.setdefault(sp.name, []).append(sp)
        if sp.parent is not None:
            children.setdefault(sp.parent.index, []).append(sp)

    def spans(name):
        return by_name.get(name, [])

    def total(name):
        return sum(s.dur for s in spans(name))

    def self_time(sp):
        kids = [(max(c.t0, sp.t0), min(c.t1, sp.t1))
                for c in children.get(sp.index, [])]
        return sp.dur - _covered(kids)

    stat = spans("stationary.sample_stationary_batch")
    top = [s for s in stat if s.parent is not None and s.parent.name == SCENARIO]
    nested = [s for s in stat if _has_ancestor(s, "scenarios.predict")]

    def steps(group):
        return sum(s.attrs["paths"] * s.attrs.get("depth", 0) for s in group)

    top_s = sum(s.dur for s in top)
    nested_s = sum(s.dur for s in nested)
    study = spans("tilting.coupling_sum_moments")
    study_s = sum(s.dur for s in study)
    goldie = spans("tails.goldie_constant_direct")
    mapped = spans("rng.map_chunks")
    predict = spans("scenarios.predict")
    predict_s = sum(s.dur for s in predict)
    roots = spans(SCENARIO)
    unaccounted = sum(self_time(r) for r in roots)
    return {
        "stationary.top_s": top_s,
        "stationary.top_path_steps_per_s": _ratio(steps(top), top_s),
        "stationary.top_cpu_util": _ratio(sum(s.cpu for s in top), top_s),
        "stationary.top_peak_mb": max((s.peak_mb for s in top), default=0.0),
        "stationary.nested_s": nested_s,
        "stationary.nested_calls": len(nested),
        "stationary.nested_path_steps_per_s": _ratio(steps(nested), nested_s),
        "distributions.draws": tracer.counts["draws"],
        "distributions.draws_per_s": _ratio(tracer.counts["draws"],
                                            tracer.busy["draws"]),
        "model.draw_innovations_s": total("model.draw_innovations"),
        "tilting.study_s": study_s,
        "tilting.study_path_steps_per_s": _ratio(
            sum(s.attrs["path_steps"] for s in study), study_s),
        "tilting.clt_constant_s": total("tilting.clt_constant"),
        "tails.goldie_self_s": sum(self_time(s) for s in goldie),
        "tails.goldie_samples_per_s": _ratio(
            sum(s.attrs["samples"] for s in goldie), sum(s.dur for s in goldie)),
        "tails.empirical_tail_s": total("tails.EmpiricalTail") + total("tails.ccdf"),
        "tails.log_grid_s": total("tails.default_log_grid"),
        "tails.hill_s": total("tails.hill"),
        "tails.regression_s": total("tails.log_factor_regression"),
        "regime.classify_s": total("regime.classify"),
        "rng.map_chunks_chunks": sum(s.attrs["chunks"] for s in mapped),
        "rng.map_chunks_parallel_eff": _ratio(
            total("rng.chunk"), sum(s.dur * s.attrs["workers"] for s in mapped)),
        "rng.substreams": tracer.counts["substreams"],
        "scenarios.predict_s": predict_s,
        "scenarios.predict_cpu_util": _ratio(sum(s.cpu for s in predict),
                                             predict_s),
        "trace.unaccounted_s": unaccounted,
        "trace.unaccounted_share": _ratio(unaccounted, sum(r.dur for r in roots)),
    }


def scenario_spans(tracer: Tracer) -> dict[str, dict[str, float]]:
    """Per scenario: wall of its root span and of its predict call."""
    out = {}
    for root in (s for s in tracer.spans if s.name == SCENARIO):
        pred = [s for s in tracer.spans
                if s.parent is root and s.name == "scenarios.predict"]
        out[root.attrs["scenario"]] = {"wall_s": root.dur,
                                   "predict_s": sum(s.dur for s in pred)}
    return out


def top_chunks(tracer: Tracer) -> dict[str, int]:
    """Per scenario: the chunk size of its top-level stationary call."""
    out = {}
    for sp in tracer.spans:
        stat = sp.parent
        if sp.name == "rng.map_chunks" and stat is not None \
                and stat.parent is not None and stat.parent.name == SCENARIO:
            out[stat.parent.attrs["scenario"]] = sp.attrs["chunk"]
    return out


def stage_table(tracer: Tracer) -> dict[str, dict[str, float]]:
    """Per scenario: total duration of each top-level stage, and the
    memory peak of the stages traced for it."""
    out: dict[str, dict[str, float]] = {}
    for sp in tracer.spans:
        if sp.parent is not None and sp.parent.name == SCENARIO:
            row = out.setdefault(sp.parent.attrs["scenario"], {})
            row[sp.name] = row.get(sp.name, 0.0) + sp.dur
            if sp.peak_mb is not None:
                key = f"{sp.name}.peak_mb"
                row[key] = max(row.get(key, 0.0), sp.peak_mb)
    return out

"""Outside-in layer trace for the arc-cpd benchmark.

The package is not edited. Instead, `traced` rebinds the module attributes
the package looks up at call time (for example `arc_cpd.bench.detect` or
`arc_cpd.core.RngStream.generator`) to timing wrappers, and puts the
originals back on exit. Every wrapped call is a span. A per-thread stack
gives each span its parent, and a span's self time is its duration minus
the time its children cover on the same thread.

Spans are aggregated in memory as they close, keyed by (tag, name, parent
name): call count, total time, self time and every duration. The scan makes
two generator constructions per window (about 200k per call at n=100000),
so one record per span would cost far more memory than the aggregate.
"""

from __future__ import annotations

import threading
import time
from array import array
from contextlib import contextmanager
from statistics import median

import arc_cpd.bench as bench
import arc_cpd.core as core
import arc_cpd.detector as detector
import arc_cpd.tune as tune

# span name of the wrapped callable, and where the package looks it up
_SPANS = (
    ("core.child_seed", core.RngStream, "child_seed"),
    ("detector.detect", detector, "detect"),
    ("detector.detect", bench, "detect"),
    ("detector.local_maximizers", detector, "local_maximizers"),
    ("rume.rume", tune, "rume"),
    ("tune.tournament", tune, "tournament"),
    ("bench.run_grid", bench, "run_grid"),
    ("bench.select_epsilon", bench, "select_epsilon"),
    ("bench.baseline_scan", bench, "baseline_scan"),
    ("simgen.generate", bench, "generate"),
    ("metrics.hausdorff", bench, "hausdorff"),
)

# spans on worker threads that are the benchmark's own probes, not pool work
_PROBES = ("detector.local_maximizers",)


class Tracer:
    """Span aggregates and counters shared by the main and worker threads."""

    def __init__(self):
        self.tag = ""
        self.counts: dict = {}
        self._local = threading.local()
        self._tables: list = []
        self._lock = threading.Lock()

    def _state(self):
        st = getattr(self._local, "state", None)
        if st is None:
            st = self._local.state = ([], {})
            with self._lock:
                self._tables.append(st[1])
        return st

    def enter(self, name: str) -> list:
        frame = [name, time.perf_counter(), 0.0]
        self._state()[0].append(frame)
        return frame

    def exit(self, frame: list) -> None:
        end = time.perf_counter()
        stack, stats = self._local.state
        top = stack.pop()
        if top is not frame:
            raise RuntimeError(f"span {frame[0]} closed out of order")
        dur = end - frame[1]
        parent = stack[-1] if stack else None
        if parent is not None:
            parent[2] += dur
        key = (self.tag, frame[0], parent[0] if parent else "")
        rec = stats.get(key)
        if rec is None:
            rec = stats[key] = [0, 0.0, 0.0, array("d")]
        rec[0] += 1
        rec[1] += dur
        rec[2] += dur - frame[2]
        rec[3].append(dur)

    def add(self, name: str, value: float) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + value

    def wrap(self, name: str, fn, after=None):
        """fn timed as span `name`; after(result, *args) runs outside it."""
        def wrapper(*args, **kwargs):
            frame = self.enter(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.exit(frame)
            if after is not None:
                after(out, *args, **kwargs)
            return out
        return wrapper

    def records(self, name=None, parent=None, tag=None):
        """Merged [count, total, self, durations] over matching keys."""
        out = [0, 0.0, 0.0, []]
        with self._lock:
            tables = list(self._tables)
        for stats in tables:
            for (t, n, p), rec in stats.items():
                if ((name is None or n == name) and
                        (parent is None or p == parent) and
                        (tag is None or t == tag)):
                    out[0] += rec[0]
                    out[1] += rec[1]
                    out[2] += rec[2]
                    out[3].extend(rec[3])
        return out

    def self_time_error(self) -> float:
        """Largest breach of the self-time arithmetic, in seconds.

        On each thread, the self times of all spans must add up to the
        durations of that thread's root spans, and no aggregate self time
        may be negative.
        """
        worst = 0.0
        with self._lock:
            tables = list(self._tables)
        for stats in tables:
            self_sum = sum(rec[2] for rec in stats.values())
            root_sum = sum(rec[1] for (_, _, p), rec in stats.items()
                           if p == "")
            worst = max(worst, abs(self_sum - root_sum))
            worst = max([worst] + [-rec[2] for rec in stats.values()])
        return worst


class _TimedGenerator:
    """Generator proxy whose `permutation` is a `core.permutation` span."""

    __slots__ = ("_g", "_tracer")

    def __init__(self, g, tracer: Tracer):
        self._g = g
        self._tracer = tracer

    def permutation(self, *args, **kwargs):
        frame = self._tracer.enter("core.permutation")
        try:
            return self._g.permutation(*args, **kwargs)
        finally:
            self._tracer.exit(frame)

    def __getattr__(self, name):
        return getattr(self._g, name)


def _timed_generator(tracer: Tracer, fn):
    def generator(self):
        frame = tracer.enter("core.generator")
        try:
            g = fn(self)
        finally:
            tracer.exit(frame)
        return _TimedGenerator(g, tracer)
    return generator


def _after_hooks(tracer: Tracer) -> dict:
    def on_detect(report, series, config, *args, **kwargs):
        entries = len(report.scan_curve)
        tracer.add("detector.curve_entries", entries)
        tracer.add("detector.windows", 2 * entries)
        tracer.add("detector.degenerate", report.degenerate_windows)
        # the gathered left and right window copies, 8-byte floats
        tracer.add("detector.window_bytes", 2 * entries * 2 * config.h * 8)
        radius = config.maximizer_radius or 4 * config.h
        maxima = detector.local_maximizers(report.scan_curve, radius)
        if not set(report.estimated.locations) <= set(maxima):
            tracer.add("trace.maximizer_mismatch", 1)

    def on_rume(outcome, *args, **kwargs):
        tracer.add("rume.degenerate", int(outcome.kept_count == 0))

    def on_tournament(result, *args, **kwargs):
        tracer.add("tune.feasible", sum(result.feasible))

    return {"detector.detect": on_detect, "rume.rume": on_rume,
            "tune.tournament": on_tournament}


@contextmanager
def traced(tracer: Tracer):
    """Install every wrapper for the duration of the block, then restore."""
    hooks = _after_hooks(tracer)
    wrappers = {"core.generator": _timed_generator(
        tracer, core.RngStream.generator)}
    plan = [("core.generator", core.RngStream, "generator")]
    for name, owner, attr in _SPANS:
        if name not in wrappers:
            wrappers[name] = tracer.wrap(name, getattr(owner, attr),
                                         hooks.get(name))
        plan.append((name, owner, attr))
    saved = []
    try:
        for name, owner, attr in plan:
            saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, wrappers[name])
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
    for owner, attr, original in saved:
        if getattr(owner, attr) is not original:
            raise RuntimeError(f"{attr} was not restored")


def layer_metrics(tracer: Tracer, ops: int) -> dict:
    """Per-layer metrics per traced operation, by name -> (value, unit)."""
    def per_op(x):
        return x / ops

    def share(num, den):
        return num / den if den else 0.0

    def p50(durations):
        return median(durations) if durations else 0.0

    c = tracer.counts.get
    gen = tracer.records("core.generator")
    perm = tracer.records("core.permutation")
    child = tracer.records("core.child_seed")
    det = tracer.records("detector.detect")
    core_in_detect = sum(tracer.records(n, parent="detector.detect")[1]
                         for n in ("core.generator", "core.permutation",
                                   "core.child_seed"))
    rume = tracer.records("rume.rume")
    tourn = tracer.records("tune.tournament")
    grid = tracer.records("bench.run_grid")
    grid_t2 = tracer.records("bench.run_grid", tag="t2")
    det_t1 = p50(tracer.records("detector.detect", tag="t1")[3])
    det_t2 = p50(tracer.records("detector.detect", tag="t2")[3])
    # pool work: package calls that are roots on the t2 worker threads
    busy = (tracer.records(parent="", tag="t2")[1] - grid_t2[1] -
            sum(tracer.records(n, parent="", tag="t2")[1] for n in _PROBES))
    windows = c("detector.windows", 0)
    return {
        "core.rng_streams": (per_op(gen[0]), "count"),
        "core.rng_generator_s": (per_op(gen[2]), "s"),
        "core.rng_permutation_s": (per_op(perm[2]), "s"),
        "core.child_seed_calls": (per_op(child[0]), "count"),
        "detector.detect_s": (per_op(det[1]), "s"),
        "detector.self_s": (per_op(det[2]), "s"),
        "detector.rng_share": (share(core_in_detect, det[1]), "frac"),
        "detector.windows": (per_op(windows), "count"),
        "detector.window_bytes": (per_op(c("detector.window_bytes", 0)),
                                  "bytes_computed"),
        "detector.degenerate_frac": (share(c("detector.degenerate", 0),
                                           windows), "frac"),
        "detector.curve_entries": (per_op(c("detector.curve_entries", 0)),
                                   "count"),
        "detector.maximizer_s": (
            per_op(tracer.records("detector.local_maximizers")[1]), "s"),
        "rume.calls": (per_op(rume[0]), "count"),
        "rume.self_s": (per_op(rume[2]), "s"),
        "rume.degenerate_frac": (share(c("rume.degenerate", 0), rume[0]),
                                 "frac"),
        "tune.tournament_s": (per_op(tourn[1]), "s"),
        "tune.self_s": (per_op(tourn[2]), "s"),
        "tune.feasible_candidates": (share(c("tune.feasible", 0), tourn[0]),
                                     "count"),
        "bench.run_grid_s": (per_op(grid[1]), "s"),
        "bench.detect_p50_s_t1": (det_t1, "s"),
        "bench.detect_p50_s_t2": (det_t2, "s"),
        "bench.detect_inflation": (share(det_t2, det_t1), "ratio"),
        # the threads=2 pool has two workers
        "bench.pool_busy_frac": (share(busy, 2 * grid_t2[1]), "frac"),
        "bench.select_epsilon_s": (
            per_op(tracer.records("bench.select_epsilon")[1]), "s"),
        "bench.baseline_scan_s": (
            per_op(tracer.records("bench.baseline_scan")[1]), "s"),
        "simgen.generate_s": (
            per_op(tracer.records("simgen.generate")[1]), "s"),
        "metrics.hausdorff_s": (
            per_op(tracer.records("metrics.hausdorff")[1]), "s"),
    }

"""Spans around the calls into each layer of ``inplay``, from outside the package.

Each public function is wrapped on the namespace its callers look it up
in: ``calibration`` and ``hedging`` call ``pricing.price``/``greeks``/
``intensity_sensitivity`` through the module, ``greeks`` calls ``price`` as a
module global, ``pricing`` imported ``skellam_pmf_range``, ``poisson_tail``,
``cap_for_tail`` and ``poisson_pmf_vector`` by name, ``cap_for_tail`` calls
``distributions.poisson_tail``, and ``cli`` imported ``calibrate_series`` by
name.  A span is (name, start, end, parent); spans stay in compact arrays in
memory and are written once, when the command has finished.  Counts that
only the return values carry (iterations, steps, flags, rows) and the
``lru_cache`` statistics are recorded alongside.
"""

from __future__ import annotations

import functools
from array import array
from time import perf_counter_ns

import numpy as np

# (module, attribute, span name)
WRAPPED = (
    ("io", "load_timeline", "io.load_timeline"),
    ("io", "build_timeline", "io.build_timeline"),
    ("io", "write_intensity_series_csv", "io.write"),
    ("io", "write_hedge_report", "io.write"),
    ("cli", "calibrate_series", "calibration.calibrate_series"),
    ("calibration", "calibrate_snapshot", "calibration.calibrate_snapshot"),
    ("hedging", "replay_hedge", "hedging.replay_hedge"),
    ("pricing", "price", "pricing.price"),
    ("pricing", "greeks", "pricing.greeks"),
    ("pricing", "intensity_sensitivity", "pricing.intensity_sensitivity"),
    ("pricing", "skellam_pmf_range", "distributions.skellam_pmf_range"),
    ("pricing", "poisson_tail", "distributions.poisson_tail"),
    ("pricing", "cap_for_tail", "distributions.cap_for_tail"),
    ("pricing", "poisson_pmf_vector", "distributions.poisson_pmf_vector"),
    ("distributions", "poisson_tail", "distributions.poisson_tail"),
)

# (module, attribute, metric name) of the lru caches whose hit ratio is reported
CACHES = (
    ("pricing", "_skellam_table", "pricing.skellam_table"),
    ("distributions", "poisson_pmf_vector", "distributions.poisson_pmf_vector"),
    ("distributions", "cap_for_tail", "distributions.cap_for_tail"),
)

NAMES = tuple(dict.fromkeys(name for _, _, name in WRAPPED))


class Tracer:
    """Records spans for one command and undoes its wrapping on ``uninstall``."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.name_ix = array("b")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []
        self._cache_before: dict[str, tuple[int, int]] = {}
        self.counts = {
            "io.quote_rows": 0,
            "calibration.iterations": [],
            "calibration.converged": 0,
            "calibration.fitted": 0,
            "calibration.series_points": 0,
            "calibration.gaps": 0,
            "hedging.steps": 0,
            "hedging.flagged": 0,
        }

    def _wrap(self, fn, name_id: int, observe=None):
        stack = self._stack
        name_ix, start, end, parent = self.name_ix, self.start, self.end, self.parent

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            name_ix.append(name_id)
            parent.append(stack[-1])
            start.append(0)
            end.append(0)
            stack.append(idx)
            t0 = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if observe is not None:
                observe(out)
            return out

        return wrapper

    def _observers(self) -> dict:
        c = self.counts

        def rows(timeline):
            c["io.quote_rows"] += sum(len(s.quotes) for s in timeline.snapshots)

        def fit(result):
            c["calibration.iterations"].append(result.iterations)
            c["calibration.fitted"] += 1
            c["calibration.converged"] += bool(result.converged)

        def series(result):
            c["calibration.series_points"] += len(result.points)
            c["calibration.gaps"] += sum(1 for p in result.points if p.result is None)

        def replay(report):
            c["hedging.steps"] += len(report.steps)
            c["hedging.flagged"] += sum(1 for s in report.steps if s.flag)

        return {
            "io.load_timeline": rows,
            "calibration.calibrate_snapshot": fit,
            "calibration.calibrate_series": series,
            "hedging.replay_hedge": replay,
        }

    def install(self) -> None:
        observers = self._observers()
        for mod_name, attr, name in WRAPPED:
            module = self.modules[mod_name]
            fn = getattr(module, attr)
            self._undo.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, NAMES.index(name), observers.get(name)))
        for mod_name, attr, name in CACHES:
            info = getattr(self.modules[mod_name], attr).cache_info()
            self._cache_before[name] = (info.hits, info.misses)

    def uninstall(self) -> dict:
        """Restore the original functions; return the cache hit/miss deltas."""
        for module, attr, fn in reversed(self._undo):
            setattr(module, attr, fn)
        self._undo.clear()
        deltas = {}
        for mod_name, attr, name in CACHES:
            info = getattr(self.modules[mod_name], attr).cache_info()
            hits0, misses0 = self._cache_before[name]
            deltas[name] = [info.hits - hits0, info.misses - misses0]
        return deltas

    def save(self, path, command_id: int) -> None:
        """Write the spans as parallel arrays, one row per call."""
        np.savez(
            path,
            names=np.array(NAMES),
            name=np.frombuffer(self.name_ix, dtype=np.int8),
            start=np.frombuffer(self.start, dtype=np.int64),
            end=np.frombuffer(self.end, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            command=np.full(len(self.start), command_id, dtype=np.int32),
        )

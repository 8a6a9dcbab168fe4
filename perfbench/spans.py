"""Per-layer spans for the traced benchmark run, recorded from outside the
program by rebinding its public functions at run time.

A span covers one call of a traced function.  For every span name the
tracer keeps three stats:

* ``self_s``: the span's wall time minus the time of the spans nested in it;
* ``calls``: how many times the function was entered;
* ``rss_growth_mb``: how far the process's peak-RSS mark (``ru_maxrss``)
  rose between entry and exit.

Beside the spans it keeps work counts, each computed outside the timed
spans from the call's arguments and result.  The counts in
``PER_REALIZE_COUNTS`` describe one ``realize`` call: a tracer keeps the
largest value seen, and ``combine_iterations`` takes the largest over
iterations.  The other counts are summed per iteration, and the median
over iterations is reported.
"""

from __future__ import annotations

import inspect
import os
import resource
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager

import blockshift
from blockshift import analysis, cli, correlation, mobius, realization, schedule, sparse, windowfile
from blockshift import words

MODULES = (sparse, schedule, realization, analysis, correlation, mobius, windowfile, cli,
           blockshift)

# (module, attribute path); a dotted path names a method on a class.
SPANS = (
    (sparse, "SparseSetSpec.max_window_count"),
    (sparse, "SparseSetSpec.elements_in"),
    (sparse, "SparseSetSpec.count_in"),
    (schedule, "build_schedule"),
    (schedule, "Schedule.words"),
    (realization, "realize"),
    (realization, "init_partial"),
    (realization, "verify_realization"),
    (realization, "fill_level"),
    (analysis, "window_admissibility_report"),
    (analysis, "minimality_witnesses"),
    (analysis, "complexity_profile"),
    (correlation, "sarnak_demo"),
    (correlation, "correlation_average"),
    (mobius, "mobius_sieve"),
    (windowfile, "save_window"),
    (windowfile, "load_window"),
    (cli, "main"),
)
MAX_LEVEL = 3
STATS = (("self_s", "s"), ("calls", "count"), ("rss_growth_mb", "MB"))
COUNTS = (
    "sparse.elements_enumerated",
    "realization.pinned_cells",
    "realization.window_cells",
    *(f"realization.window_blocks.L{k}" for k in range(1, MAX_LEVEL + 1)),
    *(f"realization.blocks_meeting_S.L{k}" for k in range(1, MAX_LEVEL + 1)),
    "analysis.admissibility.blocks_checked",
    "analysis.complexity.cells_x_n",
    "correlation.terms",
    "mobius.sieved_total",
    "windowfile.bytes_written",
    "windowfile.bytes_read",
)
PER_REALIZE_COUNTS = frozenset(name for name in COUNTS if name.startswith("realization."))


def _short(module) -> str:
    return module.__name__.rsplit(".", 1)[-1]


def span_names() -> list[str]:
    names = []
    for module, path in SPANS:
        base = f"{_short(module)}.{path}"
        if path == "fill_level":
            names.extend(f"{base}.L{k}" for k in range(1, MAX_LEVEL + 1))
        else:
            names.append(base)
    return names


def metric_units() -> dict[str, str]:
    """Every per-layer metric name of the traced run with its unit."""
    units = {f"{span}.{stat}": unit for span in span_names() for stat, unit in STATS}
    units.update({name: "count" for name in COUNTS})
    units["trace.overhead_s"] = "s"
    return units


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def combine_iterations(name: str, per_iteration: list) -> float:
    """One value of count ``name`` from its values in the traced iterations."""
    if name in PER_REALIZE_COUNTS:
        return max(per_iteration)
    return statistics.median(per_iteration)


class Tracer:
    """Spans and counts of the calls made while it is installed."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.rss_growth_mb = defaultdict(float)
        self.counts = defaultdict(int)
        self._stack: list[list[float]] = []  # per open span: [time in children]
        self._originals: dict[tuple, object] = {}

    # --- recording ---------------------------------------------------

    def _call(self, name_of, fn, after, args, kwargs):
        frame = [0.0]
        self._stack.append(frame)
        rss0 = peak_rss_mb()
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - t0
            self._stack.pop()
            name = name_of(args, kwargs)
            self.self_s[name] += elapsed - frame[0]
            self.calls[name] += 1
            self.rss_growth_mb[name] += peak_rss_mb() - rss0
            if self._stack:
                self._stack[-1][0] += elapsed
        if after is not None:
            # Counting runs outside the span; its time is kept out of the
            # enclosing span's self time as well.
            t1 = time.perf_counter()
            after(self, fn, args, kwargs, result)
            if self._stack:
                self._stack[-1][0] += time.perf_counter() - t1
        return result

    def count(self, name: str, value: int) -> None:
        if name in PER_REALIZE_COUNTS:
            self.counts[name] = max(self.counts[name], int(value))
        else:
            self.counts[name] += int(value)

    # --- installing --------------------------------------------------

    def _wrap(self, name_of, fn, after):
        def traced(*args, **kwargs):
            return self._call(name_of, fn, after, args, kwargs)

        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        return traced

    @contextmanager
    def installed(self):
        """Rebind every traced function in every module that binds it."""
        try:
            for module, path in SPANS:
                class_name, _, attr = path.rpartition(".")
                owners = [getattr(module, class_name)] if class_name else MODULES
                fn = getattr(owners[0] if class_name else module, attr)
                name = f"{_short(module)}.{path}"
                if path == "fill_level":
                    name_of = _level_span(name, fn)
                else:
                    name_of = lambda args, kwargs, name=name: name
                wrapped = self._wrap(name_of, fn, _AFTER.get(path))
                for owner in owners:
                    if getattr(owner, attr, None) is fn:
                        self._originals[(owner, attr)] = fn
                        setattr(owner, attr, wrapped)
            yield self
        finally:
            for (owner, attr), fn in self._originals.items():
                setattr(owner, attr, fn)
            self._originals.clear()
            self._stack.clear()

    def original(self, owner, attr):
        return self._originals[(owner, attr)]


def _level_span(base, fn):
    sig = inspect.signature(fn)

    def name_of(args, kwargs):
        return f"{base}.L{sig.bind(*args, **kwargs).arguments['level']}"

    return name_of


def _bound(fn, args, kwargs) -> dict:
    return inspect.signature(fn).bind(*args, **kwargs).arguments


def _after_elements_in(tracer, fn, args, kwargs, result):
    tracer.count("sparse.elements_enumerated", len(result))


def _after_realize(tracer, fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    sched, depth = a["schedule"], a["depth"]
    elements_in = tracer.original(sparse.SparseSetSpec, "elements_in")
    pinned = [s for _, s in elements_in(sched.sparse, result.interval())]
    tracer.count("realization.pinned_cells", len(pinned))
    tracer.count("realization.window_cells", len(result))
    for k in range(1, depth + 1):
        m_k = sched.m(k)
        tracer.count(f"realization.window_blocks.L{k}", len(result) // m_k)
        tracer.count(f"realization.blocks_meeting_S.L{k}",
                         len({words.block_of(s, m_k) for s in pinned}))


def _after_admissibility(tracer, fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    x, sched = a["x"], a["schedule"]
    tracer.count("analysis.admissibility.blocks_checked",
                 sum(len(x) // sched.m(k) for k in range(1, a["depth"] + 1)))


def _after_complexity(tracer, fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    tracer.count("analysis.complexity.cells_x_n", len(a["x"]) * a["n_max"])


def _after_correlation(tracer, fn, args, kwargs, result):
    tracer.count("correlation.terms", _bound(fn, args, kwargs)["count"])


def _after_sieve(tracer, fn, args, kwargs, result):
    tracer.count("mobius.sieved_total", _bound(fn, args, kwargs)["limit"])


def _after_save(tracer, fn, args, kwargs, result):
    tracer.count("windowfile.bytes_written", os.path.getsize(_bound(fn, args, kwargs)["path"]))


def _after_load(tracer, fn, args, kwargs, result):
    tracer.count("windowfile.bytes_read", os.path.getsize(_bound(fn, args, kwargs)["path"]))


_AFTER = {
    "SparseSetSpec.elements_in": _after_elements_in,
    "realize": _after_realize,
    "window_admissibility_report": _after_admissibility,
    "complexity_profile": _after_complexity,
    "correlation_average": _after_correlation,
    "mobius_sieve": _after_sieve,
    "save_window": _after_save,
    "load_window": _after_load,
}

"""Per-layer tracing from outside the package.

The tracer replaces the public functions of each tauwindow module with timing
wrappers, in every tauwindow module that binds them, so calls made from one
module into another are seen too (windows.tau_interval calls
arith.divisors_in_range through the name windows imported, which calls
arith.factorize through arith's own global).  It also replaces the
ProcessPoolExecutor name in windows and sidon, so each pool gets a span from
entering its with-block to the end of its shutdown.  Nothing inside a pool's
child processes is recorded: their work shows only as the parent's pool span
plus RUSAGE_CHILDREN CPU time.

Spans are kept in memory (name, start, end, span id, parent id, trace id) and
can be written out with save().  The trace id is shared by every span under
one top-level call, that is one direct child of the root span.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from collections import defaultdict
from concurrent.futures import ProcessPoolExecutor

LAYERS = ("arith", "windows", "spectral", "sidon", "lcmbound", "exponents", "cli")
POOL_LAYERS = ("windows", "sidon")
# arith's documented boundary between the smallest-prime-factor table and
# trial division plus Pollard-Brent
SPF_LIMIT = 1 << 20


def mark_count(lo: int, hi: int, m_limit: int) -> int:
    """Computed sieve work: sum over d in [lo, hi] of floor(m_limit / d).

    Evaluated by blocks of equal quotient, so the cost is about m_limit / lo
    steps whatever the window size.
    """
    hi = min(hi, m_limit)
    total = 0
    d = lo
    while d <= hi:
        q = m_limit // d
        end = min(hi, m_limit // q)
        total += q * (end - d + 1)
        d = end + 1
    return total


def _first_arg(args, kwargs, name):
    return args[0] if args else kwargs[name]


def _factorize_label(args, kwargs):
    n = _first_arg(args, kwargs, "n")
    return "arith.factorize.small" if n < SPF_LIMIT else "arith.factorize.large"


def _count_scan(counters, args, kwargs, report):
    window = report.window
    counters["windows.marks"] += mark_count(window.lo, window.hi, report.m_limit)
    counters["windows.touched_m"] += sum(report.histogram.values())


def _count_window_sieve(counters, args, kwargs, counts):
    window = _first_arg(args, kwargs, "window")
    lo, hi = (window.lo, window.hi) if hasattr(window, "lo") else window
    m_limit = args[1] if len(args) > 1 else kwargs["m_limit"]
    counters["windows.marks"] += mark_count(lo, hi, m_limit)
    counters["windows.touched_m"] += len(counts)


def _count_pairs(counters, args, kwargs, result):
    size = len(_first_arg(args, kwargs, "freqs"))
    counters["spectral.pairs"] += size * size


def _count_poly_pairs(counters, args, kwargs, result):
    size = len(_first_arg(args, kwargs, "f"))
    counters["spectral.pairs"] += size * size


def _count_fft_points(counters, args, kwargs, result):
    freqs = _first_arg(args, kwargs, "f").terms
    counters["spectral.fft_points"] += 4 * (max(freqs) - min(freqs)) + 3


# Span names that depend on the arguments; every other function's span is
# named "<module>.<function>".
LABELS = {"arith.factorize": _factorize_label}

# Computed work counters, evaluated from arguments and results after a call
# returns; the time they take is charged to the caller's span.
COUNTERS = {
    "windows.square_window_scan": _count_scan,
    "windows.cube_window_scan": _count_scan,
    "windows.window_multiple_counts": _count_window_sieve,
    "spectral.additive_energy": _count_pairs,
    "spectral.max_positive_representation": _count_pairs,
    "spectral.l4_norm_4": _count_poly_pairs,
    "spectral.l4_quadrature_oracle": _count_fft_points,
}

_COLUMNS = ("name", "start_ns", "end_ns", "span_id", "parent_id", "trace_id")


class Tracer:
    """Span recorder; install() patches the package, restore() undoes it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.columns = {col: array("q") for col in _COLUMNS}
        # name -> [calls, inclusive ns, self ns]
        self.stats: dict[str, list[int]] = {}
        self.counters: defaultdict[str, int] = defaultdict(int)
        # open spans: [span id, name id, start ns, child ns, trace id]
        self._stack: list[list[int]] = []
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    def begin(self, name: str) -> None:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        span_id = self._next_id
        self._next_id += 1
        stack = self._stack
        if len(stack) > 1:
            trace_id = stack[-1][4]
        else:
            trace_id = span_id
        stack.append([span_id, name_id, time.perf_counter_ns(), 0, trace_id])

    def end(self) -> None:
        end = time.perf_counter_ns()
        span_id, name_id, start, child_ns, trace_id = self._stack.pop()
        duration = end - start
        if self._stack:
            parent = self._stack[-1]
            parent[3] += duration
            parent_id = parent[0]
        else:
            parent_id = -1
        cols = self.columns
        cols["name"].append(name_id)
        cols["start_ns"].append(start)
        cols["end_ns"].append(end)
        cols["span_id"].append(span_id)
        cols["parent_id"].append(parent_id)
        cols["trace_id"].append(trace_id)
        stat = self.stats.get(self.names[name_id])
        if stat is None:
            stat = self.stats[self.names[name_id]] = [0, 0, 0]
        stat[0] += 1
        stat[1] += duration
        stat[2] += duration - child_ns

    def _wrap(self, qualname: str, fn):
        label = LABELS.get(qualname)
        count = COUNTERS.get(qualname)
        begin, end, counters = self.begin, self.end, self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            begin(label(args, kwargs) if label else qualname)
            try:
                result = fn(*args, **kwargs)
            finally:
                end()
            if count:
                count(counters, args, kwargs, result)
            return result

        return traced

    def _pool_class(self, name: str):
        tracer = self

        class TracedPool(ProcessPoolExecutor):
            def __enter__(self):
                tracer.begin(name)
                return super().__enter__()

            def __exit__(self, *exc):
                try:
                    return super().__exit__(*exc)
                finally:
                    tracer.end()

        return TracedPool

    def install(self) -> None:
        """Wrap every public function of the layers, wherever it is bound."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        package = [m for n, m in sys.modules.items() if n == "tauwindow" or n.startswith("tauwindow.")]
        for layer in LAYERS:
            module = sys.modules[f"tauwindow.{layer}"]
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", fn)
                for holder in package:
                    if getattr(holder, attr, None) is fn:
                        self._patches.append((holder, attr, fn))
                        setattr(holder, attr, wrapper)
        for layer in POOL_LAYERS:
            module = sys.modules[f"tauwindow.{layer}"]
            self._patches.append((module, "ProcessPoolExecutor", module.ProcessPoolExecutor))
            module.ProcessPoolExecutor = self._pool_class(f"pool.{layer}")

    def restore(self) -> None:
        while self._patches:
            holder, attr, original = self._patches.pop()
            setattr(holder, attr, original)

    def save(self, path) -> None:
        """Write the recorded spans as a numpy .npz file (one array per column)."""
        import numpy as np

        np.savez_compressed(
            path,
            names=np.array(self.names, dtype=str),
            **{col: np.frombuffer(self.columns[col], dtype=np.int64) for col in _COLUMNS},
        )

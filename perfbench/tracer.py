"""In-process span tracer that rebinds public call sites and restores them.

Spans are aggregated per (name, parent name, variant) into a call count, total
time, self time and a log-bucketed duration histogram, so functions called
millions of times per run (``JointModel.block_term``, ``LikelihoodEngine.marginal``)
cost a few dictionary updates per call instead of one stored span each.

A span's self time is its duration minus the durations of the spans it
directly caused. For memoized functions the tracer tags each call "cold" when
its argument key is requested for the first time in the process and "hit"
otherwise; while the program's memos are unbounded this equals its own
miss/hit split.
"""

from __future__ import annotations

import math
import time

BUCKETS_PER_DECADE = 20
_FLOOR_S = 1e-7  # bucket 0 holds every duration up to 0.1 us


def _bucket(seconds: float) -> int:
    if seconds <= _FLOOR_S:
        return 0
    return int(math.log10(seconds / _FLOOR_S) * BUCKETS_PER_DECADE) + 1


def _bucket_value(index: int) -> float:
    """Geometric midpoint of a bucket, in seconds."""
    if index == 0:
        return _FLOOR_S
    return _FLOOR_S * 10 ** ((index - 0.5) / BUCKETS_PER_DECADE)


class Aggregate:
    """Count, total, self time and duration histogram of one span kind."""

    __slots__ = ("count", "total", "self_time", "hist")

    def __init__(self):
        self.count = 0
        self.total = 0.0
        self.self_time = 0.0
        self.hist: dict[int, int] = {}

    def add(self, duration: float, self_time: float) -> None:
        self.count += 1
        self.total += duration
        self.self_time += self_time
        b = _bucket(duration)
        self.hist[b] = self.hist.get(b, 0) + 1


def merged_quantile(aggregates, q: float) -> float:
    """The q-quantile, in seconds, of the durations in ``aggregates``; 0 when empty."""
    hist: dict[int, int] = {}
    for agg in aggregates:
        for b, n in agg.hist.items():
            hist[b] = hist.get(b, 0) + n
    total = sum(hist.values())
    if total == 0:
        return 0.0
    rank = q * total
    seen = 0
    for b in sorted(hist):
        seen += hist[b]
        if seen >= rank:
            return _bucket_value(b)
    return _bucket_value(max(hist))


class Tracer:
    """Records spans around rebound callables; :meth:`restore` undoes every rebind."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats: dict[tuple[str, str | None, str], Aggregate] = {}
        self._stack: list[list] = []  # frames: [name, seconds spent in child spans]
        self._seen: dict[str, set] = {}
        self._rebound: list[tuple[object, str, object]] = []

    def wrap(self, fn, name: str, key=None, observe=None):
        """Return ``fn`` wrapped in a span called ``name``.

        ``key(args, kwargs)`` names the memo key of a call, which tags it cold
        or hit. ``observe(args, kwargs, result, seconds)`` sees every result.
        """
        stack = self._stack
        stats = self.stats
        clock = self.clock
        seen = self._seen.setdefault(name, set()) if key is not None else None

        def traced(*args, **kwargs):
            variant = ""
            if seen is not None:
                k = key(args, kwargs)
                if k in seen:
                    variant = "hit"
                else:
                    seen.add(k)
                    variant = "cold"
            parent = stack[-1] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - t0
                stack.pop()
                if parent is not None:
                    parent[1] += duration
                agg_key = (name, parent[0] if parent is not None else None, variant)
                agg = stats.get(agg_key)
                if agg is None:
                    agg = stats[agg_key] = Aggregate()
                agg.add(duration, duration - frame[1])
            if observe is not None:
                observe(args, kwargs, result, duration)
            return result

        traced.__wrapped__ = fn
        return traced

    def rebind(self, owner, attr: str, name: str, key=None, observe=None) -> None:
        """Replace ``owner.attr`` (a module or class attribute) by a traced wrapper."""
        original = vars(owner)[attr]
        self._rebound.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, key=key, observe=observe))

    def restore(self) -> None:
        """Put back every rebound attribute, most recent first."""
        while self._rebound:
            owner, attr, original = self._rebound.pop()
            setattr(owner, attr, original)

    # -- queries --------------------------------------------------------------

    def select(self, name: str, variant: str | None = None) -> list[Aggregate]:
        return [
            agg
            for (n, _, v), agg in self.stats.items()
            if n == name and (variant is None or v == variant)
        ]

    def count(self, name: str, variant: str | None = None) -> int:
        return sum(a.count for a in self.select(name, variant))

    def total(self, name: str) -> float:
        return sum(a.total for a in self.select(name))

    def self_time(self, name: str) -> float:
        return sum(a.self_time for a in self.select(name))

    def quantile(self, name: str, q: float, variant: str | None = None) -> float:
        return merged_quantile(self.select(name, variant), q)

    def layer_self_times(self, call_overhead: float = 0.0) -> dict[str, float]:
        """Self time summed per layer, the span-name prefix before the first dot.

        The tracer's own cost for each call lands in the caller's self time;
        ``call_overhead`` (seconds per traced call) is taken back out of it.
        """
        out: dict[str, float] = {}
        for (name, parent, _), agg in self.stats.items():
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + agg.self_time
            if parent is not None:
                caller = parent.split(".", 1)[0]
                out[caller] = out.get(caller, 0.0) - agg.count * call_overhead
        return out


def call_overhead(calls: int = 100_000) -> float:
    """Seconds the tracer adds to one keyed call, measured on a function that does nothing."""

    def noop(owner, a, b, mask):
        return 0.0

    traced = Tracer().wrap(noop, "calibration.noop", key=lambda a, kw: (id(a[0]),) + a[1:])
    owner = object()
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        for i in range(calls):
            noop(owner, 0, 1, i & 63)
        t1 = time.perf_counter()
        for i in range(calls):
            traced(owner, 0, 1, i & 63)
        t2 = time.perf_counter()
        best = min(best, ((t2 - t1) - (t1 - t0)) / calls)
    return max(best, 0.0)

"""A registry of named counters and histograms.

Every storage and engine component exposes its operational counts through
one shared :class:`MetricsRegistry` owned by the storage manager.  Names
are dotted (``disk.random_reads``, ``buffer.hits``, ``locks.deadlocks``,
``wal.records``, ``functions.dispatches``); a component obtains a
:class:`ComponentMetrics` handle bound to its prefix once and resolves its
counters up front, so the hot-path cost of being observed is one attribute
increment.

The registry is deliberately simulation-friendly: counters accept float
increments (simulated milliseconds as well as page counts), and
:meth:`MetricsRegistry.snapshot` / :meth:`MetricsRegistry.since` allow
windowed measurements without resetting the underlying components.

The registry and its instruments are thread-safe: server worker threads
increment shared counters concurrently, so :meth:`Counter.inc` and
:meth:`Histogram.observe` take a small per-instrument mutex (an
uncontended CPython lock costs tens of nanoseconds; the single-threaded
embedded paths are unaffected beyond that).
"""

from __future__ import annotations

import threading


class Counter:
    """A monotonically increasing named value (int or float increments)."""

    __slots__ = ("name", "value", "_mutex")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0
        self._mutex = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        with self._mutex:
            self.value += amount

    def reset(self) -> None:
        with self._mutex:
            self.value = 0.0

    def __repr__(self) -> str:
        return f"Counter({self.name}={self.value:g})"


#: Default bucket upper bounds: roughly logarithmic (1-2.5-5 per decade)
#: from 50 microseconds to one minute, wide enough for both simulated-
#: millisecond latencies and small cardinalities (batch sizes).  The last
#: implicit bucket is +Inf.
DEFAULT_BUCKETS = (
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0,
    100.0, 250.0, 500.0, 1000.0, 2500.0, 5000.0, 10000.0,
    30000.0, 60000.0,
)


class Histogram:
    """Bucketed summary of observed values with percentile estimation.

    Keeps the streaming count/total/min/max plus a fixed array of
    logarithmically spaced bucket counts, so :meth:`percentile` answers
    p50/p95/p99 in O(buckets) without retaining samples.  Estimates
    interpolate linearly within the containing bucket and are clamped to
    the observed min/max, so they are exact at the extremes and never
    invent values outside the observed range.
    """

    __slots__ = ("name", "count", "total", "min", "max", "bounds",
                 "bucket_counts", "_mutex")

    def __init__(self, name: str, bounds: tuple[float, ...] = DEFAULT_BUCKETS):
        self.name = name
        self.bounds = bounds
        self._mutex = threading.Lock()
        self.reset()

    def observe(self, value: float) -> None:
        with self._mutex:
            self.count += 1
            self.total += value
            if self.min is None or value < self.min:
                self.min = value
            if self.max is None or value > self.max:
                self.max = value
            self.bucket_counts[self._bucket_index(value)] += 1

    def _bucket_index(self, value: float) -> int:
        lo, hi = 0, len(self.bounds)
        while lo < hi:
            mid = (lo + hi) // 2
            if value <= self.bounds[mid]:
                hi = mid
            else:
                lo = mid + 1
        return lo  # len(bounds) == the +Inf bucket

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, fraction: float) -> float:
        """Estimated value at ``fraction`` (0.0-1.0) of the distribution."""
        return dump_percentile(self.dump(), fraction)

    def percentiles(self) -> dict[str, float]:
        """The standard reporting set: p50/p95/p99 plus count and mean."""
        return summarize_dump(self.dump())

    def dump(self) -> dict:
        """A JSON-safe, *mergeable* form of this histogram: the streaming
        aggregates plus the raw bucket counts (bounds included so a peer
        can refuse to merge incompatible layouts).  Routers federate
        worker histograms by shipping dumps over the wire and summing
        them with :func:`merge_histogram_dumps`."""
        with self._mutex:
            return {
                "count": self.count,
                "total": self.total,
                "min": self.min,
                "max": self.max,
                "bounds": list(self.bounds),
                "buckets": list(self.bucket_counts),
            }

    def cumulative_buckets(self) -> list[tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` pairs, ending at +Inf --
        the shape Prometheus histogram exposition wants."""
        with self._mutex:
            pairs: list[tuple[float, int]] = []
            cumulative = 0
            for bound, bucket_count in zip(self.bounds, self.bucket_counts):
                cumulative += bucket_count
                pairs.append((bound, cumulative))
            pairs.append((float("inf"), self.count))
            return pairs

    def reset(self) -> None:
        with self._mutex:
            self.count = 0
            self.total = 0.0
            self.min = None
            self.max = None
            self.bucket_counts = [0] * (len(self.bounds) + 1)

    def __repr__(self) -> str:
        return (
            f"Histogram({self.name}: n={self.count} mean={self.mean:g} "
            f"min={self.min} max={self.max})"
        )


def merge_histogram_dumps(dumps: list[dict]) -> dict | None:
    """Sum a list of :meth:`Histogram.dump` payloads into one.

    Bucketed histograms with identical bounds merge exactly by summing
    their bucket arrays -- the property the router exploits to compute
    *cluster-wide* percentiles from per-shard dumps.  A dump whose bounds
    disagree with the first one's is skipped rather than poisoning the
    estimate.  Returns ``None`` when nothing merged.
    """
    merged: dict | None = None
    for dump in dumps:
        if not isinstance(dump, dict) or "buckets" not in dump:
            continue
        if merged is None:
            merged = {
                "count": 0, "total": 0.0, "min": None, "max": None,
                "bounds": list(dump.get("bounds", DEFAULT_BUCKETS)),
                "buckets": [0] * len(dump["buckets"]),
            }
        if (list(dump.get("bounds", ())) != merged["bounds"]
                or len(dump["buckets"]) != len(merged["buckets"])):
            continue
        merged["count"] += dump.get("count", 0)
        merged["total"] += dump.get("total", 0.0)
        for low_high in ("min", "max"):
            value = dump.get(low_high)
            if value is None:
                continue
            current = merged[low_high]
            if current is None:
                merged[low_high] = value
            elif low_high == "min":
                merged[low_high] = min(current, value)
            else:
                merged[low_high] = max(current, value)
        merged["buckets"] = [
            a + b for a, b in zip(merged["buckets"], dump["buckets"])
        ]
    return merged


def dump_percentile(dump: dict, fraction: float) -> float:
    """Estimated value at ``fraction`` of a :meth:`Histogram.dump`:
    linear within the containing bucket, clamped to the observed
    min/max."""
    count = dump.get("count", 0)
    if not count:
        return 0.0
    bounds = dump.get("bounds", DEFAULT_BUCKETS)
    low = dump.get("min") or 0.0
    high = dump.get("max") or 0.0
    target = fraction * count
    cumulative = 0
    for index, bucket_count in enumerate(dump["buckets"]):
        if not bucket_count:
            continue
        if cumulative + bucket_count >= target:
            lower = bounds[index - 1] if index else 0.0
            upper = bounds[index] if index < len(bounds) else high
            fill = (target - cumulative) / bucket_count
            estimate = lower + (upper - lower) * fill
            return max(low, min(high, estimate))
        cumulative += bucket_count
    return high


def summarize_dump(dump: dict) -> dict[str, float]:
    """The standard reporting set over a dump: p50/p95/p99 plus count
    and mean."""
    count = dump.get("count", 0)
    return {
        "count": count,
        "mean": (dump.get("total", 0.0) / count) if count else 0.0,
        "p50": dump_percentile(dump, 0.50),
        "p95": dump_percentile(dump, 0.95),
        "p99": dump_percentile(dump, 0.99),
    }


class ComponentMetrics:
    """A cheap handle binding a registry to one component's name prefix."""

    __slots__ = ("registry", "prefix")

    def __init__(self, registry: "MetricsRegistry", prefix: str):
        self.registry = registry
        self.prefix = prefix

    def counter(self, name: str) -> Counter:
        return self.registry.counter(f"{self.prefix}.{name}")

    def histogram(self, name: str) -> Histogram:
        return self.registry.histogram(f"{self.prefix}.{name}")


class MetricsRegistry:
    """Process-wide registry of named :class:`Counter`/:class:`Histogram`."""

    def __init__(self):
        self._counters: dict[str, Counter] = {}
        self._histograms: dict[str, Histogram] = {}
        self._mutex = threading.Lock()

    # -- access ------------------------------------------------------------

    def counter(self, name: str) -> Counter:
        counter = self._counters.get(name)
        if counter is None:
            with self._mutex:
                counter = self._counters.get(name)
                if counter is None:
                    counter = self._counters[name] = Counter(name)
        return counter

    def histogram(self, name: str) -> Histogram:
        histogram = self._histograms.get(name)
        if histogram is None:
            with self._mutex:
                histogram = self._histograms.get(name)
                if histogram is None:
                    histogram = self._histograms[name] = Histogram(name)
        return histogram

    def component(self, prefix: str) -> ComponentMetrics:
        return ComponentMetrics(self, prefix)

    def value(self, name: str) -> float:
        """Current value of a counter (0.0 if it was never touched)."""
        counter = self._counters.get(name)
        return counter.value if counter is not None else 0.0

    def _counter_items(self) -> list[tuple[str, Counter]]:
        with self._mutex:
            return list(self._counters.items())

    def counters(self) -> dict[str, float]:
        return {name: c.value for name, c in sorted(self._counter_items())}

    def _histogram_items(self) -> list[tuple[str, Histogram]]:
        with self._mutex:
            return list(self._histograms.items())

    def histograms(self) -> dict[str, dict[str, float]]:
        """Percentile summaries of every histogram, sorted by name."""
        return {
            name: histogram.percentiles()
            for name, histogram in sorted(self._histogram_items())
        }

    def histogram_dumps(self) -> dict[str, dict]:
        """Mergeable :meth:`Histogram.dump` payloads of every histogram
        -- the shape the TELEMETRY wire verb ships to the router."""
        return {
            name: histogram.dump()
            for name, histogram in sorted(self._histogram_items())
        }

    def names(self) -> list[str]:
        with self._mutex:
            return sorted([*self._counters, *self._histograms])

    # -- windows -----------------------------------------------------------

    def snapshot(self) -> dict[str, float]:
        """Counter values at this instant (histograms are not windowed)."""
        return {name: c.value for name, c in self._counter_items()}

    def since(self, earlier: dict[str, float]) -> dict[str, float]:
        """Counter deltas relative to an earlier :meth:`snapshot`."""
        return {
            name: counter.value - earlier.get(name, 0.0)
            for name, counter in self._counter_items()
            if counter.value != earlier.get(name, 0.0)
        }

    def reset(self) -> None:
        with self._mutex:
            instruments = [*self._counters.values(),
                           *self._histograms.values()]
        for instrument in instruments:
            instrument.reset()

    # -- reporting ---------------------------------------------------------

    def render(self) -> str:
        """A sorted plain-text table of every metric."""
        with self._mutex:
            counters = sorted(self._counters.items())
            histograms = sorted(self._histograms.items())
        lines = []
        for name, counter in counters:
            lines.append(f"{name:<40} {counter.value:g}")
        for name, histogram in histograms:
            lines.append(
                f"{name:<40} n={histogram.count} mean={histogram.mean:g}"
            )
        return "\n".join(lines)

"""Process-wide (but injectable) metrics: counters, gauges, histograms, spans.

One :class:`MetricsRegistry` collects everything a run wants to report:

* **counters** — monotonically accumulated numbers (``cache.hit``);
* **gauges** — last-write-wins values (``parallel.workers``);
* **histograms** — raw-sample timing distributions summarized as
  count/mean/quantiles/max (``parallel.unit_seconds``; p50/p95/p99 by
  default, configurable per histogram);
* **spans** — nested wall-clock phase timings (``generate.machines``
  inside ``analyze``), recorded as a tree;
* **worker lanes** — per-worker-process telemetry
  (:class:`repro.obs.worker.WorkerTelemetry`) merged in by the parallel
  backends: each worker pid gets its own span lane (time-aligned to the
  parent's clock), worker counters/histogram samples fold into the
  parent's, and peak RSS / CPU time per worker are tracked — the raw
  material for the Chrome-trace export
  (:mod:`repro.obs.chrometrace`);
* **events** — discrete structured occurrences worth reporting
  individually (``faults.quarantine``), recorded in order as plain
  dicts; snapshots include an ``"events"`` key only when any were
  recorded, so event-free snapshots keep their original shape.

The registry honors two contracts the pipelines rely on:

* **zero-cost when disabled** — every mutator returns immediately on a
  disabled registry, and instrumented call sites guard their
  ``perf_counter`` reads behind ``registry.enabled``, so library users who
  never opt in pay nothing;
* **never perturbs results** — telemetry is gathered in the parent
  process only, lives outside every config dataclass, and is excluded
  from cache keys and dataset equality; outputs are bit-identical with
  telemetry on or off (asserted by ``tests/test_obs_wiring.py``).

Access goes through a module-level current registry: the default is
disabled, the CLI installs one per invocation via :func:`use_registry`
(enabled only when ``--metrics-out`` or ``--trace-out`` asks for its
output; ``serve`` keeps an enabled one for ``/v1/stats``), and tests
inject their own.  Spans assume a single recording thread (the parent
process's main thread — all instrumented call sites live there);
counters/gauges/histograms are lock-protected.
"""

from __future__ import annotations

import math
import threading
import time
from contextlib import contextmanager
from typing import Iterator, Optional, Union

__all__ = [
    "DEFAULT_QUANTILES",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "set_registry",
    "span",
    "use_registry",
]

Number = Union[int, float]

#: Quantiles every histogram summary reports unless overridden: the
#: medians/tails the serving-layer latency targets are stated in.
DEFAULT_QUANTILES: tuple[float, ...] = (0.50, 0.95, 0.99)


def quantile_label(q: float) -> str:
    """The summary key for quantile ``q``: ``0.99`` → ``"p99"``."""
    return f"p{100 * q:g}"


class Histogram:
    """Raw-sample distribution summarized as count/mean/quantiles/max.

    Runs record at most a few thousand observations (work units, map
    calls), so samples are kept verbatim and percentiles are exact
    (nearest-rank on the sorted samples).  The reported quantiles default
    to :data:`DEFAULT_QUANTILES` (p50/p95/p99) and are configurable per
    histogram; :meth:`quantile` answers any ``q`` regardless.
    """

    __slots__ = ("_samples", "_quantiles")

    def __init__(self, quantiles: tuple[float, ...] = DEFAULT_QUANTILES) -> None:
        for q in quantiles:
            if not 0.0 < q <= 1.0:
                raise ValueError(f"quantiles must be in (0, 1], got {q}")
        self._samples: list[float] = []
        self._quantiles = tuple(quantiles)

    def observe(self, value: Number) -> None:
        self._samples.append(float(value))

    def __len__(self) -> int:
        return len(self._samples)

    @property
    def samples(self) -> tuple[float, ...]:
        return tuple(self._samples)

    @property
    def quantiles(self) -> tuple[float, ...]:
        return self._quantiles

    def quantile(self, q: float) -> float:
        """Exact nearest-rank quantile: the smallest sample whose
        cumulative frequency is >= ``q`` (requires at least one sample).

        Matches ``numpy.quantile(samples, q, method="inverted_cdf")``
        exactly (property-tested).
        """
        if not self._samples:
            raise ValueError("quantile of an empty histogram")
        if not 0.0 < q <= 1.0:
            raise ValueError(f"quantile must be in (0, 1], got {q}")
        ordered = sorted(self._samples)
        return ordered[max(0, math.ceil(q * len(ordered)) - 1)]

    def extend(self, values) -> None:
        """Fold a batch of raw samples in (worker-telemetry merge path)."""
        self._samples.extend(float(v) for v in values)

    def mean(self) -> float:
        """Arithmetic mean (requires at least one sample)."""
        if not self._samples:
            raise ValueError("mean of an empty histogram")
        return sum(self._samples) / len(self._samples)

    def summary(self) -> dict:
        """Plain-dict summary; ``{"count": 0}`` when nothing was observed."""
        if not self._samples:
            return {"count": 0}
        ordered = sorted(self._samples)
        n = len(ordered)
        out = {"count": n, "mean": sum(ordered) / n}
        for q in self._quantiles:
            out[quantile_label(q)] = ordered[max(0, math.ceil(q * n) - 1)]
        out["max"] = ordered[-1]
        return out


class MetricsRegistry:
    """A run's worth of counters, gauges, histograms, and phase spans."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._lock = threading.Lock()
        # perf_counter epoch for span offsets plus the wall-clock instant
        # it corresponds to, so spans recorded in *other processes* (each
        # against its own epoch) can be translated onto this timeline.
        self._epoch = time.perf_counter()
        self._epoch_unix = time.time()
        self._counters: dict[str, Number] = {}
        self._gauges: dict[str, Number] = {}
        self._histograms: dict[str, Histogram] = {}
        self._spans: list[dict] = []
        self._span_stack: list[dict] = []
        self._events: list[dict] = []
        # Per-worker-process lanes, keyed by pid: merged spans (translated
        # to this registry's timeline) and resource peaks.
        self._workers: dict[int, dict] = {}

    @property
    def epoch_unix(self) -> float:
        """Wall-clock time (``time.time()``) at span offset 0."""
        return self._epoch_unix

    # -- counters / gauges / histograms --------------------------------------

    def inc(self, name: str, n: Number = 1) -> None:
        """Add ``n`` to counter ``name`` (``n=0`` declares it at zero)."""
        if not self.enabled:
            return
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + n

    def counter_value(self, name: str) -> Number:
        """Current value of a counter (0 if never incremented)."""
        with self._lock:
            return self._counters.get(name, 0)

    def gauge(self, name: str, value: Number) -> None:
        """Set gauge ``name`` to ``value`` (last write wins)."""
        if not self.enabled:
            return
        with self._lock:
            self._gauges[name] = value

    def observe(self, name: str, value: Number) -> None:
        """Record one sample into histogram ``name``."""
        if not self.enabled:
            return
        with self._lock:
            self._histograms.setdefault(name, Histogram()).observe(value)

    def histogram(self, name: str) -> Optional[Histogram]:
        """The live histogram object for ``name`` (``None`` if unseen)."""
        with self._lock:
            return self._histograms.get(name)

    def record(self, name: str, **fields: object) -> None:
        """Append one structured event (``name`` plus JSON-able fields)."""
        if not self.enabled:
            return
        with self._lock:
            self._events.append({"name": name, **fields})

    def events(self, name: Optional[str] = None) -> list[dict]:
        """Recorded events, optionally filtered by name (copies)."""
        with self._lock:
            return [
                dict(e) for e in self._events if name is None or e["name"] == name
            ]

    @contextmanager
    def timer(self, name: str) -> Iterator[None]:
        """Time the enclosed block into histogram ``name``."""
        if not self.enabled:
            yield
            return
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.observe(name, time.perf_counter() - t0)

    # -- spans ----------------------------------------------------------------

    @contextmanager
    def span(self, name: str) -> Iterator[Optional[dict]]:
        """Record a named wall-clock phase; nests under an enclosing span.

        Yields the (mutable) span record so callers can attach extra keys;
        ``duration_s`` is filled in on exit.  Disabled registries yield
        ``None`` and record nothing.
        """
        if not self.enabled:
            yield None
            return
        t0 = time.perf_counter()
        record: dict = {
            "name": name,
            "start_s": round(t0 - self._epoch, 6),
            "duration_s": None,
            "children": [],
        }
        parent = self._span_stack[-1] if self._span_stack else None
        (parent["children"] if parent else self._spans).append(record)
        self._span_stack.append(record)
        try:
            yield record
        finally:
            record["duration_s"] = round(time.perf_counter() - t0, 6)
            if self._span_stack and self._span_stack[-1] is record:
                self._span_stack.pop()

    # -- worker telemetry merge ----------------------------------------------

    def merge_worker(self, telemetry) -> None:
        """Fold one :class:`repro.obs.worker.WorkerTelemetry` in.

        Worker counters add into this registry's counters, histogram
        samples extend the matching histograms, and the worker's spans are
        appended to its pid's lane with ``start_s`` translated onto this
        registry's timeline (both processes share the host wall clock, so
        the translation is exact up to clock resolution).  Resource peaks
        (max RSS, CPU seconds) keep per-pid maxima.  Callers merge a
        unit's telemetry only once it *settled successfully* — a retried
        unit contributes exactly one worker's worth, never two.
        """
        if not self.enabled or telemetry is None:
            return
        shift = telemetry.epoch_unix - self._epoch_unix

        def translate(rec: dict) -> dict:
            return {
                "name": rec["name"],
                "start_s": round(rec["start_s"] + shift, 6),
                "duration_s": rec["duration_s"],
                "children": [translate(c) for c in rec["children"]],
            }

        with self._lock:
            for name, n in telemetry.counters.items():
                self._counters[name] = self._counters.get(name, 0) + n
            for name, values in telemetry.samples.items():
                self._histograms.setdefault(name, Histogram()).extend(values)
            lane = self._workers.setdefault(
                telemetry.pid,
                {"spans": [], "units": 0, "max_rss_bytes": 0, "cpu_seconds": 0.0},
            )
            lane["spans"].extend(translate(rec) for rec in telemetry.spans)
            lane["units"] += 1
            lane["max_rss_bytes"] = max(
                lane["max_rss_bytes"], telemetry.max_rss_bytes
            )
            # CPU time is cumulative over the worker process's lifetime,
            # so the latest reading is the largest.
            lane["cpu_seconds"] = max(lane["cpu_seconds"], telemetry.cpu_seconds)

    def worker_lanes(self) -> dict[int, dict]:
        """Merged per-worker telemetry, keyed by pid (copies)."""
        import copy

        with self._lock:
            return copy.deepcopy(self._workers)

    # -- snapshot -------------------------------------------------------------

    def snapshot(self) -> dict:
        """Everything recorded so far, as a JSON-serializable plain dict."""
        import copy

        with self._lock:
            snap = {
                "counters": {k: self._counters[k] for k in sorted(self._counters)},
                "gauges": {k: self._gauges[k] for k in sorted(self._gauges)},
                "histograms": {
                    k: self._histograms[k].summary()
                    for k in sorted(self._histograms)
                },
                "spans": copy.deepcopy(self._spans),
            }
            if self._events:
                snap["events"] = copy.deepcopy(self._events)
            if self._workers:
                snap["workers"] = {
                    str(pid): copy.deepcopy(lane)
                    for pid, lane in sorted(self._workers.items())
                }
            return snap

    def reset(self) -> None:
        """Drop everything recorded (keeps the enabled flag)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()
            self._spans.clear()
            self._span_stack.clear()
            self._events.clear()
            self._workers.clear()
            self._epoch = time.perf_counter()
            self._epoch_unix = time.time()


#: The ambient registry: disabled by default so library use is untelemetered
#: (and free) unless a caller opts in.
_DISABLED = MetricsRegistry(enabled=False)
_current: MetricsRegistry = _DISABLED


def get_registry() -> MetricsRegistry:
    """The current ambient registry (disabled no-op unless one was set)."""
    return _current


def set_registry(registry: Optional[MetricsRegistry]) -> MetricsRegistry:
    """Install ``registry`` as the ambient one (``None`` restores the
    disabled default); returns what was installed."""
    global _current
    _current = registry if registry is not None else _DISABLED
    return _current


@contextmanager
def use_registry(registry: MetricsRegistry) -> Iterator[MetricsRegistry]:
    """Install ``registry`` for the duration of the block, then restore."""
    global _current
    previous = _current
    _current = registry
    try:
        yield registry
    finally:
        _current = previous


def span(name: str):
    """A phase span on the *current* registry (no-op when disabled)."""
    return get_registry().span(name)

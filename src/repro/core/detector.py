"""Unavailability detection from monitor samples.

Two interchangeable implementations of the same semantics:

* :class:`UnavailabilityDetector` — streaming, one sample at a time, as the
  production monitor module would run on a host machine;
* :class:`BatchDetector` — vectorized over :class:`~repro.core.samples.SampleBatch`
  columns, used by the trace pipeline (92 days x 20 machines).

Semantics (from Sections 4 and 5):

* **S5 (URR)** and **S4 (memory)** begin at the first sample observing the
  condition and are immediate — revocation is abrupt and thrashing demands
  instant guest termination.
* **S3 (CPU)** requires the host load to stay above Th2 for longer than the
  suspension grace (1 minute): shorter excursions are mere guest
  suspensions inside S1/S2 and produce *no* unavailability event.  A
  qualifying event is backdated to the start of the excursion.
* An event ends at the first sample no longer observing its condition (or
  at the trace end, when still open).
* Precedence S5 > S4 > S3 applies per sample.

The hypothesis suite checks that both implementations produce identical
events on arbitrary signals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..errors import TraceError
from .events import UnavailabilityEvent
from .model import MultiStateModel
from .samples import MonitorSample, SampleBatch
from .states import AvailState

__all__ = ["UnavailabilityDetector", "BatchDetector", "detect_events"]

#: Internal run classes: 0 = available (S1/S2), 3/4/5 = failure conditions.
_AVAIL = 0

#: Samples per chunk of :meth:`BatchDetector.detect_columns`' prefix sums.
_PREFIX_CHUNK = 1 << 16


def _run_class(code: int) -> int:
    return code if code >= 3 else _AVAIL


_CLASS_STATE = {3: AvailState.S3, 4: AvailState.S4, 5: AvailState.S5}


@dataclass
class _OpenRun:
    cls: int
    start: float
    load_sum: float = 0.0
    mem_sum: float = 0.0
    count: int = 0

    def observe(self, load: float, mem: float) -> None:
        self.load_sum += load
        self.mem_sum += mem
        self.count += 1

    def mean_load(self) -> float:
        return self.load_sum / self.count if self.count else float("nan")

    def mean_mem(self) -> float:
        return self.mem_sum / self.count if self.count else float("nan")


class UnavailabilityDetector:
    """Streaming detector: feed samples, collect completed events.

    Examples
    --------
    >>> from repro.core import MultiStateModel, MonitorSample
    >>> det = UnavailabilityDetector(machine_id=0)
    >>> for k in range(30):
    ...     # 5 minutes of overload sampled every 10 s
    ...     _ = det.feed(MonitorSample(10.0 * k, 0.95, 500.0, True))
    >>> events = det.finalize(300.0)
    >>> [(e.state.value, e.start, e.end) for e in events]
    [('S3', 0.0, 300.0)]
    """

    def __init__(
        self,
        machine_id: int = 0,
        model: Optional[MultiStateModel] = None,
        *,
        grace: Optional[float] = None,
    ) -> None:
        self.machine_id = machine_id
        self.model = model or MultiStateModel()
        #: Minimum sustained duration for a Th2 excursion to count as S3.
        self.grace = (
            self.model.thresholds.suspension_grace if grace is None else grace
        )
        self._run: Optional[_OpenRun] = None
        self._last_time: Optional[float] = None
        self._finalized = False

    def feed(self, sample: MonitorSample) -> list[UnavailabilityEvent]:
        """Process one sample; returns events completed by it."""
        if self._finalized:
            raise TraceError("detector already finalized")
        if self._last_time is not None and sample.time <= self._last_time:
            raise TraceError(
                f"samples must be time-ordered: {sample.time} after {self._last_time}"
            )
        self._last_time = sample.time
        cls = _run_class(self._code(sample))

        events: list[UnavailabilityEvent] = []
        if self._run is None:
            self._run = _OpenRun(cls, sample.time)
        elif cls != self._run.cls:
            ev = self._close_run(self._run, sample.time)
            if ev is not None:
                events.append(ev)
            self._run = _OpenRun(cls, sample.time)
        if sample.machine_up:
            self._run.observe(sample.host_load, sample.free_mb)
        return events

    def _code(self, sample: MonitorSample) -> int:
        state = self.model.classify(sample)
        return int(state.value[1])

    def _close_run(
        self, run: _OpenRun, end: float
    ) -> Optional[UnavailabilityEvent]:
        if run.cls == _AVAIL:
            return None
        duration = end - run.start
        if run.cls == 3 and duration <= self.grace:
            return None  # transient excursion: suspension, not failure
        return UnavailabilityEvent(
            machine_id=self.machine_id,
            start=run.start,
            end=end,
            state=_CLASS_STATE[run.cls],
            mean_host_load=run.mean_load(),
            mean_free_mb=run.mean_mem(),
        )

    def finalize(self, end_time: Optional[float] = None) -> list[UnavailabilityEvent]:
        """Close any open run at ``end_time`` (default: last sample time)."""
        if self._finalized:
            raise TraceError("detector already finalized")
        self._finalized = True
        if self._run is None:
            return []
        end = self._last_time if end_time is None else end_time
        assert end is not None
        if end <= self._run.start:
            return []
        ev = self._close_run(self._run, end)
        return [ev] if ev is not None else []


class BatchDetector:
    """Vectorized detector over a :class:`SampleBatch`.

    Classification is a few NumPy passes; the run loop touches only run
    boundaries (a handful per machine-day), so detecting over months of
    samples is fast.
    """

    def __init__(
        self,
        model: Optional[MultiStateModel] = None,
        *,
        grace: Optional[float] = None,
    ) -> None:
        self.model = model or MultiStateModel()
        self.grace = (
            self.model.thresholds.suspension_grace if grace is None else grace
        )

    def detect(
        self,
        batch: SampleBatch,
        *,
        machine_id: int = 0,
        end_time: Optional[float] = None,
    ) -> list[UnavailabilityEvent]:
        """All unavailability events in the batch.

        ``end_time`` closes a run still open at the final sample (defaults
        to the last sample time, dropping a zero-length tail run).
        """
        n = len(batch)
        if n == 0:
            return []
        codes = self.model.classify_batch(batch)
        cls = np.where(codes >= 3, codes, _AVAIL)

        # Run-length encode the class signal.
        change = np.flatnonzero(np.diff(cls) != 0)
        starts = np.concatenate(([0], change + 1))
        ends = np.concatenate((change + 1, [n]))  # exclusive sample index

        t_final = batch.times[-1] if end_time is None else float(end_time)
        up = batch.machine_up
        # Prefix sums for per-run means over up samples only.
        load_cs = np.concatenate(([0.0], np.cumsum(np.where(up, batch.host_load, 0.0))))
        mem_cs = np.concatenate(([0.0], np.cumsum(np.where(up, batch.free_mb, 0.0))))
        upcount_cs = np.concatenate(([0], np.cumsum(up.astype(np.int64))))

        events: list[UnavailabilityEvent] = []
        for i0, i1 in zip(starts, ends):
            c = int(cls[i0])
            if c == _AVAIL:
                continue
            t0 = float(batch.times[i0])
            t1 = float(batch.times[i1]) if i1 < n else t_final
            if t1 <= t0:
                continue
            if c == 3 and (t1 - t0) <= self.grace:
                continue
            cnt = int(upcount_cs[i1] - upcount_cs[i0])
            mean_load = (
                float(load_cs[i1] - load_cs[i0]) / cnt if cnt else float("nan")
            )
            mean_mem = float(mem_cs[i1] - mem_cs[i0]) / cnt if cnt else float("nan")
            events.append(
                UnavailabilityEvent(
                    machine_id=machine_id,
                    start=t0,
                    end=t1,
                    state=_CLASS_STATE[c],
                    mean_host_load=mean_load,
                    mean_free_mb=mean_mem,
                )
            )
        return events

    def detect_columns(
        self,
        batch: SampleBatch,
        *,
        machine_id: int = 0,
        end_time: Optional[float] = None,
    ) -> np.ndarray:
        """:meth:`detect` emitting an ``EVENT_DTYPE`` row array directly.

        Same classification, run-length encoding and per-run means as
        :meth:`detect` — run filtering and mean computation are vectorized
        and the rows are written straight into a structured array, so no
        :class:`UnavailabilityEvent` objects exist on this path.  Rows come
        out (machine_id, start)-sorted by construction and use the same
        float operations (prefix-sum difference divided by the up-sample
        count, ``nan`` when a run has no up samples), keeping serialized
        output byte-identical to the legacy path.
        """
        from ..traces.records import EVENT_DTYPE  # local: avoids core <-> traces cycle

        n = len(batch)
        if n == 0:
            return np.empty(0, dtype=EVENT_DTYPE)
        codes = self.model.classify_batch(batch)
        cls = np.where(codes >= 3, codes, _AVAIL)

        change = np.flatnonzero(np.diff(cls) != 0)
        starts = np.concatenate(([0], change + 1))
        ends = np.concatenate((change + 1, [n]))

        t_final = batch.times[-1] if end_time is None else float(end_time)
        run_cls = cls[starts]
        t0 = batch.times[starts]
        t1 = np.where(ends < n, batch.times[np.minimum(ends, n - 1)], t_final)

        keep = (run_cls != _AVAIL) & (t1 > t0)
        keep &= ~((run_cls == 3) & ((t1 - t0) <= self.grace))
        if not keep.any():
            return np.empty(0, dtype=EVENT_DTYPE)
        starts = starts[keep]
        ends = ends[keep]
        run_cls = run_cls[keep]
        t0 = t0[keep]
        t1 = t1[keep]

        # Per-run sums over up samples, each the difference of two prefix
        # sums, taken a chunk at a time.  The first chunk's cumsum is the
        # legacy concatenate(([0], cumsum(...))) prefix entry for entry, and
        # each later chunk is seeded as x[0] = carry + x[0] before its
        # cumsum, so every prefix is the same sequential sum.  Only the
        # prefixes at kept runs' bounds are kept (prefix 0 is 0.0); up
        # counts are integers well below 2**53, exact in float64.
        up = batch.machine_up
        bounds = np.empty(2 * starts.shape[0], dtype=np.int64)
        bounds[0::2] = starts
        bounds[1::2] = ends  # nondecreasing: kept runs are disjoint
        columns = (up, batch.host_load, batch.free_mb)
        prefix = np.zeros((len(columns), bounds.shape[0]))
        carry = [0.0] * len(columns)
        buf = np.empty(min(n, _PREFIX_CHUNK))
        for lo in range(0, n, _PREFIX_CHUNK):
            hi = min(lo + _PREFIX_CHUNK, n)
            body = buf[: hi - lo]
            up_c = up[lo:hi]
            # Bounds in (lo, hi] read this chunk's cumsum.
            a, b = np.searchsorted(bounds, (lo, hi), side="right")
            at = bounds[a:b] - (lo + 1)
            for j, column in enumerate(columns):
                body[...] = 0.0
                np.copyto(body, column[lo:hi], where=up_c)
                if lo:
                    body[0] = carry[j] + body[0]
                np.cumsum(body, out=body)
                carry[j] = body[-1]
                prefix[j, a:b] = body[at]
        cnt, load_sum, mem_sum = prefix[:, 1::2] - prefix[:, 0::2]
        denom = np.maximum(cnt, 1)
        with np.errstate(invalid="ignore"):
            mean_load = np.where(cnt > 0, load_sum / denom, np.nan)
            mean_mem = np.where(cnt > 0, mem_sum / denom, np.nan)

        out = np.empty(run_cls.shape[0], dtype=EVENT_DTYPE)
        out["machine_id"] = machine_id
        out["start"] = t0
        out["end"] = t1
        out["state"] = run_cls.astype(np.uint8)
        out["mean_host_load"] = mean_load
        out["mean_free_mb"] = mean_mem
        return out


def detect_events(
    batch: SampleBatch,
    *,
    machine_id: int = 0,
    model: Optional[MultiStateModel] = None,
    grace: Optional[float] = None,
    end_time: Optional[float] = None,
) -> list[UnavailabilityEvent]:
    """Convenience wrapper around :class:`BatchDetector`."""
    return BatchDetector(model, grace=grace).detect(
        batch, machine_id=machine_id, end_time=end_time
    )

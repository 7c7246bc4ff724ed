"""A stateful model of ingest: one ``ServeState`` behind an ``AsyncIngester``.

Hypothesis drives random interleavings of submits, dry runs, flushes,
snapshot/restore cycles and queries against a small generated fleet, and
checks every step against a model that is only a list of acknowledged
events and the per-machine ingest contract:

* a batch is judged event by event against each machine's newest
  acknowledged event: a start before it rejects the whole batch (409), an
  exact copy of it is a duplicate and is dropped, anything else counts;
* after ``flush`` every point, capacity and rank answer ``==`` the batch
  :class:`~repro.prediction.history.HistoryWindowPredictor` fitted on the
  base events plus every acknowledged non-duplicate event, over a span
  of ``horizon_day`` days (the oracle ``perfbench/gates.py`` builds);
* accepted and deduplicated counts, per batch and in total, equal the
  model's, and a 409 or a dry run (``validate_only``) changes nothing;
* a state restored from a snapshot answers ``==`` the one it was saved
  from, and goes on ingesting as it would have.

The HTTP layer, the router and crash/restart rules are not modelled here.
"""

from __future__ import annotations

import dataclasses
import math
import shutil
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.config import FgcsConfig, TestbedConfig
from repro.errors import IngestOrderError, NoHistoryError, PredictionError
from repro.prediction.base import PredictionQuery
from repro.prediction.history import HistoryWindowPredictor
from repro.serve import AsyncIngester, ServeState
from repro.serve.state import mean_survival
from repro.traces.dataset import TraceDataset
from repro.traces.generate import generate_dataset
from repro.traces.records import (
    CODE_TO_STATE,
    EVENT_DTYPE,
    EventColumns,
    columns_to_events,
)
from repro.units import DAY, HOUR

N_MACHINES = 3
N_DAYS = 14
#: Streamed starts stay within this many days past the base trace, so
#: history windows stay answerable as the horizon grows.
MAX_DAY = N_DAYS + 4

_CODES = sorted(CODE_TO_STATE)
_NAMES = {code: state.value for code, state in CODE_TO_STATE.items()}

_BASE = EventColumns.from_dataset(
    generate_dataset(
        dataclasses.replace(
            FgcsConfig(),
            testbed=TestbedConfig(n_machines=N_MACHINES, duration=N_DAYS * DAY),
            seed=5,
        )
    )
)

def _judge(tails: dict, batch: list) -> tuple | None:
    """The ingest contract: ``(accepted, deduplicated, new tails)``, or
    ``None`` when the batch must be rejected whole.  The model holds an
    event as ``(machine, start, end, state code)``."""
    tails = dict(tails)
    accepted, deduplicated = [], 0
    for event in batch:
        tail = tails.get(event[0])
        if tail is not None and event[1] < tail[1]:
            return None
        if event == tail:
            deduplicated += 1
            continue
        tails[event[0]] = event
        accepted.append(event)
    return accepted, deduplicated, tails


def _payload(event: tuple, as_dict: bool, by_name: bool):
    """An ingest payload in one of the shapes the boundary accepts."""
    machine, start, end, code = event
    state = _NAMES[code] if by_name else code
    if as_dict:
        return {"machine_id": machine, "start": start, "end": end, "state": state}
    return [machine, start, end, state]


def _oracle(streamed: list, horizon_day: int) -> HistoryWindowPredictor:
    """The batch predictor on the base rows plus the streamed events."""
    rows = np.zeros(len(streamed), dtype=EVENT_DTYPE)
    if streamed:
        machine, start, end, state = zip(*streamed)
        rows["machine_id"] = machine
        rows["start"] = start
        rows["end"] = end
        rows["state"] = state
    rows["mean_host_load"] = np.nan
    rows["mean_free_mb"] = np.nan
    dataset = TraceDataset.from_validated(
        columns_to_events(np.concatenate([_BASE.events, rows])),
        n_machines=N_MACHINES,
        span=horizon_day * DAY,
        start_weekday=_BASE.start_weekday,
    )
    return HistoryWindowPredictor().fit(dataset)


def _answer(call):
    """A call's value, or the fact that it found no history."""
    try:
        return call()
    except (NoHistoryError, PredictionError):
        return "no history"


_days = st.integers(min_value=0, max_value=MAX_DAY + 2)
_hours = st.sampled_from([0.0, 4.0, 9.5, 13.25, 23.0])
_durations = st.sampled_from([0.5, 1.0, 6.0, 30.0])


class IngestModel(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.tmp = Path(tempfile.mkdtemp(prefix="ingest-model-"))
        self.state = ServeState.from_columns(_BASE)
        self.ingester = AsyncIngester(self.state)
        #: Acknowledged non-duplicate events, in acknowledgement order.
        self.streamed: list = []
        self.tails: dict = {}
        self.deduplicated = 0
        self.flushed = True
        self._predictor = None

    def teardown(self) -> None:
        self.ingester.close(timeout=30)
        shutil.rmtree(self.tmp, ignore_errors=True)

    # -- the model ------------------------------------------------------------

    @property
    def horizon_day(self) -> int:
        days = [int(start // DAY) + 1 for _, start, _, _ in self.streamed]
        return max([N_DAYS, *days])

    @property
    def predictor(self) -> HistoryWindowPredictor:
        if self._predictor is None:
            self._predictor = _oracle(self.streamed, self.horizon_day)
        return self._predictor

    def _draw_batch(self, data) -> list:
        """Events of every kind the contract distinguishes, each judged
        against the newest event before it (earlier ones in the batch
        included)."""
        tails = dict(self.tails)
        batch = []
        for _ in range(data.draw(st.integers(1, 5), label="batch size")):
            machine = data.draw(st.integers(0, N_MACHINES - 1), label="machine")
            tail = tails.get(machine)
            kind = data.draw(
                st.sampled_from(
                    ["fresh", "fresh", "fresh", "duplicate", "same start", "stale"]
                ),
                label="kind",
            )
            if tail is None or (kind == "stale" and tail[1] == 0.0):
                kind = "fresh"
            if kind == "duplicate":
                event = tail
            elif kind == "stale":
                start = tail[1] * data.draw(st.sampled_from([0.0, 0.5, 0.999]))
                event = (machine, start, start + 60.0, _CODES[0])
            else:
                if kind == "same start":
                    start = tail[1]
                elif tail is None:
                    start = data.draw(
                        st.floats(0.0, MAX_DAY * DAY, exclude_max=True),
                        label="start",
                    )
                else:
                    step = data.draw(
                        st.sampled_from([0.0, 1.0, 600.0, HOUR, 5 * HOUR, DAY])
                    )
                    start = min(tail[1] + step, math.nextafter(MAX_DAY * DAY, 0))
                length = data.draw(st.sampled_from([1.0, 60.0, 900.0, 2 * HOUR]))
                code = data.draw(st.sampled_from(_CODES), label="state")
                event = (machine, start, start + length, code)
            batch.append(event)
            if kind != "stale":
                tails[machine] = event
        return batch

    def _payloads(self, data, batch: list) -> list:
        as_dict = data.draw(st.booleans(), label="as dict")
        by_name = data.draw(st.booleans(), label="state by name")
        return [_payload(event, as_dict, by_name) for event in batch]

    # -- rules ----------------------------------------------------------------

    @rule(data=st.data())
    def submit(self, data) -> None:
        batch = self._draw_batch(data)
        payloads = self._payloads(data, batch)
        verdict = _judge(self.tails, batch)
        enqueued = self.ingester.stats().enqueued_batches
        try:
            got = self.ingester.submit(payloads)
        except IngestOrderError:
            assert verdict is None, batch
            assert self.ingester.stats().enqueued_batches == enqueued
            return
        assert verdict is not None, batch
        accepted, deduplicated, tails = verdict
        assert got.n_accepted == len(accepted)
        assert got.deduplicated == deduplicated
        self.streamed.extend(accepted)
        self.tails = tails
        self.deduplicated += deduplicated
        if accepted:
            self._predictor = None
        self.flushed = False

    @rule(data=st.data())
    def validate_only(self, data) -> None:
        batch = self._draw_batch(data)
        verdict = _judge(self.tails, batch)
        enqueued = self.ingester.stats().enqueued_batches
        try:
            got = self.ingester.validate_only(self._payloads(data, batch))
        except IngestOrderError:
            assert verdict is None, batch
        else:
            assert verdict is not None, batch
            assert got.n_accepted == len(verdict[0])
            assert got.deduplicated == verdict[1]
        assert self.ingester.stats().enqueued_batches == enqueued

    @rule()
    def flush(self) -> None:
        assert self.ingester.flush(timeout=30)
        self.flushed = True

    @precondition(lambda self: self.flushed)
    @rule()
    def snapshot_and_restore(self) -> None:
        path = self.tmp / "overlay.npz"
        self.state.save_overlay_snapshot(path)
        restored = ServeState.from_columns(_BASE)
        restored.restore_overlay_snapshot(path)
        assert restored.tier_stats() == self.state.tier_stats()
        for day in (N_DAYS, self.state.horizon_day):
            assert _answer(lambda: restored.rank(day, 9.5, 6.0, k=N_MACHINES)) == (
                _answer(lambda: self.state.rank(day, 9.5, 6.0, k=N_MACHINES))
            )
            for machine in range(N_MACHINES):
                query = PredictionQuery(machine, day, 0.0, 30.0)
                assert _answer(lambda: restored.predict_count(query)) == (
                    _answer(lambda: self.state.predict_count(query))
                )
        # From here on the restored state is the one under test, so the
        # invariant checks its tails and counters against the model.
        self.ingester.close(timeout=30)
        self.state = restored
        self.ingester = AsyncIngester(restored)

    @precondition(lambda self: self.flushed)
    @rule(
        machine=st.integers(0, N_MACHINES - 1),
        day=_days,
        hour=_hours,
        duration=_durations,
    )
    def point(self, machine, day, hour, duration) -> None:
        query = PredictionQuery(machine, day, hour, duration)
        oracle = self.predictor
        assert _answer(lambda: self.state.predict_count(query)) == _answer(
            lambda: oracle.predict_count(query)
        ), query
        assert _answer(lambda: self.state.predict_survival(query)) == _answer(
            lambda: oracle.predict_survival(query)
        ), query

    def _clean_windows(self, day, hour, duration):
        """Per machine ``(clean, n)`` from the oracle, or "no history"."""
        oracle = self.predictor
        return _answer(
            lambda: [
                oracle.clean_windows(PredictionQuery(m, day, hour, duration))
                for m in range(N_MACHINES)
            ]
        )

    @precondition(lambda self: self.flushed)
    @rule(day=_days, hour=_hours, duration=_durations)
    def capacity(self, day, hour, duration) -> None:
        got = _answer(lambda: self.state.capacity(day, hour, duration))
        windows = self._clean_windows(day, hour, duration)
        if windows == "no history":
            assert got == "no history"
            return
        laplace = self.predictor.laplace
        n = windows[0][1]
        survival = [(k + laplace) / (n + 2 * laplace) for k, _ in windows]
        clean = sum(k for k, _ in windows)
        assert got["available"] == sum(s >= 0.5 for s in survival)
        assert got["clean_windows"] == clean
        assert got["history_days"] == n
        assert got["mean_survival"] == mean_survival(
            clean, N_MACHINES, n, laplace
        )

    @precondition(lambda self: self.flushed)
    @rule(day=_days, hour=_hours, duration=_durations, k=st.integers(1, 4))
    def rank(self, day, hour, duration, k) -> None:
        got = _answer(lambda: self.state.rank(day, hour, duration, k=k))
        windows = self._clean_windows(day, hour, duration)
        if windows == "no history":
            assert got == "no history"
            return
        laplace = self.predictor.laplace
        survival = [(c + laplace) / (n + 2 * laplace) for c, n in windows]
        order = sorted(range(N_MACHINES), key=lambda m: (-survival[m], m))
        assert got == [(m, survival[m]) for m in order[:k]]

    @invariant()
    def counts_match_once_flushed(self) -> None:
        if not self.flushed:
            return
        stats = self.state.tier_stats()
        assert stats.streamed_events == len(self.streamed)
        assert stats.deduplicated_events == self.deduplicated
        assert self.state.horizon_day == self.horizon_day
        for machine in range(N_MACHINES):
            tail = self.state.tail_of(machine)
            if tail is not None:
                tail = (machine, tail.start, tail.end, tail.state)
            assert tail == self.tails.get(machine)


TestIngestModel = IngestModel.TestCase
TestIngestModel.settings = settings(
    max_examples=50,
    stateful_step_count=40,
    derandomize=True,
    deadline=None,
)

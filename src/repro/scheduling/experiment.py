"""The proactive-vs-oblivious scheduling comparison (Extension B).

Runs the same job stream under every policy on the test slice of a traced
testbed and compares mean response time, stretch, failure counts and
completion rates — quantifying the paper's Section 1 claim that proactive
(prediction-based) management improves response time over oblivious
methods.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..errors import ConfigError
from ..faults import FaultContext
from ..obs.metrics import span
from ..prediction.evaluate import check_train_days
from ..prediction.history import HistoryWindowPredictor
from ..prediction.renewal import RenewalAgePredictor
from ..rng import generator_from
from ..traces.dataset import TraceDataset
from ..units import HOUR
from .executor import ExecutionOutcome, TraceExecutor
from .jobs import generate_job_stream
from .policies import (
    AgeAwarePolicy,
    LeastLoadedPolicy,
    OraclePolicy,
    PlacementPolicy,
    PredictivePolicy,
    RandomPolicy,
)

__all__ = ["PolicyResult", "SchedulingComparison", "run_scheduling_experiment"]


@dataclass(frozen=True)
class PolicyResult:
    """Aggregate job metrics for one policy."""

    policy: str
    mean_response_h: float
    median_response_h: float
    mean_stretch: float
    total_failures: int
    completed: int
    total_jobs: int
    wasted_cpu_h: float

    @property
    def completion_rate(self) -> float:
        return self.completed / self.total_jobs if self.total_jobs else 0.0

    def __str__(self) -> str:
        return (
            f"{self.policy:<36s} resp {self.mean_response_h:6.2f}h "
            f"(median {self.median_response_h:5.2f}h)  stretch "
            f"{self.mean_stretch:5.2f}  kills {self.total_failures:4d}  "
            f"done {self.completed}/{self.total_jobs}"
        )


@dataclass(frozen=True)
class SchedulingComparison:
    """Results of all policies on the same jobs and trace."""

    results: tuple[PolicyResult, ...]
    n_jobs: int

    def result_of(self, policy: str) -> PolicyResult:
        for r in self.results:
            if r.policy == policy:
                return r
        raise KeyError(policy)

    def speedup(self, better: str, worse: str) -> float:
        """Response-time ratio worse/better (>1 means ``better`` wins)."""
        return self.result_of(worse).mean_response_h / self.result_of(
            better
        ).mean_response_h


def summarize_outcomes(policy: str, outcomes: Sequence[ExecutionOutcome]) -> PolicyResult:
    """Aggregate one policy's execution outcomes."""
    finished = [o for o in outcomes if o.finished]
    responses = np.array([o.response_time for o in finished]) / HOUR
    stretches = np.array([o.stretch for o in finished])
    return PolicyResult(
        policy=policy,
        mean_response_h=float(responses.mean()) if len(finished) else float("inf"),
        median_response_h=(
            float(np.median(responses)) if len(finished) else float("inf")
        ),
        mean_stretch=float(stretches.mean()) if len(finished) else float("inf"),
        total_failures=sum(o.failures for o in outcomes),
        completed=len(finished),
        total_jobs=len(outcomes),
        wasted_cpu_h=float(sum(o.wasted_cpu for o in outcomes) / HOUR),
    )


def run_scheduling_experiment(
    dataset: TraceDataset,
    *,
    train_days: int,
    seed: int = 7,
    mean_interarrival: float = 2.5 * HOUR,
    mean_runtime: float = 2 * HOUR,
    policies: Optional[Sequence[PlacementPolicy]] = None,
    checkpointing: bool = False,
) -> SchedulingComparison:
    """Compare placement policies on the held-out slice of a trace.

    The predictor trains on the first ``train_days``; jobs run on the
    remaining days.  With ``policies=None``, the standard panel is used:
    random, least-loaded, predictive (history-window), oracle.
    """
    check_train_days(dataset.n_days, train_days, ConfigError)
    train = dataset.slice_days(0, train_days)
    test = dataset.slice_days(train_days, dataset.n_days)

    jobs = generate_job_stream(
        span=test.span - 24 * HOUR,  # leave room for the tail to finish
        rng=generator_from(seed),
        mean_interarrival=mean_interarrival,
        mean_runtime=mean_runtime,
    )
    if policies is None:
        predictor = HistoryWindowPredictor(history_days=8).fit(train)
        renewal = RenewalAgePredictor().fit(train)
        # The history predictor answers queries with day indices relative
        # to the test slice; its history lives at the end of the training
        # slice.
        policies = [
            RandomPolicy(generator_from(seed + 1)),
            LeastLoadedPolicy(test),
            PredictivePolicy(_ShiftedPredictor(predictor, train_days)),
            AgeAwarePolicy(test, renewal),
            OraclePolicy(test),
        ]

    executor = TraceExecutor(test, checkpointing=checkpointing)
    results = []
    for policy in policies:
        with span(f"schedule.policy.{policy.name}"):
            outcomes = executor.run(jobs, policy)
        results.append(summarize_outcomes(policy.name, outcomes))
    return SchedulingComparison(results=tuple(results), n_jobs=len(jobs))


@dataclass(frozen=True)
class ReplicatedResult:
    """One policy's metrics over several job-stream replications."""

    policy: str
    mean_response_h: float
    response_ci: tuple[float, float]
    mean_kills: float
    kills_ci: tuple[float, float]
    replications: int

    def __str__(self) -> str:
        lo, hi = self.response_ci
        klo, khi = self.kills_ci
        return (
            f"{self.policy:<36s} resp {self.mean_response_h:6.2f}h "
            f"[{lo:.2f}, {hi:.2f}]   kills {self.mean_kills:6.1f} "
            f"[{klo:.1f}, {khi:.1f}]   (n={self.replications})"
        )


@dataclass(frozen=True)
class ReplicatedComparison:
    """Per-seed policy metrics plus paired statistics.

    Seeds vary the *workload* as well as the policy's random choices, so
    between-seed variance is shared across policies; paired per-seed
    differences are the statistically meaningful comparison.
    """

    seeds: tuple[int, ...]
    #: policy -> metric ("resp" in hours, "kills") -> per-seed values.
    raw: dict[str, dict[str, tuple[float, ...]]]

    def result_of(self, policy: str) -> ReplicatedResult:
        from ..analysis.stats import bootstrap_ci

        slot = self.raw[policy]
        r_point, r_lo, r_hi = bootstrap_ci(slot["resp"], n_boot=500)
        k_point, k_lo, k_hi = bootstrap_ci(slot["kills"], n_boot=500)
        return ReplicatedResult(
            policy=policy,
            mean_response_h=r_point,
            response_ci=(r_lo, r_hi),
            mean_kills=k_point,
            kills_ci=(k_lo, k_hi),
            replications=len(self.seeds),
        )

    def paired_difference(
        self, metric: str, worse: str, better: str
    ) -> tuple[float, float, float]:
        """Bootstrap (mean, lo, hi) of per-seed ``worse - better``.

        An interval entirely above zero means ``better`` wins the metric
        consistently across workloads.
        """
        from ..analysis.stats import bootstrap_ci

        a = np.asarray(self.raw[worse][metric])
        b = np.asarray(self.raw[better][metric])
        return bootstrap_ci(a - b, n_boot=500)

    def policies(self) -> list[str]:
        return list(self.raw)


def _replicate_one(
    payload: tuple[TraceDataset, int, int, float, float],
) -> tuple[PolicyResult, ...]:
    """One replicate: the full policy panel on one job stream (parallel
    work unit; everything it needs arrives in the picklable payload)."""
    dataset, train_days, seed, mean_interarrival, mean_runtime = payload
    comparison = run_scheduling_experiment(
        dataset,
        train_days=train_days,
        seed=seed,
        mean_interarrival=mean_interarrival,
        mean_runtime=mean_runtime,
    )
    return comparison.results


def replicate_scheduling_experiment(
    dataset: TraceDataset,
    *,
    train_days: int,
    seeds: Sequence[int] = (7, 8, 9, 10, 11),
    mean_interarrival: float = 2.5 * HOUR,
    mean_runtime: float = 2 * HOUR,
    jobs: int = 1,
    faults: Optional[FaultContext] = None,
) -> ReplicatedComparison:
    """The policy comparison over several independent job streams.

    A single job stream's policy ordering can be luck; replication plus
    paired per-seed differences turn "the oracle beats random" into a
    statistical statement.  Replicates are independent (each builds its
    own job stream and policies from its seed), so ``jobs > 1`` fans them
    out over worker processes with results identical to the serial run.
    """
    from ..parallel.backend import get_backend

    if len(seeds) < 2:
        raise ConfigError("need at least two seeds to form intervals")
    per_policy: dict[str, dict[str, list[float]]] = {}
    with span("schedule.replicate"):
        per_seed = get_backend(jobs).map(
            _replicate_one,
            [
                (dataset, train_days, seed, mean_interarrival, mean_runtime)
                for seed in seeds
            ],
            faults=faults,
        )
    for results in per_seed:
        for r in results:
            slot = per_policy.setdefault(r.policy, {"resp": [], "kills": []})
            slot["resp"].append(r.mean_response_h)
            slot["kills"].append(float(r.total_failures))
    return ReplicatedComparison(
        seeds=tuple(seeds),
        raw={
            policy: {k: tuple(v) for k, v in slot.items()}
            for policy, slot in per_policy.items()
        },
    )


class _ShiftedPredictor:
    """Adapter translating test-slice day indices to absolute ones so a
    predictor fitted on the training prefix sees consistent day types."""

    def __init__(self, inner, day_offset: int) -> None:
        self._inner = inner
        self._offset = day_offset

    @property
    def name(self) -> str:
        return self._inner.name

    def predict_survival(self, query):
        from ..prediction.base import PredictionQuery

        shifted = PredictionQuery(
            machine_id=query.machine_id,
            day=query.day + self._offset,
            start_hour=query.start_hour,
            duration_hours=query.duration_hours,
        )
        return self._inner.predict_survival(shifted)

    def predict_count(self, query):
        from ..prediction.base import PredictionQuery

        shifted = PredictionQuery(
            machine_id=query.machine_id,
            day=query.day + self._offset,
            start_hour=query.start_hour,
            duration_hours=query.duration_hours,
        )
        return self._inner.predict_count(shifted)

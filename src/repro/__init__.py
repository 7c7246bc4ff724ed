"""repro — reproduction of Ren & Eigenmann, "Empirical Studies on the
Behavior of Resource Availability in Fine-Grained Cycle Sharing Systems"
(ICPP 2006).

Quick tour
----------
>>> from repro import FgcsConfig, generate_dataset, cause_breakdown
>>> # (a small testbed for the doctest; the paper's is 20 machines x 92 days)
>>> import dataclasses
>>> from repro.config import TestbedConfig
>>> from repro.units import DAY
>>> cfg = FgcsConfig(testbed=TestbedConfig(n_machines=2, duration=3 * DAY))
>>> ds = generate_dataset(cfg)
>>> breakdown = cause_breakdown(ds)
>>> breakdown.totals.shape
(2,)

See README.md for the full tour and DESIGN.md for the system inventory.
"""

from ._lazy import attach as _attach

#: Public name -> the module that defines it.  Names resolve on first
#: access (PEP 562), so ``import repro.serve`` or ``import repro.cli``
#: does not load the generator, the simulation stack or scipy.
_EXPORTS = {
    "__version__": "._version",
    "cause_breakdown": ".analysis",
    "check_paper_landmarks": ".analysis",
    "daily_pattern": ".analysis",
    "interval_distribution": ".analysis",
    "DEFAULT_CONFIG": ".config",
    "FgcsConfig": ".config",
    "LabWorkloadConfig": ".config",
    "MemoryConfig": ".config",
    "MonitorConfig": ".config",
    "SchedulerConfig": ".config",
    "TestbedConfig": ".config",
    "ThresholdConfig": ".config",
    "calibrate_thresholds": ".contention",
    "measure_contention": ".contention",
    "AvailState": ".core",
    "AvailabilityInterval": ".core",
    "BatchDetector": ".core",
    "MonitorSample": ".core",
    "MultiStateModel": ".core",
    "SampleBatch": ".core",
    "UnavailabilityDetector": ".core",
    "UnavailabilityEvent": ".core",
    "availability_intervals": ".core",
    "detect_events": ".core",
    "run_testbed": ".fgcs",
    "HistoryWindowPredictor": ".prediction",
    "evaluate_predictors": ".prediction",
    "run_scheduling_experiment": ".scheduling",
    "TraceDataset": ".traces",
    "generate_dataset": ".traces",
    "load_dataset": ".traces",
    "save_dataset": ".traces",
}

__getattr__, __dir__, __all__ = _attach(globals(), _EXPORTS)

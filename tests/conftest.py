"""Shared fixtures for the test suite.

Heavy artifacts (generated traces, contention sweeps) are session-scoped so
the suite builds each once.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.config import FgcsConfig, TestbedConfig
from repro.traces.generate import generate_dataset
from repro.units import DAY


def pytest_addoption(parser):
    parser.addoption(
        "--update-goldens",
        action="store_true",
        default=False,
        help="rewrite the golden figure/table fixtures under tests/goldens/ "
        "from the current code instead of diffing against them",
    )


@pytest.fixture(scope="session")
def update_goldens(request) -> bool:
    """True when the run should rewrite goldens instead of checking them."""
    return request.config.getoption("--update-goldens")


@pytest.fixture(scope="session")
def small_config() -> FgcsConfig:
    """A 4-machine, 21-day testbed: fast but long enough for statistics."""
    return dataclasses.replace(
        FgcsConfig(),
        testbed=TestbedConfig(n_machines=4, duration=21 * DAY),
        seed=42,
    )


@pytest.fixture(scope="session")
def small_dataset(small_config):
    """Generated trace for the small testbed (session-cached)."""
    return generate_dataset(small_config)


@pytest.fixture(scope="session")
def medium_dataset():
    """A 6-machine, 42-day trace for prediction/scheduling tests."""
    cfg = dataclasses.replace(
        FgcsConfig(),
        testbed=TestbedConfig(n_machines=6, duration=42 * DAY),
        seed=7,
    )
    return generate_dataset(cfg)


@pytest.fixture(scope="session")
def reference_stdout():
    """``analyze``'s stdout for a dataset, from the per-event reference.

    ``cause_breakdown``, ``interval_distribution`` and ``daily_pattern``
    rendered through the shared Section 5 text builder, plus the
    ``check_paper_landmarks`` lines when ``check`` is set: the text the
    column fold must print byte for byte.
    """
    from repro.analysis import (
        cause_breakdown,
        check_paper_landmarks,
        daily_pattern,
        interval_distribution,
    )
    from repro.analysis.report import render_section5_text

    def render(dataset, *, check: bool = False) -> str:
        text = render_section5_text(
            cause_breakdown(dataset),
            interval_distribution(dataset),
            daily_pattern(dataset),
            span=dataset.span,
            start_weekday=dataset.start_weekday,
        )
        lines = [text]
        if check:
            lines += ["", *map(str, check_paper_landmarks(dataset))]
        return "\n".join(lines) + "\n"

    return render


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(123)

"""The generator's AR(1) filter against ``scipy.signal.lfilter``.

:func:`repro.workloads.iir.ar1_filter` calls scipy's compiled
``_linear_filter`` kernel without importing ``scipy.signal``.  These
tests hold it to ``lfilter`` bit for bit on the shapes the load model
passes, pin that the fast path is the one the installed scipy takes,
and check that the fallback generates the same fleet.
"""

import dataclasses

import numpy as np
import pytest
import scipy
import scipy.signal

from repro.config import FgcsConfig, TestbedConfig
from repro.traces.generate import generate_dataset_columns
from repro.units import DAY
from repro.workloads import iir
from repro.workloads.iir import ar1_filter

_PERIOD = FgcsConfig().monitor.period
#: The baseline load, baseline memory and episode wobble correlation
#: times of the load model, then the extremes of a stable filter.
RHOS = [
    float(np.exp(-_PERIOD / (10 * 60.0))),
    float(np.exp(-_PERIOD / (30 * 60.0))),
    float(np.exp(-_PERIOD / (5 * 60.0))),
    1e-9,
    1.0 - 1e-9,
]


def _padded_rows(rng, lengths):
    """Innovation rows as ``_plant_episodes`` builds them: windows of one
    flat draw, gathered by fancy indexing, each row padded past its own
    length with whatever follows it (zeros after the last row)."""
    k = np.array(lengths)
    ends = np.cumsum(k + 1)
    off = ends - (k + 1)
    width = int(k.max())
    z = np.empty(int(ends[-1]) + width)
    z[: ends[-1]] = rng.standard_normal(int(ends[-1]))
    z[ends[-1]:] = 0.0
    windows = np.lib.stride_tricks.sliding_window_view(z, width)
    eps = windows[off, :width]
    eps[:, 0] = z[off + k]
    return eps


def _all_shapes():
    rng = np.random.default_rng(11)
    for n in (1, 2, 3, 1000):
        yield f"1d-{n}", rng.standard_normal(n)
    yield "1d-view", rng.standard_normal(501)[:-1]
    yield "2d-one-row", _padded_rows(rng, [7])
    yield "2d-width-1", _padded_rows(rng, [1, 1, 1])
    yield "2d-width-2", _padded_rows(rng, [1, 2, 2])
    yield "2d-mixed", _padded_rows(rng, [33, 40, 64, 35, 61])


SHAPES = list(_all_shapes())


@pytest.mark.parametrize("rho", RHOS)
@pytest.mark.parametrize("x", [x for _, x in SHAPES], ids=[n for n, _ in SHAPES])
def test_matches_lfilter_bit_for_bit(rho, x):
    got = ar1_filter(rho, x)
    want = scipy.signal.lfilter([1.0], [1.0, -rho], x, axis=-1)
    assert got.dtype == want.dtype == np.float64
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_input_left_untouched():
    x = np.random.default_rng(5).standard_normal(64)
    before = x.copy()
    ar1_filter(RHOS[0], x)
    assert x.tobytes() == before.tobytes()


def test_fast_path_active_on_installed_scipy():
    # A scipy that moved or renamed the private kernel lands here instead
    # of silently paying the whole scipy.signal import in every
    # generating process.
    assert iir._KERNEL is not None, (
        f"scipy {scipy.__version__}: scipy.signal._sigtools._linear_filter "
        "could not be loaded; ar1_filter is on its lfilter fallback"
    )


def test_fallback_generates_the_same_fleet(monkeypatch):
    config = dataclasses.replace(
        FgcsConfig(),
        testbed=TestbedConfig(n_machines=3, duration=7 * DAY),
        seed=42,
    )
    fast = generate_dataset_columns(config)
    monkeypatch.setattr(iir, "_KERNEL", None)
    slow = generate_dataset_columns(config)
    assert len(fast) > 0
    assert fast.events.tobytes() == slow.events.tobytes()
    assert fast.hourly_load.tobytes() == slow.hourly_load.tobytes()


@pytest.mark.parametrize("path", ["kernel", "fallback"])
@pytest.mark.parametrize("rho", RHOS)
def test_carried_state_matches_one_call(monkeypatch, path, rho):
    # The load model filters each baseline series a chunk at a time,
    # passing each piece's final state on to the next.
    if path == "fallback":
        monkeypatch.setattr(iir, "_KERNEL", None)
    rng = np.random.default_rng(17)
    for n in (1, 3, 101, 4097):
        x = rng.standard_normal(n)
        whole = ar1_filter(rho, x)
        for _ in range(4):
            cuts = sorted({0, n, *rng.integers(0, n + 1, size=3).tolist()})
            zi = np.zeros(1)
            pieces = []
            for lo, hi in zip(cuts[:-1], cuts[1:]):
                y, zi = ar1_filter(rho, x[lo:hi], zi)
                pieces.append(y)
            assert np.concatenate(pieces).tobytes() == whole.tobytes(), cuts

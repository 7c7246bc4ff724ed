"""Fluid host-load signal synthesis for the long trace study.

Turns an :class:`~repro.workloads.labuser.EpisodePlanner` plan into the
monitor-sample stream a machine's resource monitor would record: a noisy
diurnal baseline host load, overload plateaus during CPU episodes, memory
exhaustion during memory episodes, and service silence during URR.  The
downstream detector (:mod:`repro.core.detector`) re-discovers the planted
episodes from the samples alone, mirroring the paper's methodology where
thresholds calibrated offline are applied to monitor data.

Everything is vectorized NumPy over the machine's full sample grid
(~800 k samples for 92 days at 10 s), so generating the 20-machine
testbed takes seconds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.signal

from ..config import FgcsConfig
from ..core.model import DEFAULT_GUEST_WORKING_SET_MB
from ..core.samples import SampleBatch
from ..errors import ConfigError
from ..rng import RngFactory
from ..units import DAY, HOUR
from .labuser import ActivityProfile, EpisodeKind, EpisodePlanner, PlannedEpisode

__all__ = [
    "MachineTrace",
    "MachineTraceGenerator",
    "SynthContext",
    "hourly_mean_load_columns",
    "synth_context",
    "synthesize_samples",
    "synthesize_samples_columns",
]

#: Host load is kept this far above Th2 during overload plateaus so sample
#: noise can never split a planted episode in two.
_OVERLOAD_MARGIN: float = 0.06
#: Baseline host load stays this far below Th2 so noise never fakes an S3.
_BASELINE_MARGIN: float = 0.05


@dataclass(frozen=True)
class MachineTrace:
    """One machine's generated trace: the plan and the monitor samples."""

    machine_id: int
    episodes: tuple[PlannedEpisode, ...]
    samples: SampleBatch
    span: float


def _ar1(n: int, rng: np.random.Generator, *, corr_time: float, step: float) -> np.ndarray:
    """A unit-variance AR(1) series with the given correlation time."""
    rho = float(np.exp(-step / corr_time))
    eps = rng.standard_normal(n) * np.sqrt(1.0 - rho * rho)
    # Warm start from the stationary distribution.
    eps[0] = rng.standard_normal()
    return scipy.signal.lfilter([1.0], [1.0, -rho], eps)


def synthesize_samples(
    episodes: list[PlannedEpisode],
    *,
    config: FgcsConfig,
    profile: ActivityProfile,
    rng: np.random.Generator,
    span: Optional[float] = None,
) -> SampleBatch:
    """Monitor samples for one machine over the whole span.

    The baseline load follows the lab's diurnal intensity with AR(1)
    variation, clipped safely below Th2; planted episodes override it.
    """
    span = config.testbed.duration if span is None else span
    period = config.monitor.period
    if period <= 0:
        raise ConfigError("monitor period must be positive")
    n = int(span / period)
    times = (np.arange(n) + 1) * period  # first sample one period in

    lab = config.lab
    th2 = config.thresholds.th2

    # --- baseline host load -------------------------------------------------
    intensity = profile.intensity(times)
    smooth = _ar1(n, rng, corr_time=10 * 60.0, step=period)
    # Logistic squash keeps the modulation in (0, 1) with mean ~0.5.
    usage_level = 1.0 / (1.0 + np.exp(-smooth))
    load = lab.light_load_mean + 2.0 * (
        lab.moderate_load_mean - lab.light_load_mean
    ) * intensity * usage_level
    np.clip(load, 0.0, th2 - _BASELINE_MARGIN, out=load)

    # --- baseline memory ----------------------------------------------------
    avail = config.testbed.machine_memory_mb - config.testbed.machine_kernel_mb
    mem_noise = _ar1(n, rng, corr_time=30 * 60.0, step=period)
    resident = 250.0 + 120.0 * intensity * (1.0 / (1.0 + np.exp(-mem_noise)))
    free = avail - resident

    up = np.ones(n, dtype=bool)

    # --- planted episodes ----------------------------------------------------
    guest_ws = DEFAULT_GUEST_WORKING_SET_MB
    for ep in episodes:
        i0 = int(np.searchsorted(times, ep.start, side="left"))
        i1 = int(np.searchsorted(times, ep.end, side="left"))
        if i1 <= i0:
            continue
        k = i1 - i0
        if ep.kind in (EpisodeKind.CPU, EpisodeKind.UPDATEDB, EpisodeKind.TRANSIENT):
            level = (
                lab.updatedb_load
                if ep.kind is EpisodeKind.UPDATEDB
                else 0.80
            )
            wobble = 0.08 * np.tanh(_ar1(k, rng, corr_time=5 * 60.0, step=period))
            seg = np.clip(level + wobble, th2 + _OVERLOAD_MARGIN, 1.0)
            load[i0:i1] = seg
        elif ep.kind is EpisodeKind.MEMORY:
            # A big compile/simulation: memory exhausted, CPU moderate.
            free[i0:i1] = rng.uniform(15.0, guest_ws - 25.0, size=k)
            load[i0:i1] = np.clip(
                0.40 + 0.10 * np.tanh(_ar1(k, rng, corr_time=5 * 60.0, step=period)),
                0.05,
                th2 - _BASELINE_MARGIN,
            )
        elif ep.kind.is_urr:
            up[i0:i1] = False

    # --- observation noise -----------------------------------------------------
    if config.monitor.noise_std > 0:
        noise = rng.normal(1.0, config.monitor.noise_std, size=n)
        load = load * noise
        # Noise must not push baseline over Th2 or overloads under it.
        over = load >= th2
        np.clip(load, 0.0, 1.0, out=load)
        load[over] = np.maximum(load[over], th2 + _OVERLOAD_MARGIN / 2)
        load[~over] = np.minimum(load[~over], th2 - _BASELINE_MARGIN / 2)

    return SampleBatch(times, load, free, up)


def _ar1_drawn(rng: np.random.Generator, buf: np.ndarray, rho: float) -> np.ndarray:
    """:func:`_ar1` over ``len(buf) - 1`` samples, drawn into ``buf``.

    One ``standard_normal`` call fills ``buf`` with the same stream values
    as legacy ``_ar1``'s two calls: the body, then the warm start.  The
    innovations are scaled in place, so the only new array is the filter
    output, bit-identical to the per-call version.
    """
    rng.standard_normal(out=buf)
    eps = buf[:-1]
    eps *= np.sqrt(1.0 - rho * rho)
    eps[0] = buf[-1]
    return scipy.signal.lfilter([1.0], [1.0, -rho], eps)


def _logistic_inplace(x: np.ndarray) -> np.ndarray:
    """``1.0 / (1.0 + np.exp(-x))``, computed in ``x``'s own buffer."""
    np.negative(x, out=x)
    np.exp(x, out=x)
    x += 1.0
    return np.divide(1.0, x, out=x)


#: Samples per chunk when :class:`SynthContext` evaluates the intensity.
_CTX_CHUNK = 1 << 16


class SynthContext:
    """Machine-invariant precomputation shared across a fleet's synthesis.

    Everything here depends only on ``(config.lab, config.testbed,
    config.monitor.period)`` — the sample grid, the load/memory modulation
    amplitudes of the diurnal intensity and the hour-of-sample index are
    identical for every machine, so the columnar path computes them once
    per config instead of once per machine.  The arrays are marked
    read-only; per-machine state (AR(1) series, episode overrides) is
    always written into fresh buffers.
    """

    __slots__ = (
        "period",
        "span",
        "n",
        "times",
        "profile",
        "load_amp",
        "mem_amp",
        "avail",
        "n_hours",
        "hour_idx",
        "hour_counts",
    )

    def __init__(self, config: FgcsConfig) -> None:
        period = config.monitor.period
        if period <= 0:
            raise ConfigError("monitor period must be positive")
        span = config.testbed.duration
        lab = config.lab
        self.period = period
        self.span = span
        self.n = int(span / period)
        self.times = (np.arange(self.n) + 1) * period
        self.profile = ActivityProfile(lab, config.testbed)
        self.n_hours = int(span // HOUR)
        # (times // HOUR).astype(int64), cast element by element into the
        # index array rather than through a float temporary.
        self.hour_idx = np.floor_divide(
            self.times, HOUR, out=np.empty(self.n, dtype=np.int64), casting="unsafe"
        )
        np.minimum(self.hour_idx, self.n_hours - 1, out=self.hour_idx)
        self.hour_counts = (
            np.bincount(self.hour_idx, minlength=self.n_hours)
            if self.n_hours
            else np.zeros(0, dtype=np.int64)  # a sub-hour span has no hours
        )
        # Same association order as the legacy expressions in
        # synthesize_samples: ((2.0 * (mod - light)) * intensity) and
        # (120.0 * intensity), so the remaining per-machine multiplies
        # produce bit-identical floats.  The intensity is elementwise in
        # time, so it is evaluated a chunk at a time: its half-dozen
        # temporaries never span the whole grid, and nothing keeps it.
        load_scale = 2.0 * (lab.moderate_load_mean - lab.light_load_mean)
        self.load_amp = np.empty(self.n)
        self.mem_amp = np.empty(self.n)
        for lo in range(0, self.n, _CTX_CHUNK):
            hi = min(lo + _CTX_CHUNK, self.n)
            intensity = self.profile.intensity(self.times[lo:hi])
            np.multiply(load_scale, intensity, out=self.load_amp[lo:hi])
            np.multiply(120.0, intensity, out=self.mem_amp[lo:hi])
        self.avail = config.testbed.machine_memory_mb - config.testbed.machine_kernel_mb
        for name in ("times", "load_amp", "mem_amp", "hour_idx", "hour_counts"):
            getattr(self, name).setflags(write=False)


_CTX_CACHE: dict = {}
_CTX_CACHE_MAX = 8


def synth_context(config: FgcsConfig) -> SynthContext:
    """The (memoized) :class:`SynthContext` for a config."""
    key = (config.lab, config.testbed, config.monitor.period)
    ctx = _CTX_CACHE.get(key)
    if ctx is None:
        if len(_CTX_CACHE) >= _CTX_CACHE_MAX:
            _CTX_CACHE.clear()
        ctx = SynthContext(config)
        _CTX_CACHE[key] = ctx
    return ctx


#: Row of :func:`_plant_episodes`' parameter table for each kind that
#: overrides the load signal (URR episodes only take the machine down).
_SIGNAL_ROW = {
    EpisodeKind.CPU: 0,
    EpisodeKind.TRANSIENT: 0,
    EpisodeKind.UPDATEDB: 1,
    EpisodeKind.MEMORY: 2,
}


def synthesize_samples_columns(
    episodes: list[PlannedEpisode],
    *,
    config: FgcsConfig,
    ctx: SynthContext,
    rng: np.random.Generator,
    counters: Optional[dict] = None,
) -> SampleBatch:
    """Columnar twin of :func:`synthesize_samples` — bit-identical output.

    The machine holds its own three columns and little else.  Each
    baseline AR(1) series is drawn with one ``standard_normal(n + 1)``
    call into a shared innovation buffer (NumPy's generators yield the
    same stream values however the draws are split), then scaled,
    filtered, squashed and clipped in place over the shared
    :class:`SynthContext` amplitudes.  Episodes are planted by
    :func:`_plant_episodes` and the observation noise is clamped with
    whole-array ``maximum``/``minimum`` plus one masked copy, so no
    boolean gather or scatter touches the grid.

    When ``counters`` is given, ``counters["rng.draws.signal"]`` is
    incremented by the number of variates consumed from ``rng``.
    """
    n = ctx.n
    period = ctx.period
    lab = config.lab
    th2 = config.thresholds.th2

    # --- baseline load + memory --------------------------------------------
    # Legacy draw order: SN(n), SN(1) for the load AR(1), then SN(n), SN(1)
    # for the memory AR(1).
    buf = np.empty(n + 1)
    load = _ar1_drawn(rng, buf, float(np.exp(-period / (10 * 60.0))))
    _logistic_inplace(load)
    load *= ctx.load_amp
    load += lab.light_load_mean
    np.clip(load, 0.0, th2 - _BASELINE_MARGIN, out=load)

    free = _ar1_drawn(rng, buf, float(np.exp(-period / (30 * 60.0))))
    del buf  # freed before the noise draw: at most three grid columns live
    _logistic_inplace(free)
    free *= ctx.mem_amp
    free += 250.0  # the resident set
    np.subtract(ctx.avail, free, out=free)
    draws = 2 * (n + 1)

    up = np.ones(n, dtype=bool)
    if episodes:
        draws += _plant_episodes(
            episodes, config=config, ctx=ctx, rng=rng, load=load, free=free, up=up
        )

    # --- observation noise -----------------------------------------------------
    if config.monitor.noise_std > 0:
        noise = rng.normal(1.0, config.monitor.noise_std, size=n)
        draws += n
        load *= noise
        # Noise must not push baseline over Th2 or overloads under it:
        # overloads take max(load, floor), the rest min(load, ceiling).
        over = load >= th2
        np.clip(load, 0.0, 1.0, out=load)
        np.maximum(load, th2 + _OVERLOAD_MARGIN / 2, out=noise)
        np.minimum(load, th2 - _BASELINE_MARGIN / 2, out=load)
        np.copyto(load, noise, where=over)

    # SampleBatch.__init__ clips host load; the trusted path must match it.
    np.clip(load, 0.0, 1.0, out=load)

    if counters is not None:
        counters["rng.draws.signal"] = counters.get("rng.draws.signal", 0) + draws
    return SampleBatch.from_validated(ctx.times, load, free, up)


def _plant_episodes(
    episodes: list[PlannedEpisode],
    *,
    config: FgcsConfig,
    ctx: SynthContext,
    rng: np.random.Generator,
    load: np.ndarray,
    free: np.ndarray,
    up: np.ndarray,
) -> int:
    """Write a machine's planned episodes into its columns.

    Returns the number of variates drawn from ``rng``.  Draws follow the
    legacy order: each overload (CPU/UPDATEDB/TRANSIENT) episode takes
    SN(k) + SN(1) for its wobble, a MEMORY episode takes U(k) for its
    free memory and then SN(k) + SN(1); URR episodes and windows that
    round to zero samples draw nothing.  So the normals form runs broken
    only by the uniforms, each run one call into a flat innovation array.

    Every episode's AR(1) wobble is then filtered at once: episodes are
    grouped by the bit length of their sample count, padded to the
    group's longest, and filtered along rows of one 2-D ``lfilter``
    call.  The filter is causal, so whatever follows a row's end cannot
    reach back into it, and row-wise filtering is bit-identical to the
    legacy per-episode calls.  Planned episodes never overlap, so each
    group lands in ``load`` with one scatter.
    """
    lab = config.lab
    th2 = config.thresholds.th2
    times = ctx.times
    i0s = np.searchsorted(times, [ep.start for ep in episodes], side="left")
    i1s = np.searchsorted(times, [ep.end for ep in episodes], side="left")
    # (level, scale, floor, ceiling) of level + scale * tanh(ar1), indexed
    # by _SIGNAL_ROW.
    overload = (0.80, 0.08, th2 + _OVERLOAD_MARGIN, 1.0)
    params = np.array(
        [
            overload,
            (lab.updatedb_load,) + overload[1:],
            (0.40, 0.10, 0.05, th2 - _BASELINE_MARGIN),
        ]
    )
    row_i0: list[int] = []
    row_k: list[int] = []
    row_kind: list[int] = []
    last_end = 0
    for ep, i0, i1 in zip(episodes, i0s.tolist(), i1s.tolist()):
        if i1 <= i0:
            continue
        if i0 < last_end:
            raise ConfigError("planned episodes must be time-ordered and disjoint")
        last_end = i1
        if ep.kind.is_urr:
            up[i0:i1] = False
            continue
        row_i0.append(i0)
        row_k.append(i1 - i0)
        row_kind.append(_SIGNAL_ROW[ep.kind])
    if not row_k:
        return 0

    i0 = np.array(row_i0)
    k = np.array(row_k)
    kind = np.array(row_kind)
    ends = np.cumsum(k + 1)
    off = ends - (k + 1)  # where each row's k + 1 normals start
    total = int(ends[-1])
    width = int(k.max())
    z = np.empty(total + width)
    z[total:] = 0.0  # the padding read past the last row
    draws = total
    pos = 0
    guest_ws = DEFAULT_GUEST_WORKING_SET_MB
    for r in np.flatnonzero(kind == _SIGNAL_ROW[EpisodeKind.MEMORY]).tolist():
        if off[r] > pos:
            rng.standard_normal(out=z[pos : off[r]])
        lo = row_i0[r]
        free[lo : lo + row_k[r]] = rng.uniform(15.0, guest_ws - 25.0, size=row_k[r])
        draws += row_k[r]
        pos = off[r]
    if total > pos:
        rng.standard_normal(out=z[pos:total])

    rho = float(np.exp(-ctx.period / (5 * 60.0)))
    scale = np.sqrt(1.0 - rho * rho)
    windows = np.lib.stride_tricks.sliding_window_view(z, width)
    bits = np.frexp(k - 1)[1]
    for b in np.unique(bits).tolist():
        sel = np.flatnonzero(bits == b)
        k_sel = k[sel]
        w = int(k_sel.max())
        eps = windows[off[sel], :w]  # a copy: fancy indexing
        eps *= scale
        eps[:, 0] = z[off[sel] + k_sel]  # the warm start, drawn last
        wobble = scipy.signal.lfilter([1.0], [1.0, -rho], eps, axis=1)
        level, amp, floor, ceiling = params[kind[sel]].T[:, :, None]
        np.tanh(wobble, out=wobble)
        wobble *= amp
        wobble += level
        np.clip(wobble, floor, ceiling, out=wobble)
        cols = np.arange(w)
        valid = cols < k_sel[:, None]
        load[(i0[sel, None] + cols)[valid]] = wobble[valid]
    return draws


def hourly_mean_load_columns(samples: SampleBatch, ctx: SynthContext) -> np.ndarray:
    """:meth:`MachineTraceGenerator.hourly_mean_load` on a columnar batch,
    reusing the context's precomputed hour indices and per-hour counts.

    Down samples enter the per-hour sums as ``+0.0`` rather than being
    gathered out: a ``bincount`` sum starts at ``+0.0`` and so is never
    ``-0.0``, and adding ``+0.0`` to any other float returns it unchanged,
    so the sums are bit-identical to summing the up samples alone.
    """
    up = samples.machine_up
    weights = np.where(up, samples.host_load, 0.0)
    sums = np.bincount(ctx.hour_idx, weights=weights, minlength=ctx.n_hours)
    down_idx = ctx.hour_idx[~up]
    counts = ctx.hour_counts - np.bincount(down_idx, minlength=ctx.n_hours)
    with np.errstate(invalid="ignore"):
        return np.where(counts > 0, sums / np.maximum(counts, 1), np.nan)


class MachineTraceGenerator:
    """Generates per-machine traces for the simulated iShare testbed.

    Deterministic per ``(config.seed, machine_id)``: each machine draws
    from its own spawned random stream.

    Examples
    --------
    >>> from repro.config import FgcsConfig, TestbedConfig
    >>> cfg = FgcsConfig(testbed=TestbedConfig(n_machines=2, duration=2 * DAY))
    >>> gen = MachineTraceGenerator(cfg)
    >>> trace = gen.generate(0)
    >>> len(trace.samples) > 0
    True
    """

    def __init__(self, config: Optional[FgcsConfig] = None) -> None:
        self.config = config or FgcsConfig()
        self.profile = ActivityProfile(self.config.lab, self.config.testbed)
        self._rng_factory = RngFactory(self.config.seed)

    def busyness(self, machine_id: int) -> float:
        """The machine's fixed busyness factor (how popular its desk is)."""
        rng = self._rng_factory.generator("busyness", machine_id)
        return float(rng.uniform(0.86, 1.04))

    def plan(self, machine_id: int) -> list[PlannedEpisode]:
        """The episode plan for one machine (ground truth)."""
        rng = self._rng_factory.generator("plan", machine_id)
        return EpisodePlanner(
            self.profile, rng, busyness=self.busyness(machine_id)
        ).plan()

    def generate(self, machine_id: int) -> MachineTrace:
        """Plan episodes and synthesize the machine's monitor samples."""
        if not 0 <= machine_id < self.config.testbed.n_machines:
            raise ConfigError(
                f"machine_id {machine_id} outside testbed of "
                f"{self.config.testbed.n_machines}"
            )
        episodes = self.plan(machine_id)
        rng = self._rng_factory.generator("signal", machine_id)
        samples = synthesize_samples(
            episodes, config=self.config, profile=self.profile, rng=rng
        )
        return MachineTrace(
            machine_id=machine_id,
            episodes=tuple(episodes),
            samples=samples,
            span=self.config.testbed.duration,
        )

    def hourly_mean_load(self, trace: MachineTrace) -> np.ndarray:
        """Mean host load per wall-clock hour of the trace (NaN when the
        machine was down the whole hour) — a compact signal kept alongside
        events for prediction features."""
        n_hours = int(trace.span // HOUR)
        idx = np.minimum((trace.samples.times // HOUR).astype(np.int64), n_hours - 1)
        up = trace.samples.machine_up
        sums = np.bincount(
            idx[up], weights=trace.samples.host_load[up], minlength=n_hours
        )
        counts = np.bincount(idx[up], minlength=n_hours)
        with np.errstate(invalid="ignore"):
            return np.where(counts > 0, sums / np.maximum(counts, 1), np.nan)

"""Deterministic random-stream management.

Every stochastic component in the library draws from a
:class:`numpy.random.Generator` obtained through :class:`RngFactory`, which
spawns independent child streams from a single root :class:`~numpy.random.SeedSequence`.
Two runs with the same root seed therefore produce bit-identical results,
and components never share a stream (so adding a new component does not
perturb the draws of existing ones).
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

__all__ = ["CountingRng", "RngFactory", "generator_from"]


def _hash_key(key: str) -> int:
    """Stable 64-bit hash of a string key (Python's ``hash`` is salted)."""
    h = 14695981039346656037  # FNV-1a offset basis
    for byte in key.encode("utf-8"):
        h ^= byte
        h = (h * 1099511628211) & 0xFFFFFFFFFFFFFFFF
    return h


class RngFactory:
    """Spawns named, independent random generators from one root seed.

    Examples
    --------
    >>> f = RngFactory(seed=42)
    >>> g1 = f.generator("machine", 0)
    >>> g2 = f.generator("machine", 1)
    >>> g1 is not g2
    True

    Asking twice for the same key returns a generator with the same stream
    (but a fresh state), which keeps component draws reproducible regardless
    of creation order.
    """

    def __init__(self, seed: int = 0) -> None:
        self._seed = int(seed)

    @property
    def seed(self) -> int:
        """The root seed this factory was constructed with."""
        return self._seed

    def generator(self, *key: object) -> np.random.Generator:
        """A fresh :class:`numpy.random.Generator` for the given key tuple.

        The key may mix strings and integers; e.g.
        ``factory.generator("labuser", machine_id, day)``.
        """
        entropy: list[int] = [self._seed]
        for part in key:
            if isinstance(part, str):
                entropy.append(_hash_key(part))
            elif isinstance(part, (int, np.integer)):
                entropy.append(int(part) & 0xFFFFFFFFFFFFFFFF)
            else:
                raise TypeError(f"rng key parts must be str or int, got {part!r}")
        return np.random.default_rng(np.random.SeedSequence(entropy))

    def child(self, *key: object) -> "RngFactory":
        """A derived factory whose streams are independent of this one's."""
        entropy = [self._seed] + [
            _hash_key(p) if isinstance(p, str) else int(p) for p in key
        ]
        mixed = np.random.SeedSequence(entropy).generate_state(1)[0]
        return RngFactory(int(mixed))


class CountingRng:
    """A transparent proxy around a generator that counts variates drawn.

    Forwards every attribute to the wrapped :class:`numpy.random.Generator`
    unchanged — the stream of values is bit-identical with or without the
    proxy — and tallies how many variates each call produced (an array
    draw counts its size, a scalar draw counts one).  The trace pipeline
    wraps its per-machine streams with this when telemetry is enabled and
    reports the totals as ``rng.draws.<stream>`` counters.  Each method's
    counting wrapper is built on its first lookup and stored on the
    instance, so later lookups find it without calling ``__getattr__``.
    """

    __slots__ = ("_rng", "draws", "__dict__")

    def __init__(self, rng: np.random.Generator) -> None:
        self._rng = rng
        self.draws = 0

    def __getattr__(self, name: str):
        attr = getattr(self._rng, name)
        if not callable(attr):
            return attr

        def counted(*args, **kwargs):
            out = attr(*args, **kwargs)
            size = getattr(out, "size", None)
            self.draws += int(size) if size is not None else 1
            return out

        setattr(self, name, counted)
        return counted


def generator_from(
    seed_or_rng: int | np.random.Generator | None,
) -> np.random.Generator:
    """Coerce an int seed, an existing generator, or ``None`` to a generator."""
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    return np.random.default_rng(seed_or_rng)


def spawn_streams(seed: int, n: int) -> list[np.random.Generator]:
    """``n`` independent generators derived from ``seed`` (for worker pools)."""
    seq = np.random.SeedSequence(seed)
    return [np.random.default_rng(s) for s in seq.spawn(n)]


def interleave_choice(
    rng: np.random.Generator, options: Iterable[object], weights: Iterable[float]
) -> object:
    """Weighted choice over arbitrary Python objects.

    ``numpy.random.Generator.choice`` coerces object arrays awkwardly; this
    helper keeps the options untouched.
    """
    opts = list(options)
    w = np.asarray(list(weights), dtype=float)
    if len(opts) != w.size:
        raise ValueError("options and weights must have equal length")
    if not np.all(w >= 0) or w.sum() <= 0:
        raise ValueError("weights must be non-negative and sum to > 0")
    idx = rng.choice(len(opts), p=w / w.sum())
    return opts[idx]

"""Content-addressed on-disk cache for generated trace datasets.

The cache key is a SHA-256 fingerprint over (a) a canonical JSON encoding
of the frozen config dataclass tree, (b) the trace-file schema version
(:data:`repro.traces.io.SCHEMA_VERSION`), and (c) a generator code-schema
version (:data:`CODE_SCHEMA_VERSION`, bumped whenever the generation
semantics change so stale entries can never be served).  Execution
settings (``FgcsConfig.execution``) are excluded: worker count, cache
location, and fault handling never change what is generated.

Entries are event-column units stored through :mod:`repro.traces.io`
in the binary ``fgcs-bin`` format since cache schema v2
(:data:`CACHE_SCHEMA_VERSION`) — the cache is pure machine-to-machine
traffic, so the zero-copy format's decode speed matters and JSONL's
greppability does not.  Writes are atomic (temp file + rename) so a
crashed run can leave at worst a stale temp file, never a truncated
entry.  Corrupted or unreadable entries are treated as misses
and removed (with a logged warning), falling back to regeneration; the
eviction re-checks that the file it is about to delete is still the one
it failed to read, so a concurrent writer's freshly replaced (good) entry
is never evicted.  A failed write (disk full, permissions) degrades to a
logged warning — the pipeline continues uncached rather than aborting.
Cache traffic is counted on the ambient metrics registry (``cache.hit`` /
``cache.miss`` / ``cache.corrupt_evicted`` / ``cache.write`` /
``cache.write_failed``) so run manifests show where the traffic went.

A :class:`repro.faults.FaultPlan` can be attached for chaos testing: the
``cache.read_corrupt`` site forces the eviction/regeneration path and
``cache.write_fail`` simulates an unwritable store, exercising exactly
the degradations above.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import logging
import os
from pathlib import Path
from typing import Optional, Union

from ..errors import TraceError
from ..faults.plan import (
    SITE_CACHE_READ_CORRUPT,
    SITE_CACHE_WRITE_FAIL,
    FaultPlan,
)
from ..obs.metrics import get_registry
from ..traces.io import SCHEMA_VERSION, load_columns, save_columns
from ..traces.records import EventColumns

logger = logging.getLogger(__name__)

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "CODE_SCHEMA_VERSION",
    "DatasetCache",
    "config_fingerprint",
    "dataset_cache_key",
]

#: Version of the *generation code* semantics.  Bump whenever the trace
#: generator, detector, or workload planner changes its output for an
#: unchanged config, so previously cached datasets are invalidated.
CODE_SCHEMA_VERSION = 1

#: Version of the cache's on-disk layout.  v1 stored ``<key>.jsonl``;
#: v2 stores ``<key>.bin`` in the binary trace format and never reads a
#: v1 entry.
CACHE_SCHEMA_VERSION = 2

#: Dataclass fields excluded from fingerprints, per dataclass type name.
#: Execution settings affect wall-clock only, never results.
_EXCLUDED_FIELDS: dict[str, frozenset[str]] = {
    "FgcsConfig": frozenset({"execution"}),
}


def _canonical(obj: object) -> object:
    """A JSON-encodable canonical form of a (nested) config value."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        skip = _EXCLUDED_FIELDS.get(type(obj).__name__, frozenset())
        return {
            "__type__": type(obj).__name__,
            **{
                f.name: _canonical(getattr(obj, f.name))
                for f in dataclasses.fields(obj)
                if f.name not in skip
            },
        }
    if isinstance(obj, enum.Enum):
        return {"__enum__": type(obj).__name__, "name": obj.name}
    if isinstance(obj, (list, tuple)):
        return [_canonical(x) for x in obj]
    if isinstance(obj, dict):
        return {str(k): _canonical(v) for k, v in sorted(obj.items())}
    if isinstance(obj, float):
        # repr round-trips exactly and distinguishes 1.0 from 1.
        return {"__float__": repr(obj)}
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    raise TypeError(f"cannot fingerprint value of type {type(obj).__name__}")


def config_fingerprint(config: object, *, extra: tuple = ()) -> str:
    """Stable hex fingerprint of a frozen config (plus optional extras).

    Stable across processes and interpreter restarts (no reliance on
    salted ``hash()``), and identical for equal configs regardless of how
    they were constructed.  ``extra`` distinguishes different artifacts
    derived from the same config (e.g. with/without hourly load).
    """
    payload = {
        "schema": {"trace": SCHEMA_VERSION, "code": CODE_SCHEMA_VERSION},
        "config": _canonical(config),
        "extra": [_canonical(x) for x in extra],
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def dataset_cache_key(config: object, *, keep_hourly_load: bool = True) -> str:
    """The cache key for :func:`repro.traces.generate.generate_dataset`."""
    return config_fingerprint(
        config, extra=("trace-dataset", keep_hourly_load)
    )


def _file_identity(path: Path) -> Optional[tuple]:
    """(inode, mtime, size) identity of the file, or ``None`` if gone."""
    try:
        st = path.stat()
    except OSError:
        return None
    return (st.st_ino, st.st_mtime_ns, st.st_size)


class DatasetCache:
    """A directory of cached generated datasets, one binary file per key.

    ``get_columns`` never raises on a bad entry: anything unreadable
    (truncated file, wrong schema, garbage) is removed and reported as a
    miss, so the caller regenerates and overwrites it.  ``put_columns``
    never raises on an unwritable store: the dataset is simply not cached.
    """

    def __init__(
        self,
        cache_dir: Union[str, Path],
        fault_plan: Optional[FaultPlan] = None,
    ) -> None:
        self.cache_dir = Path(cache_dir)
        self.fault_plan = fault_plan

    def path_for(self, key: str) -> Path:
        return self.cache_dir / f"{key}.bin"

    def _injected(self, site: str, key: str) -> bool:
        if self.fault_plan is None:
            return False
        if self.fault_plan.should_inject(site, key) is None:
            return False
        get_registry().inc(f"faults.injected.{site}")
        return True

    def get_columns(self, key: str) -> Optional[EventColumns]:
        """The cached entry for ``key`` as an
        :class:`~repro.traces.records.EventColumns` (hourly load attached),
        or ``None`` on a miss."""
        registry = get_registry()
        path = self.path_for(key)
        # Identity of the entry we are about to read: if the load fails
        # and the file changed in between (a concurrent writer replaced
        # it), the replacement must survive the eviction below.
        identity = _file_identity(path)
        if identity is None:
            registry.inc("cache.miss")
            return None
        try:
            if self._injected(SITE_CACHE_READ_CORRUPT, key):
                raise TraceError(f"injected cache read corruption at {key}")
            columns = load_columns(path, mmap=False)
        except (TraceError, OSError, ValueError, KeyError) as exc:
            # Corrupted/truncated/stale entry: drop it and regenerate.
            registry.inc("cache.corrupt_evicted")
            registry.inc("cache.miss")
            logger.warning(
                "evicting corrupt/unreadable dataset cache entry %s (%s: %s); "
                "regenerating",
                key,
                type(exc).__name__,
                exc,
            )
            if _file_identity(path) == identity:
                try:
                    path.unlink()
                except OSError:
                    pass
            else:
                logger.info(
                    "cache entry %s was concurrently replaced; keeping the "
                    "new entry",
                    key,
                )
            return None
        registry.inc("cache.hit")
        return columns

    def put_columns(self, key: str, columns: EventColumns) -> Optional[Path]:
        """Store an event-column unit under ``key`` atomically; returns
        the path.

        Write failures (real or injected) are survivable: the entry is
        simply not cached, a warning is logged, ``cache.write_failed`` is
        counted, and ``None`` is returned.
        """
        registry = get_registry()
        path = self.path_for(key)
        tmp = path.with_name(f".{path.name}.tmp{os.getpid()}")
        try:
            if self._injected(SITE_CACHE_WRITE_FAIL, key):
                raise OSError(f"injected cache write failure at {key}")
            self.cache_dir.mkdir(parents=True, exist_ok=True)
            # Explicit format: the temp name's suffix would imply jsonl.
            save_columns(columns, tmp, format="binary")
            os.replace(tmp, path)
        except OSError as exc:
            registry.inc("cache.write_failed")
            logger.warning(
                "dataset cache write for %s failed (%s: %s); continuing "
                "without caching",
                key,
                type(exc).__name__,
                exc,
            )
            return None
        finally:
            if tmp.exists():
                try:
                    tmp.unlink()
                except OSError:
                    pass
        registry.inc("cache.write")
        return path

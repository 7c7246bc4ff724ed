"""The shard-store manifest: what a shard directory holds, without NumPy.

A shard store is a directory of per-machine-range trace files plus one
``manifest.json`` (:data:`MANIFEST_NAME`) describing the fleet: its size,
span and start weekday, and per shard the machine range, event count,
file format and SHA-256 content fingerprint.  :class:`ShardManifest`
reads and writes that document and :func:`is_shard_store` recognizes a
store.  Everything here is plain Python, so a process that only needs
the fleet's layout (the ``serve --workers N`` router) reads it without
loading the trace codec or NumPy; :mod:`repro.traces.shards` re-exports
these names beside the readers and writers that open the shard files.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Union

from ..errors import TraceError

__all__ = [
    "MANIFEST_NAME",
    "SHARD_SCHEMA_VERSION",
    "TRACE_FORMATS",
    "ShardInfo",
    "ShardManifest",
    "is_shard_store",
]

#: The lossless trace file formats a shard (or ``save_dataset``) may use.
TRACE_FORMATS = ("jsonl", "binary")

#: Version of the shard layout + manifest document.  Bump when the
#: manifest keys or the shard-file conventions change incompatibly.
#: v2 added the per-shard ``format`` field (``jsonl`` | ``binary``);
#: readers refuse every other version.
SHARD_SCHEMA_VERSION = 2

#: The manifest file name inside a shard directory.
MANIFEST_NAME = "manifest.json"

_KIND = "fgcs-shard-manifest"


def _check_format(fmt: str) -> str:
    if fmt not in TRACE_FORMATS:
        raise TraceError(
            f"unknown shard format {fmt!r} (expected one of {TRACE_FORMATS})"
        )
    return fmt


@dataclass(frozen=True)
class ShardInfo:
    """One shard's entry in the manifest."""

    index: int
    #: File name relative to the manifest's directory.
    path: str
    machine_lo: int
    machine_hi: int
    n_events: int
    #: SHA-256 of the shard file's bytes (verified on read by default).
    sha256: str
    #: Dataset-cache key the shard was generated under, when caching was
    #: configured (provenance only — reads never require the cache).
    cache_key: Optional[str] = None
    #: On-disk trace format of the shard file (``jsonl`` | ``binary``).
    #: Readers sniff magic bytes; the manifest records it for provenance
    #: and for tools that list a store without opening its shards.
    format: str = "jsonl"

    @property
    def n_machines(self) -> int:
        return self.machine_hi - self.machine_lo

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "path": self.path,
            "machine_lo": self.machine_lo,
            "machine_hi": self.machine_hi,
            "n_events": self.n_events,
            "sha256": self.sha256,
            "cache_key": self.cache_key,
            "format": self.format,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ShardInfo":
        return cls(
            index=int(d["index"]),
            path=str(d["path"]),
            machine_lo=int(d["machine_lo"]),
            machine_hi=int(d["machine_hi"]),
            n_events=int(d["n_events"]),
            sha256=str(d["sha256"]),
            cache_key=d.get("cache_key"),
            format=_check_format(str(d["format"])),
        )


@dataclass
class ShardManifest:
    """The fleet-level description of a shard directory."""

    n_machines: int
    span: float
    start_weekday: int
    shards: tuple[ShardInfo, ...]
    metadata: dict = field(default_factory=dict)
    #: :func:`repro.parallel.cache.config_fingerprint` of the generating
    #: config (``None`` for fleets split from an existing dataset).
    config_fingerprint: Optional[str] = None
    #: The *monolithic* dataset cache key the fleet is equivalent to.
    dataset_cache_key: Optional[str] = None

    def __post_init__(self) -> None:
        self.shards = tuple(
            sorted(self.shards, key=lambda s: s.index)
        )
        cursor = 0
        for s in self.shards:
            if s.machine_lo != cursor or s.machine_hi <= s.machine_lo:
                raise TraceError(
                    f"shards must tile [0, {self.n_machines}) contiguously; "
                    f"shard {s.index} covers [{s.machine_lo}, {s.machine_hi})"
                )
            cursor = s.machine_hi
        if cursor != self.n_machines:
            raise TraceError(
                f"shards cover [0, {cursor}) but the fleet has "
                f"{self.n_machines} machines"
            )

    @property
    def n_shards(self) -> int:
        return len(self.shards)

    @property
    def n_events(self) -> int:
        return sum(s.n_events for s in self.shards)

    def to_dict(self) -> dict:
        from ..parallel.cache import CODE_SCHEMA_VERSION
        from .io import SCHEMA_VERSION

        return {
            "kind": _KIND,
            "schema": {
                "shards": SHARD_SCHEMA_VERSION,
                "trace": SCHEMA_VERSION,
                "code": CODE_SCHEMA_VERSION,
            },
            "n_machines": self.n_machines,
            "span": self.span,
            "start_weekday": self.start_weekday,
            "n_shards": self.n_shards,
            "n_events": self.n_events,
            "metadata": self.metadata,
            "config_fingerprint": self.config_fingerprint,
            "dataset_cache_key": self.dataset_cache_key,
            "shards": [s.to_dict() for s in self.shards],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ShardManifest":
        if data.get("kind") != _KIND:
            raise TraceError("not a shard manifest")
        schema = data.get("schema", {})
        if schema.get("shards") != SHARD_SCHEMA_VERSION:
            raise TraceError(
                f"unsupported shard schema {schema.get('shards')!r} "
                f"(expected {SHARD_SCHEMA_VERSION})"
            )
        return cls(
            n_machines=int(data["n_machines"]),
            span=float(data["span"]),
            start_weekday=int(data.get("start_weekday", 0)),
            shards=tuple(ShardInfo.from_dict(s) for s in data["shards"]),
            metadata=dict(data.get("metadata", {})),
            config_fingerprint=data.get("config_fingerprint"),
            dataset_cache_key=data.get("dataset_cache_key"),
        )

    def save(self, directory: Union[str, Path]) -> Path:
        """Write ``manifest.json`` into ``directory`` atomically."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / MANIFEST_NAME
        tmp = path.with_name(f".{path.name}.tmp{os.getpid()}")
        tmp.write_text(
            json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        os.replace(tmp, path)
        return path

    @classmethod
    def load(cls, path: Union[str, Path]) -> "ShardManifest":
        """Read the manifest of a shard directory, or a manifest file."""
        path = Path(path)
        if path.is_dir():
            path = path / MANIFEST_NAME
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            raise TraceError(f"cannot read shard manifest {path}: {exc}") from exc
        return cls.from_dict(data)


def is_shard_store(path: Union[str, Path]) -> bool:
    """True when ``path`` names a shard directory or shard manifest file."""
    path = Path(path)
    if path.is_dir():
        return (path / MANIFEST_NAME).is_file()
    return path.name == MANIFEST_NAME and path.is_file()

"""Trace dataset infrastructure.

The three-month availability trace is the paper's central artifact.  This
package defines the on-disk record schema, the JSONL and binary columnar
(``fgcs-bin``) readers and writers plus CSV export, an in-memory dataset
with machine/day-type slicing, the end-to-end generator, and validation
checks.  See ``docs/formats.md`` for the on-disk formats.
"""

from .._lazy import attach as _attach

#: Public name -> the submodule that defines it, resolved on first access
#: (PEP 562): reading a shard store never imports the generator below it.
_EXPORTS = {
    "open_columns": ".binio",
    "save_columns_binary": ".binio",
    "TraceDataset": ".dataset",
    "load_event_list_csv": ".external",
    "concat_in_time": ".filters",
    "filter_events": ".filters",
    "merge_datasets": ".filters",
    "min_duration": ".filters",
    "only_causes": ".filters",
    "only_hours": ".filters",
    "only_machines": ".filters",
    "dataset_metadata": ".generate",
    "generate_dataset": ".generate",
    "generate_dataset_columns": ".generate",
    "detect_format": ".io",
    "load_columns": ".io",
    "load_dataset": ".io",
    "save_columns": ".io",
    "save_dataset": ".io",
    "TRACE_FORMATS": ".manifest",
    "ShardInfo": ".manifest",
    "ShardManifest": ".manifest",
    "is_shard_store": ".manifest",
    "EventColumns": ".records",
    "EventRecord": ".records",
    "columns_to_events": ".records",
    "events_to_columns": ".records",
    "validate_columns": ".records",
    "ShardedTraceDataset": ".shards",
    "convert_shards": ".shards",
    "generate_shards": ".shards",
    "open_shards": ".shards",
    "partition_machines": ".shards",
    "write_shards": ".shards",
    "validate_dataset": ".validate",
}

__getattr__, __dir__, __all__ = _attach(globals(), _EXPORTS)

"""Per-layer metrics from the span files of a traced run."""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path
from typing import Iterable, Optional

from percentiles import Summary


class SpanSet:
    """Spans of one or more processes, with parent links resolved.

    A node is ``(pid, id, parent, name, start, end, rid, extra)``.
    """

    def __init__(self, dumps: Iterable[dict]) -> None:
        self.nodes: list[tuple] = []
        self.maxima: dict[str, float] = {}
        for dump in dumps:
            pid = dump["pid"]
            for sid, parent, name, t0, t1, rid, extra in dump["spans"]:
                self.nodes.append((pid, sid, parent, name, t0, t1, rid, extra or {}))
            for key, value in dump.get("maxima", {}).items():
                self.maxima[key] = max(value, self.maxima.get(key, value))
        self.child_time: dict[tuple, float] = defaultdict(float)
        for pid, _, parent, _, t0, t1, _, _ in self.nodes:
            if parent:
                self.child_time[(pid, parent)] += t1 - t0

    @classmethod
    def load(cls, directory: Path) -> "SpanSet":
        return cls(json.loads(p.read_text()) for p in sorted(directory.glob("*.json")))

    def durations(self, name: str) -> list[float]:
        return [n[5] - n[4] for n in self.nodes if n[3] == name]

    def self_time(self, node: tuple) -> float:
        return node[5] - node[4] - self.child_time[(node[0], node[1])]

    def self_table(self) -> dict[str, float]:
        """Total self time (seconds) per span name, i.e. per layer."""
        out: dict[str, float] = defaultdict(float)
        for node in self.nodes:
            out[node[3]] += self.self_time(node)
        return dict(out)

    def by_rid(self, rids: set) -> dict[int, list[tuple]]:
        out: dict[int, list[tuple]] = defaultdict(list)
        for node in self.nodes:
            if node[6] in rids:
                out[node[6]].append(node)
        return out


def ms(summary: Summary, pct: float) -> Optional[float]:
    """The percentile in ms, or None when the sample cannot support it."""
    if not summary.n or (pct > 50 and (summary.tail or 0) < pct):
        return None
    return summary.pct(pct) * 1e3


def _supported(values: dict) -> dict:
    return {k: v for k, v in values.items() if v is not None}


def _dur(node: tuple) -> float:
    return node[5] - node[4]


def shell_seconds(spans: SpanSet, nodes: list[tuple]) -> float:
    """Handler time outside the app, summed over every server crossing."""
    total = 0.0
    for node in nodes:
        if node[3] in ("serve.server.handler", "serve.router.handler"):
            total += _dur(node) + node[7].get("parse", 0.0)
            total -= spans.child_time[(node[0], node[1])]
    return total


def read_layers(spans: SpanSet, rids: set, routed: bool) -> dict[str, Summary]:
    """Per-read layer timings for the point reads ``rids``."""
    groups = spans.by_rid(rids)
    app, shell, state, wait, forward, router_self = ([] for _ in range(6))
    for rid in rids:
        nodes = groups.get(rid, [])
        if not nodes:
            continue
        app.append(sum(_dur(n) for n in nodes if n[3] == "serve.server.app"))
        shell.append(shell_seconds(spans, nodes))
        state.append(sum(_dur(n) for n in nodes if n[3] == "serve.state.point"))
        wait.append(
            sum(n[7].get("lock_wait", 0.0) for n in nodes if n[3] == "serve.server.handler")
        )
        if routed:
            fwd = sum(_dur(n) for n in nodes if n[3] == "serve.router.forward")
            handler = sum(
                _dur(n) + n[7].get("parse", 0.0)
                for n in nodes
                if n[3] == "serve.router.handler"
            )
            forward.append(fwd)
            router_self.append(handler - fwd)
    out = {
        "point_app": Summary(app),
        "shell": Summary(shell),
        "state_point": Summary(state),
        "lock_wait": Summary(wait),
    }
    if routed:
        out["forward"] = Summary(forward)
        out["router_self"] = Summary(router_self)
    return out


def setup_layers(setup_dirs: list[Path]) -> dict[str, float]:
    """Medians over the set-up launches of import, build and spawn times."""
    from percentiles import median

    imports, builds, spawns = [], [], []
    for directory in setup_dirs:
        spans = SpanSet.load(directory)
        imports += spans.durations("cli.import")[:1]
        build = spans.durations("serve.state.build")
        if build:
            builds.append(sum(build))
        spawns += spans.durations("serve.router.spawn")
    out = {"cli.import_s": median(imports), "serve.state.build_s": median(builds)}
    if spawns:
        out["serve.router.spawn_s"] = median(spawns)
    return out


def serve_read_metrics(
    spans: SpanSet, read_rids: set, fleet_rids: set
) -> tuple[dict, dict]:
    """Per-layer metrics of ``serve-read`` (values) and their sample counts."""
    reads = read_layers(spans, read_rids, routed=False)
    fleet_groups = spans.by_rid(fleet_rids)
    fleet = Summary(
        [
            sum(_dur(n) for n in nodes if n[3] == "serve.state.fleet")
            for nodes in fleet_groups.values()
        ]
    )
    values = {
        "serve.server.point_app_p50_ms": ms(reads["point_app"], 50),
        "serve.server.point_app_p99_ms": ms(reads["point_app"], 99),
        "serve.server.shell_p50_ms": ms(reads["shell"], 50),
        "serve.state.point_p50_ms": ms(reads["state_point"], 50),
        "serve.state.point_p99_ms": ms(reads["state_point"], 99),
        "serve.state.fleet_p50_ms": ms(fleet, 50),
        "serve.state.fleet_p99_ms": ms(fleet, 99),
        "serve.state.lock_wait_p99_ms": ms(reads["lock_wait"], 99),
    }
    counts = {"reads": reads["point_app"].n, "fleet": fleet.n}
    return _supported(values), counts


def serve_ingest_metrics(
    spans: SpanSet, read_rids: set, ingest_rids: set
) -> tuple[dict, dict]:
    """Per-layer metrics of ``serve-ingest`` (values) and their sample counts."""
    reads = read_layers(spans, read_rids, routed=True)
    groups = spans.by_rid(ingest_rids)
    router_ingest, forwards = [], []
    for nodes in groups.values():
        router_ingest.append(
            sum(_dur(n) for n in nodes if n[3] == "serve.router.ingest")
        )
        forwards.append(sum(1 for n in nodes if n[3] == "serve.router.forward"))
    router_ingest = Summary(router_ingest)
    submit = Summary(spans.durations("serve.ingest.submit"))
    apply = Summary(spans.durations("serve.ingest.apply"))
    snapshot = Summary(spans.durations("serve.ingest.snapshot"))
    rebuild = Summary(spans.durations("serve.paging.rebuild"))
    values = {
        "serve.server.shell_p50_ms": ms(reads["shell"], 50),
        "serve.state.point_p50_ms": ms(reads["state_point"], 50),
        "serve.state.point_p99_ms": ms(reads["state_point"], 99),
        "serve.state.lock_wait_p99_ms": ms(reads["lock_wait"], 99),
        "serve.paging.rebuild_p50_ms": ms(rebuild, 50),
        "serve.paging.rebuild_p99_ms": ms(rebuild, 99),
        "serve.router.forward_p50_ms": ms(reads["forward"], 50),
        "serve.router.forward_p99_ms": ms(reads["forward"], 99),
        "serve.router.self_p50_ms": ms(reads["router_self"], 50),
        "serve.router.ingest_p50_ms": ms(router_ingest, 50),
        "serve.router.ingest_p99_ms": ms(router_ingest, 99),
        "serve.router.ingest_forwards": sum(forwards) / max(1, len(forwards)),
        "serve.ingest.submit_p50_ms": ms(submit, 50),
        "serve.ingest.submit_p99_ms": ms(submit, 99),
        "serve.ingest.apply_p50_ms": ms(apply, 50),
        "serve.ingest.apply_p99_ms": ms(apply, 99),
        "serve.ingest.snapshot_p50_ms": ms(snapshot, 50),
        "serve.ingest.snapshot_max_ms": snapshot.values[-1] * 1e3 if snapshot.n else None,
        "serve.ingest.queue_depth_max": spans.maxima.get(
            "serve.ingest.queue_depth_events", 0.0
        ),
    }
    counts = {
        "reads": reads["state_point"].n,
        "ingest batches": router_ingest.n,
        "submits": submit.n,
        "applies": apply.n,
        "snapshots": snapshot.n,
        "rebuilds": rebuild.n,
    }
    return _supported(values), counts


def batch_rep_layers(spans: SpanSet, t0: float, t1: float) -> dict[str, float]:
    """Seconds per batch layer for spans starting in ``[t0, t1)``.

    Only the outermost span of each layer counts, so a hash inside a
    decode is not charged twice.
    """
    totals: dict[str, float] = defaultdict(float)
    names = {}
    for node in spans.nodes:
        names[(node[0], node[1])] = node
    for node in spans.nodes:
        if not t0 <= node[4] < t1:
            continue
        parent: Optional[tuple] = names.get((node[0], node[2]))
        if parent is not None and parent[3] == node[3]:
            continue
        totals[node[3]] += _dur(node)
    return dict(totals)

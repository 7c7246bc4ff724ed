"""Availability-forecast serving layer.

The live counterpart of :mod:`repro.prediction`: a long-running daemon
(``repro-fgcs serve``) holding per-machine predictor state as hot/cold
tiered count blocks — paged at block granularity from binary shards
(:mod:`repro.serve.paging`), updated in place by streamed events
through a bounded asynchronous ingest queue (:mod:`repro.serve.ingest`)
— and answering HTTP/JSON queries value-identical to the batch
:class:`HistoryWindowPredictor` on the same data.  ``repro-fgcs serve
--workers N`` scales the same protocol horizontally: a router front-end
over per-machine-range worker processes (:mod:`repro.serve.router`),
running the same request pipeline (:mod:`repro.serve.server`).
``repro-fgcs query`` is the matching CLI client.

See ``docs/serving.md``.
"""

from .client import ServeClient, ServeRequestError
from .ingest import AsyncIngester, IngestQueueStats
from .paging import BlockInfo, BlockPager, PagerStats
from .router import RouterApp, start_router
from .server import ServeApp, ServeHandle, ServeSpec, boot, start_server
from .state import IngestResult, ServeState, TierStats, counts_from_columns

__all__ = [
    "AsyncIngester",
    "BlockInfo",
    "BlockPager",
    "IngestQueueStats",
    "IngestResult",
    "PagerStats",
    "RouterApp",
    "ServeApp",
    "ServeClient",
    "ServeHandle",
    "ServeRequestError",
    "ServeSpec",
    "ServeState",
    "TierStats",
    "boot",
    "counts_from_columns",
    "start_router",
    "start_server",
]

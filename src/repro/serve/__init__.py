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

The names below export lazily (PEP 562), so the router, which holds no
predictor state, never loads the state stack or NumPy.

See ``docs/serving.md``.
"""

from .._lazy import attach as _attach

#: Public name -> the submodule that defines it, resolved on first access.
_EXPORTS = {
    "ServeClient": ".client",
    "ServeRequestError": ".client",
    "AsyncIngester": ".ingest",
    "IngestQueueStats": ".ingest",
    "BlockInfo": ".paging",
    "BlockPager": ".paging",
    "PagerStats": ".paging",
    "RouterApp": ".router",
    "start_router": ".router",
    "ServeApp": ".server",
    "ServeHandle": ".server",
    "ServeSpec": ".server",
    "boot": ".server",
    "start_server": ".server",
    "IngestResult": ".state",
    "ServeState": ".state",
    "TierStats": ".state",
}

__getattr__, __dir__, __all__ = _attach(globals(), _EXPORTS)

"""Campaign-results service: the HTTP front door to a shared result store.

``coopckpt serve`` (see :mod:`repro.cli`) wires one
:class:`~repro.store.ResultStore` (filesystem or SQLite, chosen with
``--store``) into a :class:`~repro.service.jobs.JobManager` and exposes it
through :class:`~repro.service.http.CampaignService` — submit campaigns,
poll progress, list cells, stream CSV exports and fetch per-cell waste
decompositions, all over stdlib HTTP + JSON, no shell access to the cache
directory required.  Every number the service returns travels through the
same code paths as the CLI (``run_campaign``, ``campaign_to_csv``,
``repro.trace``), so served results are bit-identical to offline ones.
``coopckpt worker --metrics-port`` serves its probes on the same
:class:`~repro.service.http.JsonServer`.
"""

from __future__ import annotations

from repro import _lazy_exports

__all__, __getattr__ = _lazy_exports(globals(), {
    "repro.service.http": ("CampaignService",),
    "repro.service.jobs": ("CampaignJob", "JobManager", "campaign_from_request", "result_payload"),
})

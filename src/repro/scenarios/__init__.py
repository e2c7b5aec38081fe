"""repro.scenarios — declarative scenario campaigns.

The paper draws its conclusions from one machine (Cielo) under one workload
mix; this package turns those point measurements into *regime* sweeps:

* :class:`~repro.scenarios.spec.Scenario` — a declarative description of
  one experimental situation (platform overrides, workload mix, failure
  model, strategy set, Monte-Carlo sample size).
* :class:`~repro.scenarios.campaign.Campaign` /
  :class:`~repro.scenarios.campaign.Axis` — a named matrix of scenarios
  expanded from labelled override axes (e.g. MTBF x I/O bandwidth x
  failure model).
* :func:`~repro.scenarios.runner.run_campaign` — executes the matrix
  through a :class:`repro.exec.ParallelRunner`, inheriting its process
  backend and on-disk result cache (re-running a grown matrix only
  simulates new cells), and keeps every cell's per-seed values.
* :mod:`~repro.scenarios.report` — the cross-scenario comparison table and
  CSV export.
* :mod:`~repro.scenarios.presets` — ready-made campaigns: the Cielo
  reference matrix, two prospective-platform campaigns and a CI-sized
  ``smoke`` matrix on a miniature Cielo.

Exposed on the CLI as ``coopckpt campaign``.
"""

from __future__ import annotations

from repro.scenarios.campaign import Axis, AxisPoint, Campaign
from repro.scenarios.presets import (
    CAMPAIGNS,
    FAMILY_STRATEGIES,
    campaign_names,
    make_campaign,
    mini_apex_workload,
    mini_cielo_platform,
)
from repro.scenarios.report import campaign_to_csv, render_campaign, render_campaign_details
from repro.scenarios.runner import (
    CampaignResult, ScenarioOutcome, drill_down, run_campaign, run_scenarios,
)
from repro.scenarios.spec import Scenario

__all__ = [
    "Axis",
    "AxisPoint",
    "CAMPAIGNS",
    "Campaign",
    "CampaignResult",
    "FAMILY_STRATEGIES",
    "Scenario",
    "ScenarioOutcome",
    "campaign_names",
    "campaign_to_csv",
    "drill_down",
    "make_campaign",
    "mini_apex_workload",
    "mini_cielo_platform",
    "render_campaign",
    "render_campaign_details",
    "run_campaign",
    "run_scenarios",
]

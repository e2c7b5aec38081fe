"""repro — reproduction of *Optimal Cooperative Checkpointing for Shared
High-Performance Computing Platforms* (Hérault et al., IPDPS 2018).

The package provides three layers:

* :mod:`repro.core` — the analytical models of the paper: the Young/Daly
  period, the single-job and platform waste models, the constrained
  lower bound of Theorem 1 and the Least-Waste scoring heuristic.
* the simulation substrate — a from-scratch discrete-event engine
  (:mod:`repro.sim`), a platform model with failure injection and a shared
  parallel file system (:mod:`repro.platform`), an application/job model
  (:mod:`repro.apps`), I/O scheduling strategies (:mod:`repro.iosched`) and
  an online first-fit job scheduler (:mod:`repro.jobsched`).
* the evaluation harness — workload definitions (:mod:`repro.workloads`),
  the top-level simulator (:mod:`repro.simulation`), Monte-Carlo statistics
  (:mod:`repro.stats`), parallel execution and result caching
  (:mod:`repro.exec`), broker-less distributed execution over a filesystem
  work spool (:mod:`repro.distributed`), per-figure experiments
  (:mod:`repro.experiments`), declarative scenario campaigns
  (:mod:`repro.scenarios`) and the per-cell waste drill-down
  (:mod:`repro.trace`).

Quickstart
----------

>>> from repro import run_simulation, cielo_platform, apex_workload
>>> platform = cielo_platform(bandwidth_gbs=80.0)
>>> result = run_simulation(
...     platform=platform,
...     workload=apex_workload(),
...     strategy="least-waste",
...     horizon_days=4.0,
...     seed=1,
... )
>>> 0.0 <= result.waste_ratio
True
"""

from __future__ import annotations

import importlib
from collections.abc import Callable
from typing import Any

__version__ = "1.0.0"


def _lazy_exports(
    namespace: dict[str, Any], modules: dict[str, tuple[str, ...]]
) -> tuple[list[str], Callable[[str], Any]]:
    """The export list and PEP 562 ``__getattr__`` of a package's re-exports.

    ``modules`` lists each exported name once, under the module defining it.
    A name is imported on first access and then cached in ``namespace`` (the
    package's ``globals()``), so importing the package loads none of its
    submodules and each command pays only for the layers it uses.
    """
    where = {name: module for module, names in modules.items() for name in names}

    def __getattr__(name: str) -> Any:
        if name not in where:
            raise AttributeError(f"module {namespace['__name__']!r} has no attribute {name!r}")
        value = namespace[name] = getattr(importlib.import_module(where[name]), name)
        return value

    return list(where), __getattr__


_exported, __getattr__ = _lazy_exports(globals(), {
    # core
    "repro.core.daly": ("daly_period", "young_period", "job_mtbf", "system_mtbf"),
    "repro.core.waste": ("job_waste", "platform_waste", "optimal_job_waste"),
    "repro.core.lower_bound": (
        "LowerBoundResult", "SteadyStateClass", "optimal_periods", "platform_lower_bound",
    ),
    "repro.core.least_waste": ("IOCandidate", "CkptCandidate", "expected_waste", "select_candidate"),
    # platform / apps
    "repro.platform.failures": ("FailureModel",),
    "repro.platform.spec": ("PlatformSpec",),
    "repro.apps.app_class": ("ApplicationClass",),
    "repro.apps.checkpoint_policy": ("CheckpointPolicy", "DalyPolicy", "FixedPolicy"),
    # strategies
    "repro.iosched.registry": (
        "STRATEGIES", "StrategySpec", "canonical_strategy", "make_strategy",
        "parse_strategy", "register_strategy", "strategy_kinds",
    ),
    # workloads
    "repro.workloads.apex": ("APEX_CLASSES", "apex_workload"),
    "repro.workloads.cielo": ("cielo_platform",),
    "repro.workloads.prospective": ("prospective_platform", "prospective_workload"),
    "repro.workloads.generator": ("WorkloadSpec", "generate_jobs"),
    # simulation
    "repro.simulation.config": ("SimulationConfig",),
    "repro.simulation.results": ("SimulationResult", "WasteBreakdown"),
    "repro.simulation.simulator": ("Simulation", "run_simulation"),
    # stats
    "repro.stats.summary": ("DistributionSummary", "summarize"),
    "repro.stats.montecarlo": ("derive_seeds",),
    # parallel execution
    "repro.exec.runner": ("ParallelRunner",),
    "repro.exec.digest": ("config_digest",),
    # distributed execution
    "repro.distributed.worker": ("SpoolWorker",),
    "repro.distributed.spool": ("WorkSpool",),
    # scenario campaigns
    "repro.scenarios.campaign": ("Axis", "AxisPoint", "Campaign"),
    "repro.scenarios.runner": ("CampaignResult", "drill_down", "run_campaign", "run_scenarios"),
    "repro.scenarios.spec": ("Scenario",),
    "repro.scenarios.presets": ("campaign_names", "make_campaign"),
    "repro.scenarios.report": ("campaign_to_csv", "render_campaign"),
    # per-cell drill-down
    "repro.trace": (
        "WasteDecomposition", "decomposition_to_csv", "drill_down_cell", "render_decomposition",
    ),
})
__all__ = ["__version__", *_exported]

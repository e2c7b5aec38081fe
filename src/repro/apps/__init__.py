"""Application workload model: classes, jobs and checkpoint policies.

* :mod:`repro.apps.app_class` — static description of an application class
  (node count, work, input/output/checkpoint volumes), mirroring the APEX
  workflow characterisation of Table 1.
* :mod:`repro.apps.job` — a job (one instance of a class) and its mutable
  execution state: work progress, protected (checkpointed) work, restarts.
* :mod:`repro.apps.checkpoint_policy` — Fixed and Young/Daly checkpoint
  interval policies.
* :mod:`repro.apps.phases` — job life-cycle states and I/O request kinds.
"""

from repro.apps.app_class import ApplicationClass
from repro.apps.checkpoint_policy import CheckpointPolicy, DalyPolicy, FixedPolicy
from repro.apps.job import Job
from repro.apps.phases import IOKind, JobState

__all__ = [
    "ApplicationClass",
    "Job",
    "JobState",
    "IOKind",
    "CheckpointPolicy",
    "FixedPolicy",
    "DalyPolicy",
]

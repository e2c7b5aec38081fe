"""Application workload model: classes, jobs and checkpoint policies.

* :mod:`repro.apps.app_class` — static description of an application class
  (node count, work, input/output/checkpoint volumes), mirroring the APEX
  workflow characterisation of Table 1.
* :mod:`repro.apps.job` — a job (one instance of a class): its parameters,
  its work progress, the work a completed checkpoint protects, and its end
  time.  The simulator keeps every other per-job fact of a run.
* :mod:`repro.apps.checkpoint_policy` — Fixed and Young/Daly checkpoint
  interval policies.
* :mod:`repro.apps.phases` — I/O request kinds.
"""

from repro.apps.app_class import ApplicationClass
from repro.apps.checkpoint_policy import CheckpointPolicy, DalyPolicy, FixedPolicy
from repro.apps.job import Job
from repro.apps.phases import IOKind

__all__ = [
    "ApplicationClass",
    "Job",
    "IOKind",
    "CheckpointPolicy",
    "FixedPolicy",
    "DalyPolicy",
]

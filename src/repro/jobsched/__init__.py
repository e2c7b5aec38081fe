"""Online job scheduling: first-fit placement of the pending jobs.

The paper's job scheduler (§2, §5) is deliberately simple: jobs are
presented in priority order (restarted jobs first, then arrival order) and a
greedy first-fit pass starts every pending job that currently fits in the
free nodes.  The schedule is recomputed online whenever nodes free up or a
restart is submitted.  :class:`FirstFitScheduler` holds the pending jobs
itself.
"""

from repro.jobsched.first_fit import FirstFitScheduler

__all__ = ["FirstFitScheduler"]

"""Random job-mix generation (§5 "High level parameters").

A simulation's initial conditions contain a list of jobs drawn from the
application classes so that

1. the platform is kept busy for at least the requested simulated duration,
   and
2. the node-hours received by each class match the representative workload
   percentages of the APEX report (within a small tolerance).

Job work times are drawn uniformly in ``[0.8 w, 1.2 w]`` around the class's
typical work time ``w``, which avoids artificial synchronisation between
hundreds of identical jobs.  The generated list is shuffled and presented to
the job scheduler all at once (arrival order = priority order).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.apps.app_class import ApplicationClass
from repro.apps.job import Job
from repro.errors import ConfigurationError
from repro.platform.spec import PlatformSpec
from repro.units import DAY

if TYPE_CHECKING:
    import numpy as np

__all__ = ["WorkloadSpec", "generate_jobs"]


@dataclass(frozen=True)
class WorkloadSpec:
    """Parameters of the job-mix generator.

    Attributes
    ----------
    classes:
        Application classes with their ``workload_share`` targets.
    min_duration_s:
        The generator adds jobs until their aggregate node-seconds are
        enough to keep the whole platform busy for at least this long
        (plus ``headroom``).
    share_tolerance:
        Maximum allowed absolute deviation between a class's achieved and
        target share of the generated node-seconds (the paper uses 1 %).
    work_time_jitter:
        Half-width of the uniform jitter applied to work times (0.2 means
        ``[0.8 w, 1.2 w]``).
    headroom:
        Extra multiplicative margin on the node-second target, so the job
        scheduler never runs out of queued work before the horizon.
    max_jobs:
        Safety cap on the number of generated jobs.
    """

    classes: tuple[ApplicationClass, ...]
    min_duration_s: float = 8.0 * DAY
    share_tolerance: float = 0.01
    work_time_jitter: float = 0.2
    headroom: float = 1.3
    max_jobs: int = 100_000

    def __post_init__(self) -> None:
        if not self.classes:
            raise ConfigurationError("WorkloadSpec requires at least one application class")
        if self.min_duration_s <= 0.0:
            raise ConfigurationError("min_duration_s must be positive")
        if not (0.0 < self.share_tolerance < 1.0):
            raise ConfigurationError("share_tolerance must be in (0, 1)")
        if not (0.0 <= self.work_time_jitter < 1.0):
            raise ConfigurationError("work_time_jitter must be in [0, 1)")
        if self.headroom < 1.0:
            raise ConfigurationError("headroom must be >= 1")
        total_share = sum(app.workload_share for app in self.classes)
        if total_share <= 0.0:
            raise ConfigurationError("at least one class must have a positive workload_share")

    @property
    def normalized_shares(self) -> np.ndarray:
        """Target shares normalized to sum to 1."""
        import numpy as np

        shares = np.array([app.workload_share for app in self.classes], dtype=float)
        return shares / shares.sum()


def _draw_work_time(app: ApplicationClass, jitter: float, rng: np.random.Generator) -> float:
    if jitter == 0.0:
        return app.work_s
    low = app.work_s * (1.0 - jitter)
    high = app.work_s * (1.0 + jitter)
    return float(rng.uniform(low, high))


def generate_jobs(
    spec: WorkloadSpec,
    platform: PlatformSpec,
    rng: np.random.Generator,
) -> list[Job]:
    """Generate a shuffled job list matching the workload specification.

    The greedy construction always extends the class that is currently the
    furthest *below* its target share, which converges to the target mix
    and terminates once both the duration and the share-tolerance criteria
    are met.

    Returns
    -------
    list[Job]
        Jobs with ``submit_time`` 0 and ``priority`` equal to their position
        in the shuffled arrival order.
    """
    import numpy as np

    targets = spec.normalized_shares
    classes = spec.classes
    for app in classes:
        if app.nodes > platform.num_nodes:
            raise ConfigurationError(
                f"class {app.name!r} needs {app.nodes} nodes but platform "
                f"{platform.name!r} has only {platform.num_nodes}"
            )

    node_seconds_goal = platform.num_nodes * spec.min_duration_s * spec.headroom
    per_class_node_seconds = np.zeros(len(classes), dtype=float)
    drawn: list[tuple[int, float]] = []  # (class index, work time)

    while True:
        total = float(per_class_node_seconds.sum())
        if total >= node_seconds_goal:
            shares = per_class_node_seconds / total
            if np.all(np.abs(shares - targets) <= spec.share_tolerance):
                break
        if len(drawn) >= spec.max_jobs:
            raise ConfigurationError(
                f"workload generation exceeded max_jobs={spec.max_jobs}; "
                "check the class shares and duration target"
            )
        # Pick the class with the largest share deficit.
        if total == 0.0:
            deficits = targets.copy()
        else:
            deficits = targets - per_class_node_seconds / total
        index = int(np.argmax(deficits))
        app = classes[index]
        work = _draw_work_time(app, spec.work_time_jitter, rng)
        drawn.append((index, work))
        per_class_node_seconds[index] += work * app.nodes

    order = rng.permutation(len(drawn))
    jobs: list[Job] = []
    for priority, position in enumerate(order):
        index, work = drawn[int(position)]
        jobs.append(
            Job(
                app_class=classes[index],
                total_work_s=work,
                submit_time=0.0,
                priority=float(priority),
            )
        )
    return jobs

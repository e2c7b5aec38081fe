"""The platform simulator: wiring of all substrates plus the job runtime.

A :class:`Simulation` reproduces the discrete-event simulator described in
§5 of the paper:

1. a job list is drawn from the application classes so the class mix matches
   the APEX shares, and a node-failure trace is drawn from the platform's
   MTBF — together these are the run's *initial conditions*;
2. jobs are placed online by a greedy first-fit scheduler; failed jobs are
   resubmitted at the head of the queue with the work remaining from their
   last completed checkpoint;
3. every I/O operation (initial input, regular I/O, checkpoints, recovery,
   final output) goes through the selected I/O scheduling strategy, which
   decides when it runs and whether it interferes with other transfers;
4. node-seconds are accounted per category over a measurement window that
   excludes the first and last part of the simulated segment, and the run
   is summarised by a :class:`~repro.simulation.results.SimulationResult`.

The job life cycle is implemented with small event handlers on the
simulation object; per-job bookkeeping lives in :class:`_JobContext`, and
the run keeps the restarts it submits in ``Simulation.restarts``.  Every
transfer a job waits for (input, recovery, regular I/O, final output) is
submitted by ``Simulation._submit_blocking`` and completed by
``Simulation._blocking_done``; checkpoints have their own handlers because
they may run while the job computes.  A job ends, completed or failed, in
``Simulation._end_job``, the step that also drops its context.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.apps.app_class import ApplicationClass
from repro.apps.job import Job
from repro.apps.phases import IOKind
from repro.errors import SimulationError
from repro.iosched.base import IORequest, IOScheduler
from repro.iosched.registry import Strategy, make_strategy
from repro.jobsched.first_fit import FirstFitScheduler
from repro.platform.failures import FailureTrace, generate_failure_trace
from repro.platform.io_subsystem import IOSubsystem
from repro.platform.nodes import NodePool
from repro.platform.spec import PlatformSpec
from repro.sim.engine import SimulationEngine
from repro.sim.events import Event
from repro.sim.rng import RandomStreams
from repro.simulation.accounting import Accounting, Category
from repro.simulation.config import SimulationConfig
from repro.simulation.results import SimulationResult, WasteBreakdown
from repro.simulation.trace import TraceEventType, TraceRecorder
from repro.units import DAY
from repro.workloads.generator import generate_jobs

__all__ = ["Simulation", "run_simulation"]

#: Minimum residual work (seconds) given to a restart whose failed parent had
#: already protected all of its work (e.g. it failed during its final output).
_MIN_RESTART_WORK_S = 1.0

#: Minimum delay (seconds) between a checkpoint completion and the next
#: checkpoint request, used when the requested period P is not larger than
#: the commit time C.
_MIN_CHECKPOINT_GAP_S = 1.0

#: Per blocking transfer kind: the trace event its completion records.
_BLOCKING: dict[IOKind, TraceEventType] = {
    IOKind.INPUT: TraceEventType.INPUT_DONE,
    IOKind.RECOVERY: TraceEventType.INPUT_DONE,
    IOKind.REGULAR: TraceEventType.REGULAR_IO_DONE,
    IOKind.OUTPUT: TraceEventType.OUTPUT_DONE,
}


@dataclass
class _JobContext:
    """Per-running-job runtime bookkeeping owned by the simulation.

    The phase schedule (regular-I/O milestones and the post-checkpoint
    re-request delay) is computed once when the job enters its compute
    phase and read from here afterwards, instead of re-deriving the same
    floats on every checkpoint/progress event.
    """

    job: Job
    allocated_at: float
    compute_event: Event | None = None
    checkpoint_due_event: Event | None = None
    regular_event: Event | None = None
    pending_checkpoint: IORequest | None = None
    #: Work the pending checkpoint holds, captured when it is granted.
    captured_work_s: float | None = None
    blocking_request: IORequest | None = None
    checkpoint_overdue: bool = False
    milestones: list[float] = field(default_factory=list)
    milestone_index: int = 0
    regular_chunk_bytes: float = 0.0
    #: Delay between a checkpoint completion and the next request,
    #: ``max(P - C, minimum gap)`` (§2's first-order scheduling rule).
    checkpoint_redo_delay_s: float = _MIN_CHECKPOINT_GAP_S


class Simulation:
    """One simulation run (one strategy, one set of initial conditions)."""

    def __init__(
        self,
        config: SimulationConfig,
        *,
        jobs: list[Job] | None = None,
        failure_trace: FailureTrace | None = None,
    ) -> None:
        self.config = config
        self.platform: PlatformSpec = config.platform
        self.strategy: Strategy = make_strategy(
            config.strategy, fixed_period_s=config.fixed_period_s
        )
        self.streams = RandomStreams(config.seed)
        self.engine = SimulationEngine(max_events=config.max_events)
        self.io = IOSubsystem(
            self.engine,
            self.platform.io_bandwidth_bytes_per_s,
            interference=config.interference,
        )
        self.io_sched: IOScheduler = self.strategy.make_scheduler(
            self.engine, self.io, self.platform.node_mtbf_s
        )
        self.pool = NodePool(self.platform.num_nodes)
        self.job_sched = FirstFitScheduler(self.pool)
        window_start, window_end = config.measurement_window
        # Trace runs also keep per-job ledgers (the waste drill-down input);
        # the global totals are accumulated by the same statements either
        # way, so tracking never changes the reported results.
        self.accounting = Accounting(
            window_start, window_end, track_jobs=config.collect_trace
        )

        if jobs is None:
            jobs = generate_jobs(
                config.workload_spec(), self.platform, self.streams.get("workload")
            )
        self.jobs: list[Job] = jobs
        if failure_trace is None:
            failure_trace = generate_failure_trace(
                self.platform,
                config.horizon_s,
                self.streams.get("failures"),
                model=config.failure_model,
            )
        self.failure_trace = failure_trace

        # Per-job runtime state, and the restarts in submission order.
        self._contexts: dict[int, _JobContext] = {}
        self.restarts: list[Job] = []
        self._restart_priority = -1_000_000.0

        #: Optional per-job execution trace (None unless requested).
        self.trace: TraceRecorder | None = TraceRecorder() if config.collect_trace else None

        # Counters.  A failure that hits a job fails it and submits one
        # restart: ``failures_effective`` also counts failed jobs.
        self.jobs_completed = 0
        self.failures_effective = 0
        self.checkpoints_completed = 0
        self.checkpoints_requested = 0
        self._ran = False

    # ================================================================ run
    def run(self) -> SimulationResult:
        """Execute the simulation and return its result.

        Once the result is built, the run drops every pending callback: the
        event queue, the transfers still in flight, the I/O scheduler's
        queues and the job contexts.  Each of them refers back to this
        simulation, so without this step a finished run would be freed only
        by the cycle collector; with it, reference counting frees the run as
        soon as the caller drops it.  ``jobs``, ``restarts``, ``trace``,
        ``accounting``, ``failure_trace`` and the counters stay readable on
        any reference the caller keeps.
        """
        if self._ran:
            raise SimulationError("Simulation.run() can only be called once per instance")
        self._ran = True

        self.engine.schedule_at(0.0, self._bootstrap, label="bootstrap")
        for failure in self.failure_trace:
            if failure.time <= self.config.horizon_s:
                self.engine.schedule_at(
                    failure.time, self._on_node_failure, failure.node_id, label="failure"
                )
        self.engine.run(until=self.config.horizon_s)
        self._flush_open_accounting()
        result = self._build_result()
        self.engine.clear()
        self.io.clear()
        self.io_sched.clear()
        self._contexts.clear()
        return result

    # ================================================================ setup
    def _bootstrap(self) -> None:
        for job in self.jobs:
            self.job_sched.submit(job)
        self._dispatch()

    def _dispatch(self) -> None:
        self.job_sched.dispatch(self._start_job)

    # ================================================================ job life cycle
    def _start_job(self, job: Job) -> None:
        now = self.engine.now
        context = _JobContext(job=job, allocated_at=now)
        self._contexts[job.job_id] = context
        self._record(job, TraceEventType.JOB_START, nodes=job.nodes, restart=job.is_restart)

        if job.input_bytes and job.input_bytes > 0.0:
            # A restarted job re-reads its last checkpoint (or re-reads its
            # input when it had no checkpoint yet); either way this read only
            # exists because of the failure, so it is recovery I/O (§5).
            kind = IOKind.RECOVERY if job.is_restart else IOKind.INPUT
            self._submit_blocking(job, context, kind, job.input_bytes)
        else:
            self._begin_compute(job)

    # ---------------------------------------------------------------- blocking transfers
    def _submit_blocking(
        self, job: Job, context: _JobContext, kind: IOKind, volume_bytes: float
    ) -> None:
        """Block ``job`` on one input, recovery, regular or output transfer."""
        request = IORequest(
            job=job,
            kind=kind,
            volume_bytes=volume_bytes,
            submitted_at=self.engine.now,
            on_complete=self._blocking_done,
        )
        context.blocking_request = request
        self.io_sched.submit(request)

    def _blocking_done(self, request: IORequest) -> None:
        """Account a finished blocking transfer, then move its job on."""
        job = request.job
        context = self._contexts.get(job.job_id)
        if context is None:
            return
        self._account_request(request)
        context.blocking_request = None
        kind = request.kind
        reads = kind is IOKind.INPUT or kind is IOKind.RECOVERY
        detail = {"io_kind": kind.value} if reads else {}
        self._record(
            job,
            _BLOCKING[kind],
            **detail,
            waited=request.waited,
            duration=(request.completed_at or 0.0) - (request.granted_at or 0.0),
            volume=request.volume_bytes,
        )
        if reads:
            self._begin_compute(job)
        elif kind is IOKind.REGULAR:
            self._maybe_resume(job)
        else:
            self._complete_job(job)

    def _begin_compute(self, job: Job) -> None:
        """First entry into the compute phase (after input/recovery)."""
        now = self.engine.now
        context = self._context(job)
        job.last_capture_time = now

        # Precompute the job's whole phase schedule once: the regular-I/O
        # milestones and both checkpoint delays are pure functions of the
        # job and platform, so no later event needs to re-derive them.
        chunks = self.config.routine_io_chunks
        if job.routine_io_bytes > 0.0 and chunks > 0:
            context.regular_chunk_bytes = job.routine_io_bytes / chunks
            # The k-th of `chunks` transfers happens after total * k /
            # (chunks + 1) seconds of work: equal parts of the compute phase.
            context.milestones = [
                job.total_work_s * k / (chunks + 1) for k in range(1, chunks + 1)
            ]
        context.milestone_index = 0
        period = self.strategy.policy.period(job.app_class, self.platform)
        commit = job.app_class.checkpoint_time(self.platform.io_bandwidth_bytes_per_s)
        # Next request P - C after each completion (first-order scheduling
        # rule of §2), never less than a small positive gap.
        context.checkpoint_redo_delay_s = max(period - commit, _MIN_CHECKPOINT_GAP_S)

        # First checkpoint is requested a full period after compute starts.
        context.checkpoint_due_event = self.engine.schedule(
            period, self._checkpoint_due, job, label="checkpoint-due"
        )
        self._start_progress(job)

    # ---------------------------------------------------------------- progress
    def _start_progress(self, job: Job) -> None:
        now = self.engine.now
        context = self._context(job)
        job.begin_progress(now)
        remaining = job.total_work_s - job.work_done_s
        context.compute_event = self.engine.schedule(
            max(0.0, remaining), self._work_finished, job, label="work-finished"
        )
        # Schedule the next regular-I/O milestone, if one lies ahead.
        if context.milestone_index < len(context.milestones):
            milestone = context.milestones[context.milestone_index]
            if milestone > job.work_done_s and milestone < job.total_work_s:
                context.regular_event = self.engine.schedule(
                    milestone - job.work_done_s, self._regular_io_due, job, label="regular-io"
                )

    def _stop_progress(self, job: Job) -> None:
        context = self._context(job)
        self._close_compute(job, self.engine.now)
        self.engine.cancel(context.compute_event)
        self.engine.cancel(context.regular_event)
        context.compute_event = None
        context.regular_event = None

    def _close_compute(self, job: Job, now: float) -> None:
        """End ``job``'s open progress interval at ``now`` and charge it as compute."""
        delta = job.pause_progress(now)
        if delta > 0.0:
            self.accounting.record_interval(
                Category.COMPUTE, job.nodes, now - delta, now, job=job.job_id
            )

    def _maybe_resume(self, job: Job) -> None:
        """Resume computing when nothing blocks the job anymore."""
        context = self._contexts.get(job.job_id)
        if context is None:
            return
        if context.blocking_request is not None:
            return
        if context.pending_checkpoint is not None and context.pending_checkpoint.in_flight:
            return
        if job.work_done_s >= job.total_work_s:
            return
        if not job.progressing:
            self._start_progress(job)
        if context.checkpoint_overdue:
            context.checkpoint_overdue = False
            self._checkpoint_due(job)

    # ---------------------------------------------------------------- checkpoints
    def _checkpoint_due(self, job: Job) -> None:
        context = self._contexts.get(job.job_id)
        if context is None:
            return
        context.checkpoint_due_event = None
        now = self.engine.now
        if job.remaining_work_at(now) <= 0.0:
            return
        if context.blocking_request is not None:
            # The job is blocked on application I/O; take the checkpoint as
            # soon as it resumes computing.
            context.checkpoint_overdue = True
            return
        if context.pending_checkpoint is not None:
            # A previous checkpoint request is still outstanding.
            return

        self.checkpoints_requested += 1
        request = IORequest(
            job=job,
            kind=IOKind.CHECKPOINT,
            volume_bytes=job.checkpoint_bytes,
            submitted_at=now,
            on_granted=self._checkpoint_granted,
            on_complete=self._checkpoint_done,
        )
        context.pending_checkpoint = request
        self._record(job, TraceEventType.CHECKPOINT_REQUEST)
        # Under a non-blocking strategy the job keeps computing while it
        # waits for the I/O token.
        if not self.io_sched.nonblocking_checkpoints:
            self._stop_progress(job)
        self.io_sched.submit(request)

    def _checkpoint_granted(self, request: IORequest) -> None:
        job = request.job
        context = self._contexts.get(job.job_id)
        if context is None or request.cancelled:
            return
        now = self.engine.now
        # The checkpoint content captures the job's progress at this instant.
        context.captured_work_s = job.work_done_at(now)
        job.last_capture_time = now
        self._record(job, TraceEventType.CHECKPOINT_START, waited=request.waited)
        # The job does not progress while its checkpoint data is written.
        self._stop_progress(job)

    def _checkpoint_done(self, request: IORequest) -> None:
        job = request.job
        context = self._contexts.get(job.job_id)
        if context is None or request.cancelled:
            return
        captured, context.captured_work_s = context.captured_work_s, None
        context.pending_checkpoint = None
        self._account_request(request)
        if captured is not None:
            job.protect_work(captured)
        self.checkpoints_completed += 1
        self._record(
            job,
            TraceEventType.CHECKPOINT_DONE,
            protected_work=job.work_protected_s,
            commit_time=(request.completed_at or 0.0) - (request.granted_at or 0.0),
            waited=request.waited,
        )

        context.checkpoint_due_event = self.engine.schedule(
            context.checkpoint_redo_delay_s, self._checkpoint_due, job, label="checkpoint-due"
        )
        self._maybe_resume(job)

    # ---------------------------------------------------------------- regular I/O
    def _regular_io_due(self, job: Job) -> None:
        context = self._contexts.get(job.job_id)
        if context is None:
            return
        context.regular_event = None
        self._stop_progress(job)
        context.milestone_index += 1
        self._submit_blocking(job, context, IOKind.REGULAR, context.regular_chunk_bytes)

    # ---------------------------------------------------------------- completion
    def _work_finished(self, job: Job) -> None:
        context = self._contexts.get(job.job_id)
        if context is None:
            return
        context.compute_event = None
        self._stop_progress(job)
        job.work_done_s = job.total_work_s
        self.engine.cancel(context.checkpoint_due_event)
        context.checkpoint_due_event = None
        if context.pending_checkpoint is not None:
            # A checkpoint that has not been granted yet is pointless now.
            self.io_sched.cancel_job(job)
            context.pending_checkpoint = None

        self._record(job, TraceEventType.OUTPUT_START)
        if job.output_bytes > 0.0:
            self._submit_blocking(job, context, IOKind.OUTPUT, job.output_bytes)
        else:
            self._complete_job(job)

    def _complete_job(self, job: Job) -> None:
        self._end_job(job)
        self.jobs_completed += 1
        self._record(job, TraceEventType.JOB_COMPLETE)
        self._dispatch()

    def _end_job(self, job: Job) -> None:
        """Close a completed or failed job: end time, allocation, nodes, context."""
        now = self.engine.now
        context = self._contexts.pop(job.job_id)
        job.end_time = now
        self.accounting.record_allocation(job.nodes, context.allocated_at, now)
        self.pool.release_owner(job)

    # ---------------------------------------------------------------- failures
    def _on_node_failure(self, node_id: int) -> None:
        owner = self.pool.owner_of(node_id)
        if owner is None:
            return
        # The pool is owner-agnostic (object); this simulator only ever
        # registers Job owners, so the assert records that invariant.  A job
        # owns nodes only between _start_job, which creates its context
        # right after the allocation, and _end_job, which pops it right
        # before the release: an owner always has a context.
        assert isinstance(owner, Job), owner
        job = owner
        context = self._contexts[job.job_id]
        self.failures_effective += 1
        now = self.engine.now

        # Stop and account any in-progress compute, then convert the
        # unprotected part of the job's work into lost work.
        self._stop_progress(job)
        lost = max(0.0, job.work_done_s - job.work_protected_s)
        if lost > 0.0:
            self.accounting.move_amount(
                Category.COMPUTE, Category.LOST_WORK, lost * job.nodes, now, job=job.job_id
            )

        self.engine.cancel(context.checkpoint_due_event)
        self.io_sched.cancel_job(job)
        self._end_job(job)
        self._record(job, TraceEventType.JOB_FAILED, node_id=node_id, lost_work=lost)

        # Resubmit at the head of the queue with the remaining work and a
        # recovery read of the last checkpoint (or the original input when no
        # checkpoint had completed yet).
        self._submit_restart(job, now)
        self._dispatch()

    def _submit_restart(self, failed: Job, now: float) -> None:
        remaining = max(failed.total_work_s - failed.work_protected_s, _MIN_RESTART_WORK_S)
        has_checkpoint = failed.work_protected_s > 0.0
        restart = Job(
            app_class=failed.app_class,
            total_work_s=remaining,
            submit_time=now,
            priority=self._next_restart_priority(),
            input_bytes=failed.checkpoint_bytes if has_checkpoint else failed.app_class.input_bytes,
            parent_id=failed.job_id,
            restart_count=failed.restart_count + 1,
        )
        self.restarts.append(restart)
        self._record(
            restart,
            TraceEventType.RESTART_SUBMITTED,
            parent=failed.job_id,
            remaining_work=remaining,
            recovers_from_checkpoint=has_checkpoint,
        )
        self.job_sched.submit(restart)

    def _next_restart_priority(self) -> float:
        self._restart_priority += 1.0
        return self._restart_priority

    # ---------------------------------------------------------------- accounting
    def _account_request(self, request: IORequest) -> None:
        """Attribute the node-seconds of a completed I/O request."""
        job = request.job
        nodes = float(job.nodes)
        submitted = request.submitted_at
        granted = request.granted_at if request.granted_at is not None else submitted
        completed = request.completed_at if request.completed_at is not None else self.engine.now

        if request.kind is IOKind.CHECKPOINT:
            self.accounting.record_interval(
                Category.CHECKPOINT, nodes, granted, completed, job=job.job_id
            )
            if not self.io_sched.nonblocking_checkpoints:
                self.accounting.record_interval(
                    Category.CHECKPOINT_WAIT, nodes, submitted, granted, job=job.job_id
                )
            return
        if request.kind is IOKind.RECOVERY:
            self.accounting.record_interval(
                Category.RECOVERY, nodes, submitted, completed, job=job.job_id
            )
            return

        # Input, output and regular I/O: the un-dilated transfer time is
        # useful; waiting and dilation are waste.
        base = min(self.io.duration_alone(request.volume_bytes), completed - submitted)
        boundary = completed - base
        self.accounting.record_interval(
            Category.BASE_IO, nodes, boundary, completed, job=job.job_id
        )
        self.accounting.record_interval(
            Category.IO_DELAY, nodes, submitted, boundary, job=job.job_id
        )

    def _flush_open_accounting(self) -> None:
        """Close accounting for jobs still running when the horizon is reached."""
        horizon = self.config.horizon_s
        for context in self._contexts.values():
            job = context.job
            self._close_compute(job, horizon)
            self.accounting.record_allocation(job.nodes, context.allocated_at, horizon)

    # ---------------------------------------------------------------- helpers
    def _record(self, job: Job, kind: TraceEventType, **detail) -> None:
        if self.trace is not None:
            self.trace.record(self.engine.now, job, kind, **detail)

    def _context(self, job: Job) -> _JobContext:
        context = self._contexts.get(job.job_id)
        if context is None:
            raise SimulationError(f"no runtime context for job {job.name}")
        return context

    def _build_result(self) -> SimulationResult:
        breakdown = WasteBreakdown.from_accounting(self.accounting)
        window = self.accounting.window
        window_capacity = self.platform.num_nodes * self.accounting.window_length
        utilization = (
            self.accounting.allocated_node_seconds / window_capacity
            if window_capacity > 0.0
            else 0.0
        )
        return SimulationResult(
            strategy=self.strategy.name,
            breakdown=breakdown,
            horizon_s=self.config.horizon_s,
            window=window,
            jobs_submitted=len(self.jobs),
            jobs_completed=self.jobs_completed,
            jobs_failed=self.failures_effective,
            restarts_submitted=len(self.restarts),
            failures_total=len(self.failure_trace),
            failures_effective=self.failures_effective,
            checkpoints_completed=self.checkpoints_completed,
            checkpoints_requested=self.checkpoints_requested,
            node_utilization=utilization,
            io_busy_fraction=(
                self.io.busy_seconds / self.config.horizon_s if self.config.horizon_s > 0 else 0.0
            ),
            events_fired=self.engine.events_fired,
        )


def run_simulation(
    *,
    platform: PlatformSpec,
    workload: list[ApplicationClass],
    strategy: str = "least-waste",
    horizon_days: float = 8.0,
    warmup_days: float = 1.0,
    cooldown_days: float = 1.0,
    seed: int | None = None,
    fixed_period_s: float = 3600.0,
    jobs: list[Job] | None = None,
    failure_trace: FailureTrace | None = None,
) -> SimulationResult:
    """Convenience wrapper: build a :class:`SimulationConfig` and run it once.

    Parameters mirror :class:`~repro.simulation.config.SimulationConfig`,
    with durations in days for readability.  ``jobs`` and ``failure_trace``
    may be supplied to replay fixed initial conditions (e.g. to compare
    strategies on identical scenarios).
    """
    config = SimulationConfig(
        platform=platform,
        classes=tuple(workload),
        strategy=strategy,
        horizon_s=horizon_days * DAY,
        warmup_s=warmup_days * DAY,
        cooldown_s=cooldown_days * DAY,
        seed=seed,
        fixed_period_s=fixed_period_s,
    )
    return Simulation(config, jobs=jobs, failure_trace=failure_trace).run()

"""Campaign jobs: background execution behind the results service.

:class:`JobManager` turns a submitted :class:`~repro.scenarios.campaign.Campaign`
into a :class:`CampaignJob` and queues it.  One daemon thread runs the
queued jobs one at a time, in submission order, through the ordinary
:func:`~repro.scenarios.runner.run_campaign` — the
service layer adds *no* execution semantics of its own, so a job's
:class:`~repro.scenarios.runner.CampaignResult` is repr-identical to the
same campaign run from the CLI against the same store.  All jobs share one
:class:`~repro.store.ResultStore`, which is the whole point: every seed a
job simulates warms the store for every later job (and every CLI user),
and a re-submitted campaign is served entirely from cache.

Progress is observed through the runner's
:class:`~repro.exec.runner.ProgressEvent` stream.  The runner dispatches a
whole campaign at once, so with a process pool the events of different
cells interleave and cells finish in any order; each (scenario, strategy)
cell still emits exactly one final event with ``completed == total``,
which is what advances the job's ``cells_done`` counter and adds the
cell's seeds to ``seeds_cached`` and ``seeds_simulated``.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from collections.abc import Mapping

from repro.errors import ConfigurationError, short_repr
from repro.exec.digest import config_digest
from repro.exec.runner import ParallelRunner, ProgressEvent
from repro.scenarios.campaign import Campaign
from repro.scenarios.runner import CampaignResult, drill_down, run_campaign
from repro.store.base import ResultStore
from repro.units import is_finite

__all__ = ["CampaignJob", "JobManager", "campaign_from_request", "result_payload"]

#: Every key a ``POST /v1/jobs`` body may hold.
_REQUEST_KEYS = frozenset(
    {"preset", "campaign", "toml", "num_runs", "horizon_days", "strategies"}
)


def campaign_from_request(body: Mapping) -> Campaign:
    """Build a campaign from one submitted JSON request body.

    Accepted shapes (exactly one source):

    * ``{"preset": "smoke", ...}`` — a named preset, with optional
      ``num_runs`` / ``horizon_days`` / ``strategies`` overrides;
    * ``{"campaign": {...}}`` — an inline campaign matrix, the same schema
      ``Campaign.from_file`` reads from JSON files;
    * ``{"toml": "..."}`` — a campaign matrix as TOML text, the same schema
      ``Campaign.from_file`` reads from TOML files.

    Any other key is refused, so a misspelt override cannot pass unnoticed.
    """
    if not isinstance(body, Mapping):
        raise ConfigurationError("request body must be a JSON object")
    unknown = sorted(set(map(str, body)) - _REQUEST_KEYS)
    if unknown:
        raise ConfigurationError(
            f"unknown request key(s) {', '.join(map(short_repr, unknown))}; "
            f"expected one of {', '.join(sorted(_REQUEST_KEYS))}"
        )
    sources = [key for key in ("preset", "campaign", "toml") if key in body]
    if len(sources) != 1:
        raise ConfigurationError(
            "submit exactly one campaign source: 'preset', 'campaign' (inline "
            "JSON matrix) or 'toml' (matrix as TOML text)"
        )
    overrides: dict[str, object] = {}
    # JSON true is not the number 1.
    num_runs = body.get("num_runs")
    if num_runs is not None:
        if not isinstance(num_runs, int) or isinstance(num_runs, bool) or num_runs <= 0:
            raise ConfigurationError("num_runs must be a positive integer")
        overrides["num_runs"] = num_runs
    horizon_days = body.get("horizon_days")
    if horizon_days is not None:
        if (
            not isinstance(horizon_days, (int, float))
            or isinstance(horizon_days, bool)
            or not (horizon_days > 0 and is_finite(horizon_days))
        ):
            raise ConfigurationError("horizon_days must be a positive finite number")
        overrides["horizon_days"] = float(horizon_days)
    strategies = body.get("strategies")
    if strategies is not None:
        if not isinstance(strategies, list) or not all(
            isinstance(s, str) for s in strategies
        ):
            raise ConfigurationError("strategies must be an array of spec strings")
        overrides["strategies"] = tuple(strategies)

    source = sources[0]
    if source == "preset":
        from repro.scenarios.presets import make_campaign

        preset = body["preset"]
        if not isinstance(preset, str):
            raise ConfigurationError("preset must be a string")
        return make_campaign(preset, **overrides)
    if overrides:
        raise ConfigurationError(
            "num_runs/horizon_days/strategies overrides only apply to presets; "
            "edit the submitted matrix instead"
        )
    if source == "campaign":
        data = body["campaign"]
        if not isinstance(data, Mapping):
            raise ConfigurationError("'campaign' must be a JSON object (the matrix)")
        return Campaign.from_mapping(data, source="<submitted campaign>")
    try:
        import tomllib
    except ModuleNotFoundError as exc:  # pragma: no cover - py3.10
        raise ConfigurationError(
            "TOML submissions need Python 3.11+ (tomllib) on the server; "
            "submit the matrix as inline JSON under 'campaign' instead"
        ) from exc
    toml_text = body["toml"]
    if not isinstance(toml_text, str):
        raise ConfigurationError("'toml' must be a string (the matrix as TOML text)")
    try:
        data = tomllib.loads(toml_text)
    except (ValueError, RecursionError) as exc:
        # TOMLDecodeError and an integer past Python's digit limit are
        # ValueErrors; RecursionError is text nested deeper than tomllib recurses.
        raise ConfigurationError(f"cannot parse submitted TOML: {exc}") from exc
    return Campaign.from_mapping(data, source="<submitted toml>")


class CampaignJob:
    """One submitted campaign and its lifecycle.

    States: ``queued`` → ``running`` → ``done`` | ``failed``.  All mutable
    fields are guarded by ``_lock``; :meth:`snapshot` is the thread-safe
    read the HTTP layer serves.
    """

    def __init__(self, job_id: str, campaign: Campaign) -> None:
        self.id = job_id
        self.campaign = campaign
        self.scenarios = campaign.scenarios()  # expanded once, reused everywhere
        self.state = "queued"
        self.error: str | None = None
        self.result: CampaignResult | None = None
        self.created_at = time.time()
        self.started_at: float | None = None
        self.finished_at: float | None = None
        self.cells_total = sum(len(s.strategies) for s in self.scenarios)
        self.cells_done = 0
        self.current_cell: str | None = None
        self.seeds_cached = 0
        self.seeds_simulated = 0
        self._lock = threading.Lock()

    # ------------------------------------------------------------ progress
    def on_progress(self, event: ProgressEvent) -> None:
        """Advance the job's counters from one runner progress event."""
        with self._lock:
            self.current_cell = event.label
            if event.completed >= event.total:
                # Every cell ends in exactly one completed==total event
                # (all-cached cells emit it up-front, simulated cells from
                # their final seed), so this counts finished cells.
                self.cells_done += 1
                self.current_cell = None
                self.seeds_cached += event.cached
                self.seeds_simulated += event.total - event.cached

    def snapshot(self) -> dict:
        """JSON-ready view of the job (no result payload; see ``/result``)."""
        with self._lock:
            return {
                "id": self.id,
                "campaign": self.campaign.name,
                "state": self.state,
                "error": self.error,
                "cells_total": self.cells_total,
                "cells_done": self.cells_done,
                "current_cell": self.current_cell,
                "seeds_cached": self.seeds_cached,
                "seeds_simulated": self.seeds_simulated,
                "created_at": self.created_at,
                "started_at": self.started_at,
                "finished_at": self.finished_at,
            }


def result_payload(result: CampaignResult) -> dict:
    """One finished campaign as JSON (floats repr-exact via ``json.dumps``)."""
    return {
        "campaign": result.campaign,
        "strategies": list(result.strategies),
        "outcomes": [
            {
                "scenario": outcome.scenario.name,
                "best": outcome.best_strategy(),
                "summaries": {
                    strategy: summary.as_dict()
                    for strategy, summary in outcome.summaries.items()
                },
            }
            for outcome in result.outcomes
        ],
    }


class JobManager:
    """Submits, tracks and queries campaign jobs over one shared store."""

    def __init__(self, store: ResultStore, *, workers: int = 1) -> None:
        if workers <= 0:
            raise ConfigurationError("workers must be positive")
        self.store = store
        self.workers = workers
        self._jobs: dict[str, CampaignJob] = {}
        self._lock = threading.Lock()
        self._counter = 0
        #: Jobs waiting to run, oldest first, and the one thread that runs
        #: them (``None`` while the queue is empty); both guarded by ``_lock``.
        self._queued: deque[CampaignJob] = deque()
        self._thread: threading.Thread | None = None

    # ------------------------------------------------------------ execution
    def _make_runner(self, progress) -> ParallelRunner:
        return ParallelRunner(
            backend="process" if self.workers > 1 else "serial",
            workers=self.workers,
            cache=self.store,
            progress=progress,
        )

    def submit(self, campaign: Campaign) -> CampaignJob:
        """Register ``campaign`` and queue it behind every earlier job."""
        with self._lock:
            self._counter += 1
            job = CampaignJob(f"job-{self._counter:04d}", campaign)
            self._jobs[job.id] = job
            self._queued.append(job)
            if self._thread is None:
                self._thread = threading.Thread(
                    target=self._drain, name="campaign-jobs", daemon=True
                )
                self._thread.start()
        return job

    def _drain(self) -> None:
        # One job at a time: a burst of submissions queues up instead of
        # running every campaign at once, and each job starts from the
        # store its predecessors warmed.  The thread ends with the queue;
        # the next submission starts another.
        while True:
            with self._lock:
                if not self._queued:
                    self._thread = None
                    return
                job = self._queued.popleft()
            self._run(job)

    def _run(self, job: CampaignJob) -> None:
        with job._lock:
            job.state = "running"
            job.started_at = time.time()
        try:
            runner = self._make_runner(job.on_progress)
            try:
                result = run_campaign(job.campaign, runner)
            finally:
                runner.close()
            with job._lock:
                job.result = result
                job.state = "done"
                job.finished_at = time.time()
        except Exception as exc:  # a failed job must never kill the service
            with job._lock:
                job.error = f"{type(exc).__name__}: {exc}"
                job.state = "failed"
                job.finished_at = time.time()

    # ------------------------------------------------------------ queries
    def get(self, job_id: str) -> CampaignJob | None:
        with self._lock:
            return self._jobs.get(job_id)

    def jobs(self) -> list[CampaignJob]:
        with self._lock:
            return list(self._jobs.values())

    def counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for job in self.jobs():
            counts[job.state] = counts.get(job.state, 0) + 1
        return counts

    # ------------------------------------------------------------ cells
    def cells(
        self,
        job: CampaignJob,
        *,
        scenario: str | None = None,
        strategy: str | None = None,
        seed: int | None = None,
    ) -> list[dict]:
        """Filterable per-(scenario, strategy) cell listing of one done job.

        Each record carries the cell's summary statistics, its store
        coordinates (config digest + the seeds the job ran) and the
        per-seed values those statistics were computed from — the
        self-serve answer to "which simulated node-seconds back this
        number".  ``seed`` filters to cells whose seeds include that
        exact seed.
        """
        result = job.result
        if result is None:
            raise ConfigurationError(f"job {job.id} has no result (state: {job.state})")
        from repro.iosched.registry import resolved_strategy_spec

        records: list[dict] = []
        for outcome in result.outcomes:
            if scenario is not None and outcome.scenario.name != scenario:
                continue
            cell_scenario = outcome.scenario
            wanted = [i for i, s in enumerate(outcome.seeds) if seed is None or s == seed]
            if not wanted:
                continue
            best = outcome.best_strategy()
            for cell_strategy in result.strategies:
                if cell_strategy not in outcome.values:
                    continue
                if strategy is not None and cell_strategy != strategy:
                    continue
                digest = config_digest(cell_scenario.config(cell_strategy))
                records.append({
                    "scenario": cell_scenario.name,
                    "strategy": cell_strategy,
                    "spec": resolved_strategy_spec(
                        cell_strategy, fixed_period_s=cell_scenario.fixed_period_s
                    ),
                    "best": cell_strategy == best,
                    "digest": digest,
                    "stats": outcome.summaries[cell_strategy].as_dict(),
                    "seeds": [outcome.seeds[i] for i in wanted],
                    "values": {
                        str(outcome.seeds[i]): outcome.values[cell_strategy][i]
                        for i in wanted
                    },
                })
        return records

    # ------------------------------------------------------------ drill-down
    def drill(
        self, job: CampaignJob, scenario_name: str, strategy: str, rep: int = 0
    ) -> dict:
        """Waste decomposition of one cell of ``job``, as a JSON payload.

        Served through :mod:`repro.trace`, which re-simulates the one cell
        (and stores its value when the store lacked it).
        """
        by_name = {s.name: s for s in job.scenarios}
        scenario = by_name.get(scenario_name)
        if scenario is None:
            names = ", ".join(repr(name) for name in by_name)
            raise ConfigurationError(
                f"no scenario named {short_repr(scenario_name)} in job {job.id}; "
                f"known scenarios: {names}"
            )
        return drill_down(scenario, strategy, rep, cache=self.store).to_payload()

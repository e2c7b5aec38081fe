#!/usr/bin/env python3
"""End-to-end campaign benchmark of the ``coopckpt`` CLI.

Usage (from the root of a source checkout)::

    python3 perfbench/run.py --workload cielo-cold --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --smoke --seconds 1
    python3 perfbench/run.py --write-reference

Every timed command is a real ``python -m repro.cli`` child process, run
from the source tree (``PYTHONPATH=src``) with the program's defaults: no
``--kernel`` and every ``REPRO_*`` variable stripped.  The benchmark writes
each campaign matrix as a JSON ``campaign --file`` whose
``overrides.base_seed`` is drawn from ``--seed``, so the program only sees
generated inputs.  Stores, spools and scratch files live in a fresh
directory under ``.perfbench-work/`` in the checkout, removed at exit.

Workloads (one (scenario, strategy) cell is one operation):

* ``cielo-cold`` -- the full Cielo of the cielo-reference preset at 40 GB/s
  x 2/20-year node MTBF, oblivious-daly and least-waste, twelve seeds per
  cell, into a fresh filesystem store per repetition.
* ``prospective-cold`` -- the 50 000-node prospective system under a
  two-point bandwidth sweep (least-waste, eight seeds of 1.5 days per
  cell), fresh filesystem store per repetition.
* ``warm-replay`` -- a 56-cell, 560-seed matrix on the miniature Cielo with
  all seven legacy strategies, replayed from a filesystem store filled
  before the timer starts; a replay runs zero simulations.
* ``spool-fleet`` -- the cielo-cold matrix submitted with ``--backend
  spool`` to two ``coopckpt worker`` processes sharing one SQLite store;
  the workers are started (and timed as set-up) before the submitter.

``--trace 0`` reports the end-to-end metrics (median over the repetitions
of one run): ``wall_s``, ``cpu_s`` (user+sys of every child of a
repetition), ``setup_s`` and ``peak_rss_mb``; ``failed_frac`` is printed and
carried by the ``attempted``/``failed`` fields.  The host is shared and its
speed drifts, so a fixed speed probe runs between samples and each time is
scaled to a host of reference speed (``to_reference``); the times as
measured are printed beside them and kept in the results file.  ``--trace 1`` runs one
untraced and one traced repetition (``perfbench/tracer.py``) and reports the
per-layer split plus ``trace.overhead_frac``.  The last stdout line is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.

Correctness: every repetition writes ``--csv``.  A cell fails when its row
is missing or differs from its reference: the committed digests in
``perfbench/reference.json`` for the default seed, and for any seed the
identities below.  A non-zero exit, a traceback or a timeout fails every
cell of the repetition.

* cold and fleet repetitions cycle through six inputs, so that one run's
  median spans several; each cold repetition equals the run's first
  repetition of the same input;
* each warm replay equals the fill run that built its store;
* each fleet CSV equals a serial run of the same matrix;
* the traced CSV equals the untraced one.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import importlib.metadata
import itertools
import json
import os
import platform
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
TRACER = BENCH_DIR / "tracer.py"
REFERENCE = BENCH_DIR / "reference.json"
WORK_ROOT = ROOT / ".perfbench-work"
PY = sys.executable

WORKLOADS = ("cielo-cold", "prospective-cold", "warm-replay", "spool-fleet")
#: The campaign matrix (see ``make_matrix``) each workload runs.
MATRIX_KIND = {
    "cielo-cold": "cielo", "prospective-cold": "prospective",
    "warm-replay": "warm", "spool-fleet": "cielo",
}
DEFAULT_SEED = 0
#: Timed repetitions stop starting once a run has spent this long in total,
#: so every run ends well inside three minutes.
RUN_BUDGET_S = 130.0
CHILD_TIMEOUT_S = 60.0
MIN_REPS = 3
SETUP_PROBES = 5
FLEET_WORKERS = 2
#: Workers exit on their own (code 0) after this long without a claim; the
#: benchmark interrupts them (exit 130, ``INTERRUPTED``) long before that.
WORKER_IDLE_TIMEOUT_S = 60.0
INTERRUPTED = 130
SPOOL_TIMEOUT_S = 60.0
#: Distinct campaign inputs the cold and fleet workloads cycle through in one run.
COLD_INPUTS = 6
#: What the speed probe (``SPEED_PROBE``) takes on the reference host: about
#: its median on the shared 2-vCPU Xeon VM, Python 3.11, the benchmark was
#: written on.
SPEED_REF_S = 0.22
#: How strongly a campaign run follows the probe.  On that host, the slope of
#: log sample time on log probe time ran 0.2 to 0.5 sample by sample, and
#: 0.75 gave the steadiest run medians over five seeds of every workload.
SPEED_EXPONENT = 0.75

#: The uncoordinated baseline, whose I/O shares bandwidth, and Least-Waste.
CIELO_STRATEGIES = ["oblivious-daly", "least-waste"]
LEGACY = [
    "oblivious-fixed", "oblivious-daly", "ordered-fixed", "ordered-daly",
    "orderednb-fixed", "orderednb-daly", "least-waste",
]
MINI_MTBF_YEARS = (16.0 / 365.0, 64.0 / 365.0)

#: End-to-end metrics: name -> unit (``--trace 0``).
END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

#: Per-layer metrics: name -> unit (``--trace 1``).
PER_LAYER = {
    "import.total_s": "s", "import.repro_s": "s", "import.numpy_s": "s",
    "import.scipy_s": "s", "import.modules": "count",
    "scenarios.expand_s": "s", "scenarios.cells": "count", "scenarios.render_s": "s",
    "exec.digest_s": "s", "exec.digest_calls": "count", "exec.dispatch_self_s": "s",
    "exec.seeds_simulated": "count", "exec.seeds_cached": "count",
    "store.get_s": "s", "store.get_calls": "count", "store.hit_ratio": "ratio",
    "store.put_s": "s", "store.put_calls": "count",
    "simulation.init_s": "s", "simulation.run_s": "s",
    "simulation.seed_ms.p50": "ms", "simulation.seed_ms.p90": "ms",
    "simulation.events": "count", "simulation.events_per_seed": "count",
    "simulation.events_per_s": "1/s",
    "workloads.generate_s": "s", "workloads.jobs": "count",
    "platform.failures_s": "s", "platform.failures": "count",
    "platform.nodes.allocate_s": "s", "platform.nodes.allocate_calls": "count",
    "platform.nodes.release_s": "s", "platform.nodes.release_calls": "count",
    "platform.io.start_s": "s", "platform.io.start_calls": "count",
    "platform.io.peak_concurrency": "count",
    "sim.push_calls": "count", "sim.cancel_calls": "count", "sim.engine_self_s": "s",
    "iosched.submit_s": "s", "iosched.submit_calls": "count",
    "jobsched.dispatch_s": "s", "jobsched.dispatch_calls": "count",
    "distributed.tasks_per_s": "1/s", "distributed.batches_claimed": "count",
    "distributed.polls": "count", "distributed.lease_reclaims": "count",
    "distributed.submit_wait_s": "s",
    "trace.overhead_frac": "ratio",
}

#: Per-layer metrics derived from each wrapped span name; a name the tracer
#: reports as dropped takes these metrics out of the result.
SPAN_METRICS = {
    "scenarios.from_file": ("scenarios.expand_s", "scenarios.cells"),
    "scenarios.scenarios": ("scenarios.expand_s", "scenarios.cells"),
    "scenarios.render": ("scenarios.render_s",),
    "scenarios.to_csv": ("scenarios.render_s",),
    "exec.digest": ("exec.digest_s", "exec.digest_calls"),
    "exec.map_seeds": ("exec.dispatch_self_s",),
    "store.get": ("store.get_s", "store.get_calls", "store.hit_ratio", "exec.seeds_cached"),
    "store.put": ("store.put_s", "store.put_calls"),
    "simulation.init": ("simulation.init_s", "simulation.seed_ms.p50", "simulation.seed_ms.p90"),
    "simulation.run": (
        "simulation.run_s", "simulation.seed_ms.p50", "simulation.seed_ms.p90",
        "simulation.events", "simulation.events_per_seed", "simulation.events_per_s",
        "exec.seeds_simulated", "sim.engine_self_s",
    ),
    "workloads.generate": ("workloads.generate_s", "workloads.jobs"),
    "platform.failures": ("platform.failures_s", "platform.failures"),
    "platform.nodes.allocate": ("platform.nodes.allocate_s", "platform.nodes.allocate_calls"),
    "platform.nodes.release": ("platform.nodes.release_s", "platform.nodes.release_calls"),
    "platform.io.start": (
        "platform.io.start_s", "platform.io.start_calls", "platform.io.peak_concurrency",
    ),
    "sim.push": ("sim.push_calls",),
    "sim.cancel": ("sim.cancel_calls",),
    "iosched.submit": ("iosched.submit_s", "iosched.submit_calls"),
    "jobsched.dispatch": ("jobsched.dispatch_s", "jobsched.dispatch_calls"),
    "distributed.submit": ("distributed.submit_wait_s",),
}

TRACEBACK = "Traceback (most recent call last)"


# ---------------------------------------------------------------- matrices
@dataclass(frozen=True)
class Matrix:
    """One campaign matrix, as written to a ``campaign --file`` JSON."""

    key: str
    name: str
    base: str
    overrides: dict
    axes: tuple  # (axis name, override key, values, labels or None)

    def document(self) -> dict:
        axes = []
        for name, key, values, labels in self.axes:
            axis = {"name": name, "key": key, "values": list(values)}
            if labels is not None:
                axis["labels"] = list(labels)
            axes.append(axis)
        return {"name": self.name, "base": self.base, "overrides": self.overrides, "axes": axes}

    def cells(self) -> list[str]:
        """``scenario/strategy`` keys of every cell, in CSV order."""
        labelled = [
            [f"{name}={label}" for label in (labels or [f"{v:g}" for v in values])]
            for name, _, values, labels in self.axes
        ]
        return [
            f"{','.join(combo)}/{strategy}"
            for combo in itertools.product(*labelled)
            for strategy in self.overrides["strategies"]
        ]


def make_matrix(kind: str, base_seed: int, smoke: bool) -> Matrix:
    """The matrix behind a workload: ``cielo``, ``prospective`` or ``warm``."""
    # The cells of a campaign share their seeds' job and failure traces, and
    # the cost of one trace varies by a third or more between seeds: the
    # cold matrices have few cells and many seeds, so that one input costs
    # about what another does.
    suffix = "-smoke" if smoke else ""
    if kind == "cielo":
        if smoke:  # miniature Cielo, seconds per run
            return Matrix(
                "cielo" + suffix, "cielo-reference", "smoke",
                {"base_seed": base_seed, "strategies": CIELO_STRATEGIES, "num_runs": 2},
                (("io", "bandwidth_gbs", (1.0, 4.0), None),),
            )
        return Matrix(
            "cielo", "cielo-reference", "cielo-reference",
            {"base_seed": base_seed, "strategies": CIELO_STRATEGIES, "num_runs": 12},
            (
                ("io", "bandwidth_gbs", (40.0,), None),
                ("mtbf", "node_mtbf_years", (2.0, 20.0), None),
            ),
        )
    if kind == "prospective":
        # Half the preset's horizon: fewer events per seed than on Cielo.
        overrides: dict = {
            "base_seed": base_seed, "strategies": ["least-waste"], "num_runs": 8,
            "horizon_days": 1.5,
        }
        values: tuple = (500.0, 2000.0)
        if smoke:
            overrides.update(num_runs=1, horizon_days=0.25)
        labels = tuple(f"{int(v)}GBs" for v in values)
        return Matrix(
            "prospective" + suffix, "prospective-bandwidth", "prospective-bandwidth",
            overrides, (("io", "bandwidth_gbs", values, labels),),
        )
    if kind == "warm":
        io = (1.0, 4.0) if smoke else (1.0, 2.0, 4.0, 8.0)
        return Matrix(
            "warm" + suffix, "warm-replay", "smoke",
            {"base_seed": base_seed, "strategies": LEGACY, "num_runs": 2 if smoke else 10},
            (
                ("io", "bandwidth_gbs", io, None),
                ("mtbf", "node_mtbf_years", MINI_MTBF_YEARS, ("short", "long")),
            ),
        )
    raise ValueError(kind)


def base_seeds_for(seed: int) -> list[int]:
    """The campaign base seeds generated from a workload seed.

    Cold repetitions cycle through all of them, so one run's median spans
    several inputs and every seed that recurs is checked against its first
    repetition; the other workloads use the first.
    """
    rng = random.Random(seed)
    return [rng.randrange(2**31) for _ in range(COLD_INPUTS)]


# ---------------------------------------------------------------- checks
def row_digest(line: str) -> str:
    return hashlib.sha256(line.encode("utf-8")).hexdigest()[:16]


def csv_rows(text: str) -> dict[str, str]:
    """``scenario/strategy`` -> raw CSV line of every well-formed row."""
    rows: dict[str, str] = {}
    for line in text.splitlines()[1:]:
        try:
            fields = next(csv.reader([line]))
        except (csv.Error, StopIteration):
            continue
        if len(fields) > 2:
            rows[f"{fields[1]}/{fields[2]}"] = line
    return rows


def failed_cells(
    rows: dict[str, str] | None,
    cells: list[str],
    same_as: dict[str, str] | None = None,
    digests: dict[str, str] | None = None,
) -> int:
    """Cells whose row is missing or differs from a reference.

    ``rows`` is ``None`` for a repetition that failed as a whole (non-zero
    exit, traceback, timeout): every cell fails.
    """
    if rows is None:
        return len(cells)
    failed = 0
    for cell in cells:
        line = rows.get(cell)
        if (
            line is None
            or (same_as is not None and same_as.get(cell) != line)
            or (digests is not None and digests.get(cell) != row_digest(line))
        ):
            failed += 1
    return failed


def parse_importtime(stderr: str) -> dict[str, float]:
    """Self time per top-level package from ``python -X importtime``."""
    per_package: dict[str, float] = {}
    modules = 0
    for line in stderr.splitlines():
        match = re.match(r"import time:\s+(\d+) \|\s+\d+ \|(\s*)(\S+)", line)
        if match is None:
            continue
        modules += 1
        package = match.group(3).split(".")[0]
        per_package[package] = per_package.get(package, 0.0) + int(match.group(1)) / 1e6
    return {
        "import.total_s": sum(per_package.values()),
        "import.repro_s": per_package.get("repro", 0.0),
        "import.numpy_s": per_package.get("numpy", 0.0),
        "import.scipy_s": per_package.get("scipy", 0.0),
        "import.modules": modules,
    }


def p90(values: list[float]) -> float:
    if len(values) < 2:
        return sum(values)
    return statistics.quantiles(values, n=10, method="inclusive")[8]


# ---------------------------------------------------------------- host speed
#: The speed probe: a child that starts an interpreter, imports part of the
#: standard library and runs a loop of heap, dict and float work -- the mix
#: a campaign run spends its time on, with none of the program's code.
SPEED_PROBE = """\
import argparse, decimal, email.mime.text, heapq, http.client, json, logging, unittest
heap, table, acc = [], {}, 0.0
for i in range(40_000):
    key = (i * 7919) % 1009
    table[key] = table.get(key, 0.0) + i * 0.5
    heapq.heappush(heap, (key, i))
    if len(heap) > 64:
        acc += heapq.heappop(heap)[0]
"""


def to_reference(value: float, before: float, after: float) -> float:
    """``value`` scaled to a host of reference speed, from the probes around it.

    The host is shared, and its speed drifts by a fifth or more over
    seconds to minutes.  The speed probes run just before and just after a
    sample read that speed; ``SPEED_REF_S`` is what a probe takes at
    reference speed.  A campaign run slows by less than the probe does
    (``SPEED_EXPONENT``), because start-up, simulation and the probe each
    lean on different parts of the host.
    """
    return value * (2.0 * SPEED_REF_S / (before + after)) ** SPEED_EXPONENT


class Probed:
    """Samples of one run, each bracketed by host speed probes."""

    def __init__(self, bench: Bench) -> None:
        self.bench = bench
        self.probes = [bench.speed_probe()]
        self.raw: dict[str, list[float]] = {name: [] for name in END_TO_END}
        self.samples: dict[str, list[float]] = {name: [] for name in END_TO_END}

    def probe(self) -> None:
        self.probes.append(self.bench.speed_probe())

    def add(self, name: str, value: float) -> None:
        """Record ``value``, measured between the last two probes.

        Times are scaled to the reference host (``to_reference``).
        """
        self.raw[name].append(value)
        if END_TO_END[name] == "s":
            kind = 1 if name == "cpu_s" else 0
            value = to_reference(value, self.probes[-2][kind], self.probes[-1][kind])
        self.samples[name].append(value)


# ---------------------------------------------------------------- spans
def span_metrics(traces: list[dict]) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics from the span files of every traced process."""
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    self_time: dict[str, float] = {}
    values: dict[str, list] = {}
    counts: dict[str, int] = {}
    seed_ms: list[float] = []
    dropped: set[str] = set()
    for trace in traces:
        spans = trace["spans"]
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        inits: list[float] = []
        runs: list[float] = []
        for index, (name, start, end, parent, value) in enumerate(spans):
            if name == "store.get" and parent >= 0 and spans[parent][0] == "store.probe":
                continue  # a probe's availability check, timed as the probe
            duration = end - start
            total[name] = total.get(name, 0.0) + duration
            calls[name] = calls.get(name, 0) + 1
            self_time[name] = self_time.get(name, 0.0) + duration - child[index]
            values.setdefault(name, []).append(value)
            if name == "simulation.init":
                inits.append(duration)
            elif name == "simulation.run":
                runs.append(duration)
        seed_ms.extend((i + r) * 1e3 for i, r in zip(inits, runs))
        for name, count in trace["counts"].items():
            counts[name] = counts.get(name, 0) + count
        dropped.update(entry.split(":", 1)[0] for entry in trace["dropped"])

    def t(name: str) -> float:
        return total.get(name, 0.0)

    def n(name: str) -> int:
        return calls.get(name, 0)

    def sum_of(name: str) -> float:
        return sum(v for v in values.get(name, []) if v is not None)

    events = sum_of("simulation.run")
    runs_n = n("simulation.run")
    hits = sum_of("store.get")
    metrics = {
        "scenarios.expand_s": t("scenarios.from_file") + t("scenarios.scenarios"),
        "scenarios.cells": max(values.get("scenarios.scenarios", [0]) or [0]),
        "scenarios.render_s": t("scenarios.render") + t("scenarios.to_csv"),
        "exec.digest_s": t("exec.digest"),
        "exec.digest_calls": n("exec.digest"),
        "exec.dispatch_self_s": self_time.get("exec.map_seeds", 0.0),
        "exec.seeds_simulated": runs_n,
        "exec.seeds_cached": hits,
        "store.get_s": t("store.get"),
        "store.get_calls": n("store.get"),
        "store.hit_ratio": hits / n("store.get") if n("store.get") else 0.0,
        "store.put_s": t("store.put"),
        "store.put_calls": n("store.put"),
        "simulation.init_s": t("simulation.init"),
        "simulation.run_s": t("simulation.run"),
        "simulation.seed_ms.p50": statistics.median(seed_ms) if seed_ms else 0.0,
        "simulation.seed_ms.p90": p90(seed_ms),
        "simulation.events": events,
        "simulation.events_per_seed": events / runs_n if runs_n else 0.0,
        "simulation.events_per_s": events / t("simulation.run") if runs_n else 0.0,
        "workloads.generate_s": t("workloads.generate"),
        "workloads.jobs": sum_of("workloads.generate"),
        "platform.failures_s": t("platform.failures"),
        "platform.failures": sum_of("platform.failures"),
        "platform.nodes.allocate_s": t("platform.nodes.allocate"),
        "platform.nodes.allocate_calls": n("platform.nodes.allocate"),
        "platform.nodes.release_s": t("platform.nodes.release"),
        "platform.nodes.release_calls": n("platform.nodes.release"),
        "platform.io.start_s": t("platform.io.start"),
        "platform.io.start_calls": n("platform.io.start"),
        "platform.io.peak_concurrency": max(
            [v for v in values.get("platform.io.start", []) if v is not None] or [0]
        ),
        "sim.push_calls": counts.get("sim.push", 0),
        "sim.cancel_calls": counts.get("sim.cancel", 0),
        "sim.engine_self_s": self_time.get("simulation.run", 0.0),
        "iosched.submit_s": t("iosched.submit"),
        "iosched.submit_calls": n("iosched.submit"),
        "jobsched.dispatch_s": t("jobsched.dispatch"),
        "jobsched.dispatch_calls": n("jobsched.dispatch"),
        "distributed.submit_wait_s": self_time.get("distributed.submit", 0.0),
    }
    lost = sorted({m for name in dropped for m in SPAN_METRICS.get(name, ())})
    for name in lost:
        metrics.pop(name, None)
    return metrics, sorted(dropped)


# ---------------------------------------------------------------- processes
@dataclass
class Child:
    """One finished child process."""

    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    stdout: str
    stderr: str
    timed_out: bool

    @property
    def ok(self) -> bool:
        return self.code == 0 and not self.timed_out and TRACEBACK not in self.stderr


def usage_cpu(usage) -> float:
    return usage.ru_utime + usage.ru_stime


@dataclass
class Worker:
    """A ``coopckpt worker`` child whose stdout is read for its events."""

    proc: subprocess.Popen
    stderr_path: Path
    reader: threading.Thread | None = None
    ready: threading.Event = field(default_factory=threading.Event)
    ready_at: float | None = None
    metrics_url: str | None = None

    def read_events(self) -> None:
        assert self.proc.stdout is not None
        for raw in self.proc.stdout:
            try:
                event = json.loads(raw)
            except ValueError:
                continue
            if isinstance(event, dict) and event.get("event") == "start" and not self.ready.is_set():
                self.ready_at = time.perf_counter()
                self.metrics_url = event.get("metrics")
                self.ready.set()

    def scrape(self) -> dict | None:
        if self.metrics_url is None:
            return None
        try:
            with urllib.request.urlopen(self.metrics_url, timeout=10) as response:
                return json.loads(response.read())
        except (OSError, ValueError):
            return None


@dataclass
class FleetRep:
    """One spool-fleet repetition, finished once its workers have exited."""

    workers: list[Worker]
    spool: Path
    setup_s: float | None
    submit: Child | None = None
    scraped: list = field(default_factory=list)
    worker_cpu_s: float = 0.0
    worker_rss_mb: float = 0.0
    rows: dict[str, str] | None = None
    workers_ok: bool = True
    drained: bool = False


class Bench:
    """Spawns, times and reaps every child of one benchmark run."""

    def __init__(self, seed: int, smoke: bool) -> None:
        self.seed = seed
        self.smoke = smoke
        self.base_seeds = base_seeds_for(seed)
        self.base_seed = self.base_seeds[0]
        WORK_ROOT.mkdir(exist_ok=True)
        self.scratch = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT))
        self.env = {
            key: value
            for key, value in os.environ.items()
            if not key.startswith("REPRO_") and key != "PYTHONDONTWRITEBYTECODE"
        }
        self.env["PYTHONPATH"] = str(SRC)
        self.env["TMPDIR"] = str(self.scratch)
        self.live: list[subprocess.Popen] = []
        self.serial = itertools.count()
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []
        self.reference = self._load_reference()
        self.template: Path | None = None

    # ------------------------------------------------------------ lifecycle
    def _load_reference(self) -> dict:
        if self.seed != DEFAULT_SEED or not REFERENCE.is_file():
            return {}
        return json.loads(REFERENCE.read_text(encoding="utf-8"))["matrices"]

    def digests(self, matrix: Matrix) -> dict[str, str] | None:
        return self.reference.get(matrix.key, {}).get(str(matrix.overrides["base_seed"]))

    def close(self) -> None:
        for proc in list(self.live):
            self._kill(proc)
            self.reap(proc, 10.0)
        shutil.rmtree(self.scratch, ignore_errors=True)

    def fresh(self, tag: str) -> Path:
        path = self.scratch / f"{tag}-{next(self.serial)}"
        path.mkdir()
        return path

    def write_matrix(self, matrix: Matrix) -> Path:
        path = self.fresh("matrix") / f"{matrix.key}.json"
        path.write_text(json.dumps(matrix.document(), indent=1), encoding="utf-8")
        return path

    # ------------------------------------------------------------ children
    def spawn(self, argv: list[str], **streams) -> subprocess.Popen:
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=self.env, stdin=subprocess.DEVNULL,
            start_new_session=True, **streams,
        )
        self.live.append(proc)
        return proc

    @staticmethod
    def _kill(proc: subprocess.Popen, sig: int = signal.SIGKILL) -> None:
        try:
            os.killpg(proc.pid, sig)
        except (ProcessLookupError, PermissionError):
            pass

    def reap(self, proc: subprocess.Popen, timeout: float):
        """Wait for ``proc`` (killing it after ``timeout``); return (code, rusage, timed out)."""
        expired = threading.Event()

        def expire() -> None:
            expired.set()
            self._kill(proc)

        timer = threading.Timer(timeout, expire)
        timer.daemon = True
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.live.remove(proc)
        if proc.stdout is not None:  # a worker's event pipe, read to its end by now
            proc.stdout.close()
        return proc.returncode, usage, expired.is_set()

    def run(self, argv: list[str], timeout: float = CHILD_TIMEOUT_S) -> Child:
        tag = self.fresh("child")
        with open(tag / "stdout", "wb") as out, open(tag / "stderr", "wb") as err:
            start = time.perf_counter()
            proc = self.spawn(argv, stdout=out, stderr=err)
            code, usage, timed_out = self.reap(proc, timeout)
            wall = time.perf_counter() - start
        return Child(
            code=code,
            wall_s=wall,
            cpu_s=usage_cpu(usage),
            rss_mb=usage.ru_maxrss / 1024.0,
            stdout=(tag / "stdout").read_text(encoding="utf-8", errors="replace"),
            stderr=(tag / "stderr").read_text(encoding="utf-8", errors="replace"),
            timed_out=timed_out,
        )

    def cli(self, args: list[str], spans: Path | None = None) -> list[str]:
        if spans is None:
            return [PY, "-m", "repro.cli", *args]
        return [PY, str(TRACER), str(spans), "--", *args]

    def campaign(self, matrix_file: Path, store: Path, *extra: str,
                 spans: Path | None = None) -> tuple[Child, dict[str, str] | None]:
        """Run one ``campaign --file``; return the child and its CSV rows."""
        out = store.parent / f"{store.name}-{next(self.serial)}.csv"
        child = self.run(self.cli(
            ["campaign", "--file", str(matrix_file), "--cache-dir", str(store),
             *extra, "--csv", str(out)],
            spans,
        ))
        if not child.ok or not out.is_file():
            self.notes.append(f"campaign failed (exit {child.code}): {child.stderr.strip()[-300:]}")
            return child, None
        return child, csv_rows(out.read_text(encoding="utf-8"))

    def count(self, rows, matrix: Matrix, same_as=None) -> int:
        cells = matrix.cells()
        failed = failed_cells(rows, cells, same_as, self.digests(matrix))
        self.attempted += len(cells)
        self.failed += failed
        return failed

    def speed_probe(self) -> tuple[float, float]:
        """Wall and CPU seconds of the speed probe, isolated from ``PYTHONPATH``."""
        child = self.run([PY, "-I", "-c", SPEED_PROBE])
        if not child.ok:
            raise SystemExit(f"error: the speed probe failed: {child.stderr.strip()[-500:]}")
        return child.wall_s, child.cpu_s

    def setup_probe(self) -> float:
        child = self.run([PY, "-c", "import repro.cli"])
        if not child.ok:
            raise SystemExit(f"error: `import repro.cli` failed: {child.stderr.strip()[-500:]}")
        return child.wall_s

    def import_split(self) -> dict[str, float]:
        samples = []
        for _ in range(3):
            child = self.run([PY, "-X", "importtime", "-c", "import repro.cli"])
            samples.append(parse_importtime(child.stderr))
        return {key: statistics.median(s[key] for s in samples) for key in samples[0]}

    def read_spans(self, paths: list[Path]) -> list[dict]:
        traces = []
        for path in paths:
            try:
                traces.append(json.loads(path.read_text(encoding="utf-8")))
            except (OSError, ValueError):
                self.notes.append(f"no spans from {path.name}")
        return traces

    # ------------------------------------------------------------ fleet
    def empty_store(self) -> Path:
        """An empty SQLite result store, made once by the program's ``cache export``.

        Two workers that open a new SQLite file at the same moment can fail
        with "database is locked" (the switch of a new file to WAL mode does
        not wait for the busy timeout), so each fleet starts from a copy of
        this store, as an operator would create the shared store first.
        """
        if self.template is None:
            home = self.fresh("template")
            (home / "empty").mkdir()
            path = home / "store.sqlite"
            made = self.run(self.cli(
                ["cache", "export", "--cache-dir", str(home / "empty"), "--to", str(path)]
            ))
            if not made.ok or not path.is_file():
                raise SystemExit(f"error: creating a SQLite store failed: {made.stderr.strip()[-500:]}")
            self.template = path
        return self.template

    def start_fleet(self, matrix_file: Path, traced: bool = False) -> FleetRep:
        """Start the workers, wait until each reports ``start``, then submit."""
        home = self.fresh("fleet")
        spool, store = home / "spool", home / "store.sqlite"
        shutil.copyfile(self.empty_store(), store)
        workers = []
        start = time.perf_counter()
        for index in range(FLEET_WORKERS):
            args = [
                "worker", "--spool", str(spool), "--cache-dir", str(store), "--store", "sqlite",
                "--log-json", "--metrics-port", "0", "--quiet",
                "--idle-timeout", f"{WORKER_IDLE_TIMEOUT_S:g}",
            ]
            spans = home / f"worker{index}.spans.json" if traced else None
            stderr_path = home / f"worker{index}.stderr"
            with open(stderr_path, "wb") as err:
                proc = self.spawn(self.cli(args, spans), stdout=subprocess.PIPE, stderr=err)
            worker = Worker(proc, stderr_path)
            worker.reader = threading.Thread(target=worker.read_events, daemon=True)
            worker.reader.start()
            workers.append(worker)
        ready = all(worker.ready.wait(CHILD_TIMEOUT_S) for worker in workers)
        setup = max(w.ready_at for w in workers) - start if ready else None
        rep = FleetRep(workers=workers, spool=spool, setup_s=setup)
        if not ready:
            self.notes.append("fleet workers never reported start")
            return rep
        rep.submit, rows = self.campaign(
            matrix_file, store, "--store", "sqlite", "--backend", "spool",
            "--spool", str(spool), "--spool-timeout", f"{SPOOL_TIMEOUT_S:g}",
            spans=home / "submit.spans.json" if traced else None,
        )
        rep.scraped = [worker.scrape() for worker in workers]
        rep.rows = rows
        return rep

    def finish_fleet(self, rep: FleetRep) -> None:
        """Interrupt the workers and reap them.

        A worker interrupted while it holds a claim hands the claim back, so
        the spool then no longer reads as drained (``check_drained``).
        """
        for worker in rep.workers:
            self._kill(worker.proc, signal.SIGINT)
        for worker in rep.workers:
            code, usage, timed_out = self.reap(worker.proc, CHILD_TIMEOUT_S)
            worker.reader.join(timeout=10)
            rep.worker_cpu_s += usage_cpu(usage)
            rep.worker_rss_mb = max(rep.worker_rss_mb, usage.ru_maxrss / 1024.0)
            stderr = worker.stderr_path.read_text(encoding="utf-8", errors="replace")
            if code not in (0, INTERRUPTED) or timed_out or TRACEBACK in stderr:
                rep.workers_ok = False
                self.notes.append(f"worker exit {code}: {stderr.strip()[-300:]}")

    def check_drained(self, rep: FleetRep) -> None:
        if rep.submit is not None:
            status = self.run(self.cli(["worker", "--spool", str(rep.spool), "--status"]))
            rep.drained = status.ok and re.search(r" 0 pending, 0 claimed,", status.stdout) is not None

    def fleet_rows(self, rep: FleetRep):
        """The rep's CSV rows, or ``None`` when the fleet itself misbehaved."""
        reclaims = sum((m or {}).get("lease_reclaims", 0) for m in rep.scraped)
        if (
            rep.submit is None
            or not rep.workers_ok
            or not rep.drained
            or reclaims
            or any(m is None for m in rep.scraped)
        ):
            self.notes.append(
                f"fleet repetition failed: workers_ok={rep.workers_ok} "
                f"drained={rep.drained} lease_reclaims={reclaims}"
            )
            return None
        return rep.rows


# ---------------------------------------------------------------- workloads
def timed_loop(seconds: float, started: float, probed: Probed, one_rep) -> None:
    """Repeat ``one_rep`` for ``seconds``, at least ``MIN_REPS`` times.

    A speed probe precedes the first repetition and follows every one, and
    the end-to-end samples ``one_rep`` returns (metric name -> value) are
    recorded between them.  A repetition that would end past the run budget
    is never started.
    """
    probed.probe()
    loop_start = time.perf_counter()
    for reps in itertools.count(1):
        rep_start = time.perf_counter()
        sample = one_rep()
        probed.probe()
        for name, value in sample.items():
            probed.add(name, value)
        now = time.perf_counter()
        if now + (now - rep_start) - started > RUN_BUDGET_S:
            return
        if reps >= MIN_REPS and now - loop_start >= seconds:
            return


def measure(bench: Bench, workload: str, seconds: float, started: float) -> Probed:
    """Untraced repetitions: the end-to-end samples of one workload."""
    probed = Probed(bench)
    if workload == "spool-fleet":
        matrices = [make_matrix("cielo", seed, bench.smoke) for seed in bench.base_seeds]
        files = [bench.write_matrix(matrix) for matrix in matrices]
        reps: list[tuple[int, FleetRep]] = []

        def fleet_rep() -> dict[str, float]:
            which = len(reps) % len(files)
            rep = bench.start_fleet(files[which])
            bench.finish_fleet(rep)
            reps.append((which, rep))
            sample = {} if rep.setup_s is None else {"setup_s": rep.setup_s}
            if rep.submit is not None:
                sample.update(
                    wall_s=rep.submit.wall_s,
                    cpu_s=rep.submit.cpu_s + rep.worker_cpu_s,
                    peak_rss_mb=max(rep.submit.rss_mb, rep.worker_rss_mb),
                )
            return sample

        timed_loop(seconds, started, probed, fleet_rep)
        #: input index -> rows of the same matrix run serially, after the timed loop
        serial: dict[int, dict[str, str] | None] = {}
        for which, rep in reps:
            bench.check_drained(rep)
            if which not in serial:
                serial[which] = bench.campaign(files[which], bench.fresh("serial") / "store")[1]
            bench.count(bench.fleet_rows(rep), matrices[which], same_as=serial[which] or {})
        return probed

    for _ in range(SETUP_PROBES):
        value = bench.setup_probe()
        probed.probe()
        probed.add("setup_s", value)
    kind = MATRIX_KIND[workload]
    seeds = bench.base_seeds if kind != "warm" else bench.base_seeds[:1]
    matrices = [make_matrix(kind, seed, bench.smoke) for seed in seeds]
    files = [bench.write_matrix(matrix) for matrix in matrices]
    #: input index -> CSV rows every later repetition must reproduce
    first: dict[int, dict[str, str] | None] = {}
    store = bench.fresh("store") / "store"
    if kind == "warm":
        _, first[0] = bench.campaign(files[0], store)
    done = itertools.count()

    def one_rep() -> dict[str, float]:
        index = next(done) % len(files)
        target = store if kind == "warm" else bench.fresh("store") / "store"
        child, rows = bench.campaign(files[index], target)
        if kind == "warm" and rows is not None and ", 0 simulation(s)" not in child.stdout:
            bench.notes.append("warm replay simulated seeds")
            rows = None
        first.setdefault(index, rows)
        bench.count(rows, matrices[index], same_as=first[index] or {})
        return {"wall_s": child.wall_s, "cpu_s": child.cpu_s, "peak_rss_mb": child.rss_mb}

    timed_loop(seconds, started, probed, one_rep)
    return probed


def traced(bench: Bench, workload: str) -> dict[str, float]:
    """One untraced and one traced repetition: the per-layer split."""
    metrics: dict[str, float] = dict(bench.import_split())
    distributed = {
        "distributed.tasks_per_s": 0.0, "distributed.batches_claimed": 0,
        "distributed.polls": 0, "distributed.lease_reclaims": 0,
    }
    if workload == "spool-fleet":
        matrix = make_matrix("cielo", bench.base_seed, bench.smoke)
        matrix_file = bench.write_matrix(matrix)
        plain = bench.start_fleet(matrix_file)
        bench.finish_fleet(plain)
        bench.check_drained(plain)
        plain_rows = bench.fleet_rows(plain)
        bench.count(plain_rows, matrix)
        rep = bench.start_fleet(matrix_file, traced=True)
        bench.finish_fleet(rep)
        bench.check_drained(rep)
        bench.count(bench.fleet_rows(rep), matrix, same_as=plain_rows or {})
        home = rep.spool.parent
        spans = bench.read_spans(sorted(home.glob("*.spans.json")))
        walls = (plain.submit, rep.submit)
        scraped = [m for m in rep.scraped if m is not None]
        distributed = {
            "distributed.tasks_per_s": sum(m["tasks_per_s"] for m in scraped),
            "distributed.batches_claimed": sum(m["batches_claimed"] for m in scraped),
            "distributed.polls": sum(m["polls"] for m in scraped),
            "distributed.lease_reclaims": sum(m["lease_reclaims"] for m in scraped),
        }
    else:
        matrix = make_matrix(MATRIX_KIND[workload], bench.base_seed, bench.smoke)
        matrix_file = bench.write_matrix(matrix)
        fill: dict[str, str] | None = None
        if workload == "warm-replay":
            store = bench.fresh("store") / "store"
            _, fill = bench.campaign(matrix_file, store)
            fill = fill or {}
            stores = (store, store)
        else:
            stores = (bench.fresh("store") / "store", bench.fresh("store") / "store")
        plain, plain_rows = bench.campaign(matrix_file, stores[0])
        bench.count(plain_rows, matrix, same_as=fill)
        span_file = bench.scratch / "campaign.spans.json"
        child, rows = bench.campaign(matrix_file, stores[1], spans=span_file)
        bench.count(rows, matrix, same_as=plain_rows or {})
        spans = bench.read_spans([span_file])
        walls = (plain, child)
    layers, dropped = span_metrics(spans)
    for name in dropped:
        bench.notes.append(f"dropped span {name}: its per-layer metrics are left out")
    metrics.update(layers)
    metrics.update(distributed)
    if all(w is not None and w.ok for w in walls):
        metrics["trace.overhead_frac"] = walls[1].wall_s / walls[0].wall_s - 1.0
    return metrics


# ---------------------------------------------------------------- reporting
def host_facts() -> dict[str, object]:
    facts: dict[str, object] = {
        "nproc": os.cpu_count(),
        "cpu_model": platform.processor() or platform.machine(),
        "python": platform.python_version(),
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    facts["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    for package in ("numpy", "scipy"):
        try:
            facts[package] = importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            facts[package] = "missing"
    facts["commit"] = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=False
        )
        if done.returncode == 0:
            facts["commit"] = done.stdout.strip()
    return facts


def run_workload(workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    started = time.perf_counter()
    bench = Bench(seed, smoke)
    speed: list[float] = []
    try:
        if trace:
            values = traced(bench, workload)
            metrics = {
                name: {"value": values[name], "unit": unit, "n": 1}
                for name, unit in PER_LAYER.items()
                if name in values
            }
        else:
            probed = measure(bench, workload, seconds, started)
            metrics = {
                name: {
                    "value": statistics.median(probed.samples[name]),
                    "unit": unit,
                    "n": len(probed.samples[name]),
                    "samples": probed.samples[name],
                    "raw": statistics.median(probed.raw[name]),
                    "raw_samples": probed.raw[name],
                }
                for name, unit in END_TO_END.items()
                if probed.samples[name]
            }
            speed = [wall for wall, _ in probed.probes]
    finally:
        bench.close()
    return {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "smoke": smoke,
        "speed_probes_s": speed,
        "correct": bench.failed == 0 and bench.attempted > 0 and (
            trace or len(metrics) == len(END_TO_END)
        ),
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
        "notes": bench.notes,
        "elapsed_s": time.perf_counter() - started,
    }


def print_report(result: dict, host: dict) -> None:
    print(f"# {result['workload']} seed={result['seed']} trace={result['trace']} "
          f"smoke={result['smoke']} elapsed={result['elapsed_s']:.1f}s")
    print(f"# host {json.dumps(host, sort_keys=True)}")
    print(f"  {'metric':<32} {'value':>14} {'unit':<6} {'n':>4} {'as timed':>14}")
    for name, metric in result["metrics"].items():
        print(f"  {name:<32} {metric['value']:>14.6g} {metric['unit']:<6} {metric['n']:>4}"
              + (f" {metric['raw']:>14.6g}" if "raw" in metric else ""))
    frac = result["failed"] / result["attempted"] if result["attempted"] else 1.0
    print(f"  {'failed_frac':<32} {frac:>14.6g} {'ratio':<6} {result['attempted']:>4}")
    if result["speed_probes_s"]:
        print(f"  {'speed probe (reference)':<32} "
              f"{statistics.median(result['speed_probes_s']):>14.6g} {'s':<6} "
              f"{len(result['speed_probes_s']):>4} {SPEED_REF_S:>14.6g}")
    for note in result["notes"]:
        print(f"  note: {note}")


def write_reference() -> None:
    """Regenerate ``reference.json``: row digests of every matrix at the default seed."""
    bench = Bench(DEFAULT_SEED, smoke=False)
    bench.reference = {}
    matrices: dict[str, dict[str, dict[str, str]]] = {}
    try:
        for kind in ("cielo", "prospective", "warm"):
            for smoke in (False, True):
                for seed in bench.base_seeds if kind != "warm" else bench.base_seeds[:1]:
                    matrix = make_matrix(kind, seed, smoke)
                    store = bench.fresh("store") / "store"
                    _, rows = bench.campaign(bench.write_matrix(matrix), store)
                    if rows is None or set(rows) != set(matrix.cells()):
                        raise SystemExit(f"error: reference run of {matrix.key} failed: {bench.notes}")
                    matrices.setdefault(matrix.key, {})[str(seed)] = {
                        cell: row_digest(rows[cell]) for cell in matrix.cells()
                    }
    finally:
        bench.close()
    REFERENCE.write_text(
        json.dumps({"seed": DEFAULT_SEED, "matrices": matrices}, indent=1, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    print(f"wrote {REFERENCE.relative_to(ROOT)}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="how long the timed repetitions of one run last")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics, 1: per-layer metrics "
                        "(default with --workload all: both)")
    parser.add_argument("--smoke", action="store_true",
                        help="miniature matrices that finish in seconds")
    parser.add_argument("--write-reference", action="store_true",
                        help=f"regenerate {REFERENCE.name} at the default seed and exit")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "cli.py").is_file():
        print(f"error: no program to benchmark: {SRC / 'repro' / 'cli.py'} is missing",
              file=sys.stderr)
        return 2
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    compiled = subprocess.run(
        [PY, "-m", "compileall", "-q", str(SRC)], env=env, cwd=ROOT,
        stdout=subprocess.DEVNULL, check=False,
    )
    if compiled.returncode != 0:
        print("error: compiling src/ failed", file=sys.stderr)
        return 2
    if args.write_reference:
        write_reference()
        return 0

    host = host_facts()
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    modes = (False, True) if args.trace is None else (bool(args.trace),)
    results = []
    for workload in workloads:
        for trace in modes:
            result = run_workload(workload, args.seed, args.seconds, trace, args.smoke)
            print_report(result, host)
            results.append(result)
    WORK_ROOT.mkdir(exist_ok=True)
    (WORK_ROOT / f"results-{args.workload}-seed{args.seed}.json").write_text(
        json.dumps({"host": host, "results": results}, indent=1), encoding="utf-8"
    )

    def plain(result: dict, prefix: str) -> dict:
        return {
            prefix + name: {"value": metric["value"], "unit": metric["unit"]}
            for name, metric in result["metrics"].items()
        }

    metrics: dict = {}
    for result in results:
        metrics.update(plain(result, "" if len(results) == 1 else f"{result['workload']}/"))
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

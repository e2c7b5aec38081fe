"""Command-line interface.

``coopckpt`` exposes the reproduction experiments and a single-run simulator
from the shell::

    coopckpt table1
    coopckpt strategies [--json]
    coopckpt lower-bound --bandwidth-gbs 40
    coopckpt simulate --strategy least-waste --bandwidth-gbs 80 --horizon-days 4
    coopckpt simulate --strategy "ordered[policy=fixed,period_s=1800]"
    coopckpt figure1 --num-runs 3 --horizon-days 6 [--chart] [--csv fig1.csv]
    coopckpt figure2 --num-runs 3 --workers 4 --cache-dir ~/.cache/coopckpt
    coopckpt figure3 --num-runs 2
    coopckpt ablation --study interference
    coopckpt trace --strategy least-waste --horizon-days 2
    coopckpt trace --campaign smoke --scenario "io=1,mtbf=short" \\
        --strategy least-waste --seed 0 --cache-dir ~/.cache/coopckpt --csv cell.csv
    coopckpt campaign --preset smoke --workers 4 --cache-dir ~/.cache/coopckpt
    coopckpt campaign --preset prospective-resilience --details --csv campaign.csv
    coopckpt campaign --file my-sweep.toml --backend spool --spool ./spool --cache-dir ./cache
    coopckpt worker --spool ./spool --cache-dir ./cache
    coopckpt cache stats --cache-dir ./cache
    coopckpt cache gc --cache-dir ./cache --older-than 30 --digest-version unversioned
    coopckpt cache export --cache-dir ./cache --to ./cache.sqlite
    coopckpt cache stats --cache-dir ./cache.sqlite --store sqlite
    coopckpt serve --port 8181 --cache-dir ./cache.sqlite --store sqlite --workers 4

Every experiment prints a plain-text table mirroring the corresponding table
or figure of the paper; the figure commands can additionally export CSV/JSON
and render an ASCII chart of the series.  The experiment subcommands accept
``--workers N`` to fan the Monte-Carlo repetitions out over worker processes,
``--cache-dir PATH`` to reuse previously simulated (config, strategy, seed)
results from disk, and ``--backend spool --spool DIR`` to distribute cells to
``worker`` daemons (any number, on any machines sharing the two
directories); all of it leaves the numbers bit-identical to a serial,
uncached run.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from collections.abc import Callable, Sequence

from repro.errors import ConfigurationError, ReproError
from repro.exec.runner import ParallelRunner, backend_names
from repro.scenarios.presets import CAMPAIGNS
from repro.store import DEFAULT_STORE, open_store, store_kinds
from repro.units import HOUR
from repro.workloads.apex import apex_workload
from repro.workloads.cielo import cielo_platform

__all__ = ["main", "build_parser"]

_STRATEGY_HELP = (
    "a strategy name or parameterized spec, e.g. least-waste or "
    "'ordered[policy=fixed,period_s=1800]' (see `coopckpt strategies`)"
)


def _add_runner_arguments(sub: argparse.ArgumentParser) -> None:
    """Execution-backend options shared by the experiment subcommands."""
    sub.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="worker processes for the Monte-Carlo repetitions (1 = serial)",
    )
    sub.add_argument(
        "--cache-dir", metavar="PATH", default=None,
        help="on-disk result cache; re-runs only simulate unseen seeds",
    )
    _add_store_argument(sub)
    sub.add_argument(
        "--backend", choices=backend_names(), default=None,
        help="execution backend (default: serial, or process when --workers > 1); "
        "'spool' distributes cells to external `worker` daemons via --spool",
    )
    sub.add_argument(
        "--spool", metavar="DIR", default=None,
        help="work-spool directory shared with `worker` daemons (spool backend)",
    )
    sub.add_argument(
        "--spool-timeout", type=float, default=None, metavar="S",
        help="abort a spooled batch after S seconds without completion "
        "(default: wait indefinitely)",
    )
    sub.add_argument(
        "--lease-ttl", type=float, default=60.0, metavar="S",
        help="spool lease expiry before an abandoned task is reclaimed; each "
        "claim is judged by the TTL its claiming worker recorded, so this "
        "only governs claims with no metadata (spool backend, default 60)",
    )
    sub.add_argument(
        "--max-inflight", type=int, default=128, metavar="N",
        help="backpressure: at most N task specs of one batch sit in the "
        "spool at a time; the rest enter as earlier ones complete "
        "(spool backend, default 128)",
    )


def _add_store_argument(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--store", metavar="KIND", default=None,
        help="result-store backend behind --cache-dir: "
        f"{', '.join(store_kinds())} (default: {DEFAULT_STORE}; third-party "
        "kinds via repro.store.register_store)",
    )


def _runner_from_args(args: argparse.Namespace) -> ParallelRunner:
    """Build (once) the runner selected by ``--backend``/``--workers``/``--cache-dir``.

    The runner is remembered on ``args`` so :func:`main` can shut its
    backend down (worker pools included) on success, failure and Ctrl-C
    alike.
    """
    existing = getattr(args, "_runner", None)
    if existing is not None:
        return existing
    workers = getattr(args, "workers", 1)
    if workers <= 0:
        raise ConfigurationError("--workers must be positive")
    backend = getattr(args, "backend", None)
    if backend is None:
        backend = "process" if workers > 1 else "serial"
    runner = ParallelRunner(
        backend=backend,
        workers=workers,
        cache=_store_from_args(args),
        spool_dir=getattr(args, "spool", None),
        spool_timeout_s=getattr(args, "spool_timeout", None),
        spool_lease_ttl_s=getattr(args, "lease_ttl", 60.0),
        spool_max_inflight=getattr(args, "max_inflight", 128),
    )
    args._runner = runner
    return runner


def _store_from_args(args: argparse.Namespace):
    """Open (once) the result store selected by ``--store``/``--cache-dir``.

    Like the runner, the store is remembered on ``args`` so :func:`main`
    closes it on every exit path (a SQLite store checkpoints its WAL on
    close).  No ``--cache-dir`` means no store — and ``--store`` alone is a
    loud error rather than a silently uncached run.
    """
    existing = getattr(args, "_store", None)
    if existing is not None:
        return existing
    cache_dir = getattr(args, "cache_dir", None)
    kind = getattr(args, "store", None)
    if cache_dir is None:
        if kind is not None:
            raise ConfigurationError(
                "--store selects the backend of --cache-dir; add "
                "--cache-dir PATH to attach a cache"
            )
        return None
    store = open_store(kind or DEFAULT_STORE, cache_dir)
    args._store = store
    return store


class _SubcommandParser(argparse.ArgumentParser):
    """A subcommand parser that can add its options when it first parses.

    ``lint`` takes its options from :mod:`repro.analysis`; deferring them
    keeps every other command from importing the linter.
    """

    def __init__(
        self,
        *args,
        add_options: Callable[[argparse.ArgumentParser], None] | None = None,
        **kwargs,
    ) -> None:
        super().__init__(*args, **kwargs)
        self._add_options = add_options

    def parse_known_args(self, args=None, namespace=None):
        if self._add_options is not None:
            add_options, self._add_options = self._add_options, None
            add_options(self)
        return super().parse_known_args(args, namespace)


def _add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    from repro.analysis.cli import add_lint_arguments

    add_lint_arguments(parser)


def build_parser() -> argparse.ArgumentParser:
    """Build the ``coopckpt`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="coopckpt",
        description=(
            "Reproduction of 'Optimal Cooperative Checkpointing for Shared "
            "High-Performance Computing Platforms' (Herault et al., IPDPS 2018)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_SubcommandParser)

    sub.add_parser("table1", help="print Table 1 (APEX workload characteristics)")

    strategies = sub.add_parser(
        "strategies",
        help="list registered strategy kinds, their parameters and the spec syntax",
    )
    strategies.add_argument(
        "--json", action="store_true", help="machine-readable JSON instead of text"
    )

    bound = sub.add_parser("lower-bound", help="print the theoretical lower bound (Theorem 1)")
    bound.add_argument("--bandwidth-gbs", type=float, default=160.0)
    bound.add_argument("--node-mtbf-years", type=float, default=2.0)

    sim = sub.add_parser("simulate", help="run one simulation and print its summary")
    sim.add_argument("--strategy", default="least-waste", metavar="SPEC", help=_STRATEGY_HELP)
    sim.add_argument("--bandwidth-gbs", type=float, default=80.0)
    sim.add_argument("--node-mtbf-years", type=float, default=2.0)
    sim.add_argument("--horizon-days", type=float, default=6.0)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--fixed-period-hours", type=float, default=1.0)

    fig1 = sub.add_parser("figure1", help="waste ratio vs. bandwidth (Cielo)")
    fig1.add_argument("--num-runs", type=int, default=3)
    fig1.add_argument("--horizon-days", type=float, default=6.0)
    fig1.add_argument("--node-mtbf-years", type=float, default=2.0)
    fig1.add_argument(
        "--bandwidths-gbs", type=float, nargs="+", default=[40.0, 80.0, 120.0, 160.0]
    )
    fig1.add_argument("--detailed", action="store_true", help="include candlestick statistics")
    fig1.add_argument("--chart", action="store_true", help="append an ASCII chart of the series")
    fig1.add_argument("--csv", metavar="PATH", help="also write the series as CSV")
    fig1.add_argument("--json", metavar="PATH", help="also write the series as JSON")
    _add_runner_arguments(fig1)

    fig2 = sub.add_parser("figure2", help="waste ratio vs. node MTBF (Cielo, 40 GB/s)")
    fig2.add_argument("--num-runs", type=int, default=3)
    fig2.add_argument("--horizon-days", type=float, default=6.0)
    fig2.add_argument("--bandwidth-gbs", type=float, default=40.0)
    fig2.add_argument("--mtbf-years", type=float, nargs="+", default=[2.0, 5.0, 20.0, 50.0])
    fig2.add_argument("--detailed", action="store_true", help="include candlestick statistics")
    fig2.add_argument("--chart", action="store_true", help="append an ASCII chart of the series")
    fig2.add_argument("--csv", metavar="PATH", help="also write the series as CSV")
    fig2.add_argument("--json", metavar="PATH", help="also write the series as JSON")
    _add_runner_arguments(fig2)

    fig3 = sub.add_parser(
        "figure3", help="minimum bandwidth for 80%% efficiency (prospective system)"
    )
    fig3.add_argument("--num-runs", type=int, default=2)
    fig3.add_argument("--horizon-days", type=float, default=4.0)
    fig3.add_argument("--mtbf-years", type=float, nargs="+", default=[5.0, 15.0, 25.0])
    fig3.add_argument("--csv", metavar="PATH", help="also write the table as CSV")
    _add_runner_arguments(fig3)

    ablation = sub.add_parser("ablation", help="fixed-period and interference-model ablations")
    ablation.add_argument(
        "--study", choices=("fixed-period", "interference"), default="fixed-period"
    )
    ablation.add_argument("--bandwidth-gbs", type=float, default=60.0)
    ablation.add_argument("--node-mtbf-years", type=float, default=2.0)
    ablation.add_argument("--horizon-days", type=float, default=3.0)
    ablation.add_argument("--num-runs", type=int, default=2)
    ablation.add_argument(
        "--periods-hours", type=float, nargs="+", default=[0.5, 1.0, 2.0, 4.0],
        help="fixed periods to compare (fixed-period study)",
    )
    ablation.add_argument(
        "--alphas", type=float, nargs="+", default=[0.0, 0.25, 1.0],
        help="interference degradation factors (interference study)",
    )
    ablation.add_argument(
        "--strategy", default=None, metavar="SPEC",
        help=f"strategy to ablate (defaults per study); {_STRATEGY_HELP}",
    )
    _add_runner_arguments(ablation)

    campaign = sub.add_parser(
        "campaign", help="run a scenario campaign (platform/failure/workload matrix)"
    )
    campaign_source = campaign.add_mutually_exclusive_group()
    campaign_source.add_argument(
        "--preset", choices=sorted(CAMPAIGNS), default=None,
        help="campaign preset to expand (default: smoke)",
    )
    campaign_source.add_argument(
        "--file", metavar="PATH", default=None,
        help="user-defined campaign matrix (TOML or JSON; see Campaign.from_file)",
    )
    campaign.add_argument(
        "--num-runs", type=int, default=None,
        help="Monte-Carlo repetitions per (scenario, strategy) cell",
    )
    campaign.add_argument(
        "--horizon-days", type=float, default=None,
        help="simulated segment length per repetition",
    )
    campaign.add_argument(
        "--strategies", nargs="+", default=None, metavar="SPEC",
        help=f"strategies to compare (default: the preset's own set); {_STRATEGY_HELP}",
    )
    campaign.add_argument(
        "--details", action="store_true",
        help="append per-scenario candlestick statistics",
    )
    campaign.add_argument(
        "--best-summary", action="store_true",
        help="re-simulate each scenario's best strategy once and print its full summary",
    )
    campaign.add_argument("--csv", metavar="PATH", help="also write every cell as CSV")
    _add_runner_arguments(campaign)

    worker = sub.add_parser(
        "worker",
        help="run a spool-draining worker daemon (distributed campaign execution)",
    )
    worker.add_argument(
        "--spool", metavar="DIR", required=True,
        help="work-spool directory shared with the submitter and other workers",
    )
    worker.add_argument(
        "--cache-dir", metavar="PATH", default=None,
        help="shared result cache results are delivered through "
        "(required unless --status)",
    )
    _add_store_argument(worker)
    worker.add_argument(
        "--worker-id", metavar="ID", default=None,
        help="identity recorded in claims (default: <host>-<pid>)",
    )
    worker.add_argument(
        "--poll-interval", type=float, default=0.5, metavar="S",
        help="sleep between claim attempts when the spool is empty (default: 0.5)",
    )
    worker.add_argument(
        "--lease-ttl", type=float, default=60.0, metavar="S",
        help="lease expiry after which peers reclaim this worker's tasks "
        "(default: 60; heartbeats run at a quarter of this)",
    )
    worker.add_argument(
        "--batch-size", type=int, default=8, metavar="N",
        help="tasks claimed per shard rename (default: 8); the excess of a "
        "bigger shard is handed straight back to peers",
    )
    worker.add_argument(
        "--max-tasks", type=int, default=None, metavar="N",
        help="exit after completing N tasks (default: unbounded)",
    )
    worker.add_argument(
        "--metrics-port", type=int, default=None, metavar="PORT",
        help="serve /metrics and /healthz JSON on this local port "
        "(0 = OS-assigned; the chosen port is printed at startup)",
    )
    worker.add_argument(
        "--log-json", action="store_true",
        help="emit structured JSON log lines (one object per event) instead "
        "of human-oriented text",
    )
    worker.add_argument(
        "--drain", action="store_true",
        help="exit once the spool is fully drained (no pending or claimed tasks)",
    )
    worker.add_argument(
        "--idle-timeout", type=float, default=None, metavar="S",
        help="exit after S seconds without claiming any task",
    )
    worker.add_argument(
        "--status", action="store_true",
        help="print the spool's task counts and exit (no work is claimed)",
    )
    worker.add_argument("--quiet", action="store_true", help="suppress per-task log lines")

    cache = sub.add_parser("cache", help="inspect, prune and migrate a result store")
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)
    cache_stats = cache_sub.add_parser(
        "stats", help="entry count, bytes and digest versions present"
    )
    cache_stats.add_argument("--cache-dir", metavar="PATH", required=True)
    _add_store_argument(cache_stats)
    cache_gc = cache_sub.add_parser(
        "gc", help="prune entries by age and/or digest version"
    )
    cache_gc.add_argument("--cache-dir", metavar="PATH", required=True)
    _add_store_argument(cache_gc)
    cache_gc.add_argument(
        "--older-than", type=float, default=None, metavar="DAYS",
        help="remove entries not written/refreshed for this many days",
    )
    cache_gc.add_argument(
        "--digest-version", metavar="V", default=None,
        help="remove entries recorded under digest-format version V "
        "('unversioned' matches pre-version entries)",
    )
    cache_gc.add_argument(
        "--dry-run", action="store_true", help="report what would be removed, remove nothing"
    )
    cache_export = cache_sub.add_parser(
        "export",
        help="copy every entry losslessly into another store "
        "(e.g. filesystem directory -> one SQLite file)",
    )
    cache_export.add_argument(
        "--cache-dir", metavar="PATH", required=True, help="source store path"
    )
    _add_store_argument(cache_export)
    cache_export.add_argument(
        "--to", metavar="PATH", required=True, help="destination store path"
    )
    cache_export.add_argument(
        "--to-store", metavar="KIND", default=None,
        help="destination backend (default: sqlite when the source is "
        "filesystem, filesystem otherwise)",
    )
    cache_import = cache_sub.add_parser(
        "import",
        help="copy every entry losslessly from another store into --cache-dir",
    )
    cache_import.add_argument(
        "--cache-dir", metavar="PATH", required=True, help="destination store path"
    )
    _add_store_argument(cache_import)
    cache_import.add_argument(
        "--from", dest="from_path", metavar="PATH", required=True,
        help="source store path",
    )
    cache_import.add_argument(
        "--from-store", metavar="KIND", default=None,
        help="source backend (default: sqlite when the destination is "
        "filesystem, filesystem otherwise)",
    )

    serve = sub.add_parser(
        "serve",
        help="serve campaign results over HTTP: submit campaigns, poll "
        "progress, list cells, export CSV, drill into waste decompositions",
    )
    serve.add_argument(
        "--host", default="127.0.0.1", metavar="ADDR",
        help="address to bind (default: 127.0.0.1; 0.0.0.0 exposes the "
        "service to the network)",
    )
    serve.add_argument(
        "--port", type=int, default=8181, metavar="PORT",
        help="port to bind (default: 8181; 0 = OS-assigned, printed at startup)",
    )
    serve.add_argument(
        "--cache-dir", metavar="PATH", required=True,
        help="result store every job reads and warms (created if missing)",
    )
    _add_store_argument(serve)
    serve.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="worker processes per running job (1 = in-process serial)",
    )

    trace = sub.add_parser(
        "trace",
        help="job timeline of one simulation, or the waste decomposition of "
        "one campaign cell (--campaign)",
    )
    trace.add_argument(
        "--strategy", default=None, metavar="SPEC",
        help=f"{_STRATEGY_HELP} (default: least-waste, or the campaign "
        "scenario's first strategy)",
    )
    # Timeline-mode knobs default to None so campaign mode can reject them
    # loudly instead of silently ignoring them (defaults in _cmd_trace).
    trace.add_argument("--bandwidth-gbs", type=float, default=None, help="timeline mode (default 80)")
    trace.add_argument("--node-mtbf-years", type=float, default=None, help="timeline mode (default 2)")
    trace.add_argument("--horizon-days", type=float, default=None, help="timeline mode (default 2)")
    trace.add_argument(
        "--seed", type=int, default=0,
        help="simulation seed; with --campaign, the 0-based repetition index "
        "within the cell (selects the N-th derived seed)",
    )
    trace.add_argument(
        "--max-events", type=int, default=None,
        help="timeline lines to print (timeline mode, default 40)",
    )
    trace.add_argument(
        "--campaign", metavar="NAME|PATH", default=None,
        help="drill into one campaign cell: a preset name "
        f"({', '.join(sorted(CAMPAIGNS))}) or a TOML/JSON campaign file",
    )
    trace.add_argument(
        "--scenario", metavar="NAME", default=None,
        help="expanded scenario name within the campaign, e.g. "
        "'io=1,mtbf=short' (default: the campaign's only scenario)",
    )
    trace.add_argument(
        "--csv", metavar="PATH", default=None,
        help="also write the waste decomposition as CSV (--campaign mode)",
    )
    trace.add_argument(
        "--cache-dir", metavar="PATH", default=None,
        help="result cache: re-drilling a cell replays its trace sidecar for "
        "free, and the decomposition is verified against the cell's cached "
        "waste value (--campaign mode)",
    )
    _add_store_argument(trace)

    sub.add_parser(
        "lint",
        help="static contract checks: determinism, fsops, digest, lock and "
        "registry discipline (also: python -m repro.analysis)",
        add_options=_add_lint_arguments,
    )
    return parser


def _cmd_table1(_: argparse.Namespace) -> str:
    from repro.experiments.table1 import render_table1

    return render_table1()


def _cmd_strategies(args: argparse.Namespace) -> str:
    import json

    from repro.iosched.spec import kind_info, legacy_strategy_names, strategy_kinds

    kinds = {name: kind_info(name) for name in strategy_kinds()}
    if args.json:
        payload = {
            "syntax": "kind or kind[param=value,...]",
            "kinds": {
                name: {
                    "description": info.description,
                    "display": info.display,
                    "params": [
                        {
                            "name": param.name,
                            "type": param.type.__name__,
                            "default": param.default,
                            "choices": list(param.choices) if param.choices else None,
                            "help": param.help,
                        }
                        for param in info.params
                    ],
                }
                for name, info in kinds.items()
            },
            "legacy": list(legacy_strategy_names()),
        }
        return json.dumps(payload, indent=2)
    lines = [
        "Strategy specs: <kind> or <kind>[param=value,...], e.g. "
        "ordered[policy=fixed,period_s=1800]",
        "",
    ]
    for name, info in kinds.items():
        lines.append(f"{name} — {info.description}" if info.description else name)
        for param in info.params:
            default = param.describe_default()
            detail = f"default {default}"
            if param.choices:
                choices = ", ".join(map(str, param.choices))
                detail += f", one of: {choices}"
            lines.append(
                f"  {param.name:<10} {param.type.__name__:<6} {detail:<28} {param.help}"
            )
        lines.append("")
    lines.append(
        "Legacy names (aliases, also the cache-key form of their combination):"
    )
    lines.append("  " + ", ".join(legacy_strategy_names()))
    lines.append("")
    lines.append(
        "Third-party strategies: repro.iosched.register_strategy(kind, factory) — "
        "see the README's 'Custom strategies' section."
    )
    return "\n".join(lines)


def _cmd_lower_bound(args: argparse.Namespace) -> str:
    from repro.experiments.theory import theoretical_waste

    platform = cielo_platform(
        bandwidth_gbs=args.bandwidth_gbs, node_mtbf_years=args.node_mtbf_years
    )
    workload = apex_workload(platform)
    bound = theoretical_waste(workload, platform)
    lines = [
        f"Theoretical lower bound on {platform.name} "
        f"({args.bandwidth_gbs:g} GB/s, {args.node_mtbf_years:g}-year node MTBF)",
        f"  constrained (lambda > 0) : {bound.constrained}",
        f"  lambda                   : {bound.lam:.3e}",
        f"  I/O pressure (Eq. 6)     : {bound.io_pressure:.3f}",
        f"  waste lower bound        : {bound.waste:.3f}",
        f"  efficiency upper bound   : {bound.efficiency:.3f}",
        "  per-class periods (hours):",
    ]
    for name, period, daly in zip(bound.class_names, bound.periods, bound.daly_periods):
        lines.append(f"    {name:<10}: optimal {period / HOUR:6.2f}  (Daly {daly / HOUR:6.2f})")
    return "\n".join(lines)


def _cmd_simulate(args: argparse.Namespace) -> str:
    from repro.simulation.simulator import run_simulation

    platform = cielo_platform(
        bandwidth_gbs=args.bandwidth_gbs, node_mtbf_years=args.node_mtbf_years
    )
    result = run_simulation(
        platform=platform,
        workload=apex_workload(platform),
        strategy=args.strategy,
        horizon_days=args.horizon_days,
        seed=args.seed,
        fixed_period_s=args.fixed_period_hours * HOUR,
    )
    return result.summary()


def _sweep_output(result, rendered: str, args: argparse.Namespace, title: str) -> str:
    """Shared post-processing of the Figure 1/2 sweeps (detail, chart, export)."""
    from repro.experiments.export import sweep_to_csv, sweep_to_json, write_text
    from repro.experiments.plotting import sweep_chart
    from repro.experiments.report import render_sweep_detailed

    parts = [rendered]
    if getattr(args, "detailed", False):
        parts.append(render_sweep_detailed(result, title=f"{title} (detailed)"))
    if getattr(args, "chart", False):
        parts.append(sweep_chart(result))
    if getattr(args, "csv", None):
        path = write_text(args.csv, sweep_to_csv(result))
        parts.append(f"wrote {path}")
    if getattr(args, "json", None):
        path = write_text(args.json, sweep_to_json(result))
        parts.append(f"wrote {path}")
    return "\n\n".join(parts)


def _cmd_figure1(args: argparse.Namespace) -> str:
    from repro.experiments.figure1 import Figure1Config, render_figure1, run_figure1

    config = Figure1Config(
        bandwidths_gbs=tuple(args.bandwidths_gbs),
        node_mtbf_years=args.node_mtbf_years,
        horizon_days=args.horizon_days,
        num_runs=args.num_runs,
    )
    result = run_figure1(config, runner=_runner_from_args(args))
    return _sweep_output(result, render_figure1(result), args, "Figure 1")


def _cmd_figure2(args: argparse.Namespace) -> str:
    from repro.experiments.figure2 import Figure2Config, render_figure2, run_figure2

    config = Figure2Config(
        node_mtbf_years=tuple(args.mtbf_years),
        bandwidth_gbs=args.bandwidth_gbs,
        horizon_days=args.horizon_days,
        num_runs=args.num_runs,
    )
    result = run_figure2(config, runner=_runner_from_args(args))
    return _sweep_output(result, render_figure2(result), args, "Figure 2")


def _cmd_figure3(args: argparse.Namespace) -> str:
    from repro.experiments.figure3 import Figure3Config, render_figure3, run_figure3

    config = Figure3Config(
        node_mtbf_years=tuple(args.mtbf_years),
        horizon_days=args.horizon_days,
        num_runs=args.num_runs,
    )
    result = run_figure3(config, runner=_runner_from_args(args))
    rendered = render_figure3(result)
    if args.csv:
        from repro.experiments.export import figure3_to_csv, write_text

        path = write_text(args.csv, figure3_to_csv(result))
        rendered += f"\n\nwrote {path}"
    return rendered


def _cmd_ablation(args: argparse.Namespace) -> str:
    from repro.experiments.ablation import (
        fixed_period_ablation,
        interference_model_ablation,
        render_ablation,
    )

    platform = cielo_platform(
        bandwidth_gbs=args.bandwidth_gbs, node_mtbf_years=args.node_mtbf_years
    )
    workload = apex_workload(platform)
    runner = _runner_from_args(args)
    if args.study == "fixed-period":
        result = fixed_period_ablation(
            platform,
            workload,
            strategy=args.strategy or "oblivious-fixed",
            periods_hours=tuple(args.periods_hours),
            horizon_days=args.horizon_days,
            num_runs=args.num_runs,
            runner=runner,
        )
        title = (
            f"Fixed-period ablation on {platform.name} "
            f"({args.bandwidth_gbs:g} GB/s, {args.node_mtbf_years:g}-year node MTBF)"
        )
    else:
        result = interference_model_ablation(
            platform,
            workload,
            strategy=args.strategy or "oblivious-daly",
            alphas=tuple(args.alphas),
            horizon_days=args.horizon_days,
            num_runs=args.num_runs,
            runner=runner,
        )
        title = (
            f"Interference-model ablation on {platform.name} "
            f"({args.bandwidth_gbs:g} GB/s, {args.node_mtbf_years:g}-year node MTBF)"
        )
    return render_ablation(title, result)


def _cmd_campaign(args: argparse.Namespace) -> str:
    import dataclasses

    from repro.scenarios.campaign import Campaign
    from repro.scenarios.presets import make_campaign
    from repro.scenarios.report import campaign_to_csv, render_campaign, render_campaign_details
    from repro.scenarios.runner import CampaignRunner

    overrides: dict[str, object] = {}
    if args.num_runs is not None:
        if args.num_runs <= 0:
            raise ConfigurationError("--num-runs must be positive")
        overrides["num_runs"] = args.num_runs
    if args.horizon_days is not None:
        overrides["horizon_days"] = args.horizon_days
    if args.strategies is not None:
        overrides["strategies"] = tuple(args.strategies)
    if args.file is not None:
        campaign = Campaign.from_file(args.file)
        if overrides:  # CLI overrides beat the file's own settings
            campaign = dataclasses.replace(campaign, base=campaign.base.apply(**overrides))
    else:
        campaign = make_campaign(args.preset or "smoke", **overrides)

    runner = CampaignRunner(runner=_runner_from_args(args))
    result = runner.run(campaign)
    parts = [campaign.describe(), "", render_campaign(result)]
    if args.details:
        parts.append("")
        parts.append(render_campaign_details(result))
    if args.best_summary:
        for outcome in result.outcomes:
            best = outcome.best_strategy()
            # No winner to re-simulate: the outcome is empty, or (in a
            # hand-assembled result) the winner is a strategy the scenario
            # does not declare, which Scenario.config() would reject.
            if best is None or best not in outcome.scenario.strategies:
                continue
            detail = runner.detail(outcome.scenario, best)
            parts.append("")
            parts.append(f"--- {outcome.scenario.name} / {best} (first seed) ---")
            parts.append(detail.summary())
    if args.cache_dir is not None and runner.runner.cache is not None:
        stats = runner.runner.stats
        remote = f", {stats.remote_seeds} remote seed(s)" if stats.remote_seeds else ""
        parts.append("")
        parts.append(
            f"cache: {stats.cache_hits} hit(s), {stats.tasks_run} simulation(s)"
            f"{remote} this run ({runner.runner.cache.root})"
        )
    if args.csv:
        from repro.experiments.export import write_text

        path = write_text(args.csv, campaign_to_csv(result))
        parts.append("")
        parts.append(f"wrote {path}")
    return "\n".join(parts)


def _cmd_worker(args: argparse.Namespace) -> str:
    import json as json_module
    from pathlib import Path

    from repro.distributed.spool import WorkSpool
    from repro.distributed.worker import SpoolWorker

    if args.status and not Path(args.spool).is_dir():
        # --status must never create the spool: a typo'd path would report a
        # perfectly healthy empty spool (and fool CI's drain assertion).
        raise ConfigurationError(f"no spool at {args.spool}")
    spool = WorkSpool(args.spool, lease_ttl_s=args.lease_ttl)
    if args.status:
        return f"spool {spool.root}: {spool.status().describe()}"
    if args.cache_dir is None:
        raise ConfigurationError("worker needs --cache-dir: the shared result cache")
    if args.poll_interval <= 0:
        raise ConfigurationError("--poll-interval must be positive")
    if args.batch_size <= 0:
        raise ConfigurationError("--batch-size must be positive")

    def _json_event(event: dict) -> None:
        print(json_module.dumps(event, separators=(",", ":")), flush=True)

    worker = SpoolWorker(
        spool,
        _store_from_args(args),
        poll_interval_s=args.poll_interval,
        batch_size=args.batch_size,
        max_tasks=args.max_tasks,
        log=None if (args.quiet or args.log_json) else print,
        event_log=_json_event if args.log_json else None,
        **({"worker_id": args.worker_id} if args.worker_id else {}),
    )
    metrics_server = None
    if args.metrics_port is not None:
        from repro.distributed.metrics import WorkerMetricsServer

        metrics_server = WorkerMetricsServer(worker.metrics, port=args.metrics_port)
    banner = {
        "worker": worker.worker_id,
        "spool": str(spool.root),
        "cache": str(args.cache_dir),
    }
    if metrics_server is not None:
        banner["metrics"] = metrics_server.url
    if args.log_json:
        _json_event({"ts": time.time(), "event": "start", **banner})
    else:
        line = f"worker {worker.worker_id}: spool {spool.root}, cache {args.cache_dir}"
        if metrics_server is not None:
            line += f", metrics {metrics_server.url}"
        print(line, flush=True)
    try:
        stats = worker.run(drain=args.drain, idle_timeout_s=args.idle_timeout)
    finally:
        if metrics_server is not None:
            metrics_server.close()
    return f"worker {worker.worker_id}: {stats.describe()}"


def _cmd_cache(args: argparse.Namespace) -> str:
    from repro.exec.digest import DIGEST_VERSION
    from repro.store import copy_store

    kind = args.store or DEFAULT_STORE
    if args.cache_command in ("export", "import"):
        # Migrations default the *other* side to the other built-in backend,
        # which makes the common moves one flag each:
        #   cache export --cache-dir ./cache --to ./cache.sqlite
        #   cache import --cache-dir ./cache --from ./cache.sqlite
        other_default = "sqlite" if kind == "filesystem" else "filesystem"
        if args.cache_command == "export":
            src = open_store(kind, args.cache_dir, must_exist=True)
            dst = open_store(args.to_store or other_default, args.to)
        else:
            src = open_store(
                args.from_store or other_default, args.from_path, must_exist=True
            )
            dst = open_store(kind, args.cache_dir)
        try:
            report = copy_store(src, dst)
        finally:
            src.close()
            dst.close()
        return f"copied {report.describe()}: {src.describe()} -> {dst.describe()}"
    # Never create the store here: a typo'd --cache-dir would otherwise
    # report a perfectly healthy empty cache instead of the mistake.
    store = open_store(kind, args.cache_dir, must_exist=True)
    try:
        if args.cache_command == "stats":
            stats = store.stats()
            lines = [
                f"cache {store.root} ({store.kind})",
                f"  entries      : {stats.entries}",
                f"  total bytes  : {stats.total_bytes}",
                f"  digest now   : version {DIGEST_VERSION}",
            ]
            if stats.trace_sidecars:
                lines.insert(
                    3,
                    f"  trace sidecars: {stats.trace_sidecars} ({stats.trace_bytes} bytes)",
                )
            if stats.versions:
                lines.append("  versions     :")
                for version, count in stats.versions.items():
                    stale = "" if version == DIGEST_VERSION else "  (prunable: cache gc --digest-version)"
                    lines.append(f"    {version:<12}: {count} entr{'y' if count == 1 else 'ies'}{stale}")
            return "\n".join(lines)
        if args.older_than is not None and args.older_than < 0:
            raise ConfigurationError("--older-than must be non-negative")
        report = store.gc(
            older_than_s=args.older_than * 86400.0 if args.older_than is not None else None,
            digest_version=args.digest_version,
            dry_run=args.dry_run,
        )
        verb = "would remove" if args.dry_run else "removed"
        return (
            f"cache {store.root}: scanned {report.scanned} entr{'y' if report.scanned == 1 else 'ies'}, "
            f"{verb} {report.removed} ({report.reclaimed_bytes} bytes)"
        )
    finally:
        store.close()


def _cmd_serve(args: argparse.Namespace) -> str:
    from repro.service import CampaignService, JobManager

    if not 0 <= args.port <= 65535:
        raise ConfigurationError(f"--port must be between 0 and 65535, got {args.port}")
    if args.workers <= 0:
        raise ConfigurationError("--workers must be positive")
    store = _store_from_args(args)  # closed by main() on every exit path
    service = CampaignService(
        JobManager(store, workers=args.workers), host=args.host, port=args.port
    )
    print(
        f"serving campaign results on {service.url} ({store.describe()})",
        flush=True,
    )
    print(
        "endpoints: /healthz /metrics /v1/presets /v1/jobs "
        "(POST a campaign, then GET .../result .../csv .../cells .../trace)",
        flush=True,
    )
    try:
        service.serve_forever()
    finally:
        service.close()
    return "server stopped"


def _cmd_trace(args: argparse.Namespace) -> str:
    from repro.simulation.config import SimulationConfig
    from repro.simulation.simulator import Simulation
    from repro.units import DAY

    # Two modes share the subcommand; flags of one are errors in the other
    # (never silently ignored).
    timeline_only = ("bandwidth_gbs", "node_mtbf_years", "horizon_days", "max_events")
    campaign_only = ("scenario", "csv", "cache_dir", "store")
    if args.campaign is not None:
        stray = [name for name in timeline_only if getattr(args, name) is not None]
        if stray:
            flags = ", ".join("--" + name.replace("_", "-") for name in stray)
            raise ConfigurationError(
                f"{flags} only appl{'ies' if len(stray) == 1 else 'y'} to the "
                "timeline mode; a --campaign cell is fully defined by its "
                "scenario (use --scenario/--strategy/--seed to address it)"
            )
        return _cmd_trace_cell(args)
    stray = [name for name in campaign_only if getattr(args, name) is not None]
    if stray:
        flags = ", ".join("--" + name.replace("_", "-") for name in stray)
        raise ConfigurationError(f"{flags} require(s) --campaign: the cell drill-down mode")
    platform = cielo_platform(
        bandwidth_gbs=args.bandwidth_gbs if args.bandwidth_gbs is not None else 80.0,
        node_mtbf_years=args.node_mtbf_years if args.node_mtbf_years is not None else 2.0,
    )
    config = SimulationConfig(
        platform=platform,
        classes=tuple(apex_workload(platform)),
        strategy=args.strategy or "least-waste",
        horizon_s=(args.horizon_days if args.horizon_days is not None else 2.0) * DAY,
        warmup_s=0.0,
        cooldown_s=0.0,
        seed=args.seed,
        collect_trace=True,
    )
    simulation = Simulation(config)
    result = simulation.run()
    assert simulation.trace is not None
    max_events = args.max_events if args.max_events is not None else 40
    lines = [result.summary(), "", f"timeline (first {max_events} events):"]
    for event in simulation.trace.events[:max_events]:
        detail = " ".join(f"{k}={v}" for k, v in sorted(event.detail.items()))
        lines.append(f"  t={event.time / HOUR:9.3f} h  {event.job_name:<14} {event.kind.value:<20} {detail}")
    intervals = simulation.trace.achieved_checkpoint_intervals()
    if intervals:
        lines.append("")
        lines.append("achieved checkpoint intervals (hours), per job:")
        for job_id, values in list(intervals.items())[:10]:
            formatted = ", ".join(f"{v / HOUR:.2f}" for v in values)
            lines.append(f"  job {job_id}: {formatted}")
    waits = {j: w for j, w in simulation.trace.io_wait_by_job().items() if w > 0.0}
    if waits:
        lines.append("")
        lines.append("I/O queue wait (hours), top jobs:")
        for job_id, wait in sorted(waits.items(), key=lambda kv: (-kv[1], kv[0]))[:10]:
            lines.append(f"  job {job_id}: {wait / HOUR:.2f}")
    return "\n".join(lines)


def _cmd_trace_cell(args: argparse.Namespace) -> str:
    from pathlib import Path

    from repro.scenarios.campaign import Campaign
    from repro.scenarios.presets import make_campaign
    from repro.scenarios.runner import CampaignRunner
    from repro.trace import decomposition_to_csv, render_decomposition

    if args.campaign in CAMPAIGNS:
        campaign = make_campaign(args.campaign)
    elif Path(args.campaign).is_file():
        campaign = Campaign.from_file(args.campaign)
    else:
        raise ConfigurationError(
            f"unknown campaign {args.campaign!r}: neither a preset "
            f"({', '.join(sorted(CAMPAIGNS))}) nor a campaign file"
        )
    scenarios = campaign.scenarios()
    if args.scenario is None:
        if len(scenarios) > 1:
            names = ", ".join(repr(s.name) for s in scenarios)
            raise ConfigurationError(
                f"campaign {campaign.name!r} expands to {len(scenarios)} "
                f"scenarios; pick one with --scenario: {names}"
            )
        scenario = scenarios[0]
    else:
        by_name = {s.name: s for s in scenarios}
        scenario = by_name.get(args.scenario)
        if scenario is None:
            names = ", ".join(repr(name) for name in by_name)
            raise ConfigurationError(
                f"no scenario named {args.scenario!r} in campaign "
                f"{campaign.name!r}; known scenarios: {names}"
            )
    strategy = args.strategy if args.strategy is not None else scenario.strategies[0]

    # _runner_from_args registers the runner on args so main()'s finally
    # block closes any backend it grows (the no-orphaned-workers guarantee).
    runner = CampaignRunner(runner=_runner_from_args(args))
    drill = runner.drill_down_detailed(scenario, strategy, rep=args.seed)
    decomposition = drill.decomposition
    parts = [render_decomposition(decomposition)]
    if runner.runner.cache is not None:
        # A pre-drill recorded value implies repr-exact agreement (the drill
        # raises on contradiction); only then is a match claimed — CI greps
        # this line, and a fresh drill writing its own entry must not
        # self-confirm (e.g. through a typo'd --cache-dir).
        if drill.recorded_value is not None:
            parts.append(
                f"components sum to {decomposition.waste_ratio!r} — "
                "matches the cached cell value"
            )
        else:
            parts.append(
                f"components sum to {decomposition.waste_ratio!r} "
                "(cell was not in the cache before; its value and trace "
                "sidecar are now stored)"
            )
    if args.csv:
        from repro.experiments.export import write_text

        path = write_text(args.csv, decomposition_to_csv(decomposition))
        parts.append(f"wrote {path}")
    return "\n".join(parts)


def _cmd_lint(args: argparse.Namespace) -> str:
    from repro.analysis.cli import run_from_args

    output, code = run_from_args(args)
    # main() returns this instead of 0, so `coopckpt lint` exits 1 on
    # findings like any other linter (2 stays reserved for misconfiguration).
    args._exit_code = code
    return output


_COMMANDS = {
    "table1": _cmd_table1,
    "strategies": _cmd_strategies,
    "lower-bound": _cmd_lower_bound,
    "simulate": _cmd_simulate,
    "figure1": _cmd_figure1,
    "figure2": _cmd_figure2,
    "figure3": _cmd_figure3,
    "ablation": _cmd_ablation,
    "campaign": _cmd_campaign,
    "worker": _cmd_worker,
    "cache": _cmd_cache,
    "serve": _cmd_serve,
    "trace": _cmd_trace,
    "lint": _cmd_lint,
}


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code.

    Failures exit non-zero with a one-line message on stderr (2 for library
    errors, 130 for Ctrl-C), and any execution backend the command built —
    worker pools included — is shut down on every path, so an aborted
    campaign leaves no orphaned worker processes behind.  Interrupting a
    run never corrupts an attached cache: entries are written atomically,
    so everything completed before the interrupt stays valid for the next
    (resuming) run.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        output = _COMMANDS[args.command](args)
        print(output)
        return getattr(args, "_exit_code", 0)
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130
    except BrokenPipeError:
        # The reader went away (e.g. `coopckpt campaign | head`); that is not
        # an error.  Re-point stdout at devnull so interpreter shutdown does
        # not raise a second time while flushing.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        runner = getattr(args, "_runner", None)
        if runner is not None:
            runner.close()
        store = getattr(args, "_store", None)
        if store is not None:
            store.close()


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

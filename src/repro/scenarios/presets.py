"""Named campaign presets.

The presets bracket the regimes the paper argues about rather than a single
machine: the reference Cielo matrix (weak vs. strong I/O x short vs. long
MTBF), two prospective-platform campaigns built from
:mod:`repro.workloads.prospective` (a bandwidth sweep and a resilience
sweep that crosses the failure model with the node MTBF), and a
laptop-scale ``smoke`` campaign on a miniature Cielo used by CI and the
regression tests.

``make_campaign`` resolves a preset by name; each factory accepts
``num_runs`` / ``horizon_days`` / ``strategies`` overrides so the same
matrix can run at smoke size or paper size.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

from repro.apps.app_class import ApplicationClass
from repro.errors import ConfigurationError, short_repr
from repro.platform.failures import FailureModel
from repro.platform.spec import PlatformSpec
from repro.scenarios.campaign import Axis, AxisPoint, Campaign
from repro.scenarios.spec import Scenario
from repro.units import DAY, GB, HOUR
from repro.workloads.apex import apex_workload
from repro.workloads.cielo import CIELO
from repro.workloads.prospective import PROSPECTIVE, prospective_workload

__all__ = [
    "CAMPAIGNS",
    "FAMILY_STRATEGIES",
    "campaign_names",
    "make_campaign",
    "mini_apex_workload",
    "mini_cielo_platform",
]

#: One representative strategy per scheduler family (the four lines the
#: paper's figures compare), used as the default strategy set of presets.
FAMILY_STRATEGIES: tuple[str, ...] = (
    "oblivious-daly",
    "ordered-daly",
    "orderednb-daly",
    "least-waste",
)


# ------------------------------------------------------------ mini Cielo
def mini_cielo_platform(
    *, bandwidth_gbs: float = 2.0, node_mtbf_days: float = 16.0
) -> PlatformSpec:
    """A 64-node miniature of Cielo that simulates in well under a second.

    The per-node memory matches Cielo (32 GB) so the APEX-style memory
    fractions produce realistic volumes, while bandwidth and MTBF are scaled
    so a half-day horizon sees both contention and a handful of failures
    (system MTBF = ``node_mtbf_days / 64`` days, i.e. six hours at the
    default).
    """
    return PlatformSpec(
        name="MiniCielo",
        num_nodes=64,
        cores_per_node=16,
        memory_per_node_bytes=32.0 * GB,
        io_bandwidth_bytes_per_s=bandwidth_gbs * GB,
        node_mtbf_s=node_mtbf_days * DAY,
    )


def mini_apex_workload(
    platform: PlatformSpec | None = None,
) -> list[ApplicationClass]:
    """The APEX class mix shrunk onto the miniature platform.

    Shares, relative job sizes and the memory-fraction I/O volumes mirror
    Table 1 (EAP/LAP/Silverton/VPIC); work times are compressed so jobs
    complete within laptop-scale horizons.
    """
    platform = platform or mini_cielo_platform()
    rows = (
        # name, cores, work, input%, output%, checkpoint%, share%
        ("EAP", 16 * 16, 5.0 * HOUR, 0.03, 1.05, 1.60, 0.66),
        ("LAP", 4 * 16, 2.0 * HOUR, 0.05, 2.20, 1.85, 0.055),
        ("Silverton", 32 * 16, 3.5 * HOUR, 0.70, 0.43, 3.50, 0.165),
        ("VPIC", 24 * 16, 4.0 * HOUR, 0.10, 2.70, 0.85, 0.12),
    )
    return [
        ApplicationClass.from_memory_fractions(
            name,
            platform=platform,
            cores=cores,
            work_s=work_s,
            input_fraction=input_f,
            output_fraction=output_f,
            checkpoint_fraction=checkpoint_f,
            workload_share=share,
        )
        for name, cores, work_s, input_f, output_f, checkpoint_f, share in rows
    ]


# ------------------------------------------------------------ presets
def smoke_campaign(
    *,
    num_runs: int = 2,
    horizon_days: float = 0.5,
    strategies: Sequence[str] = ("ordered-daly", "least-waste"),
) -> Campaign:
    """A 2x2 miniature-Cielo matrix that completes in seconds (CI smoke)."""
    base = Scenario(
        name="mini-cielo",
        platform=mini_cielo_platform(),
        workload=tuple(mini_apex_workload()),
        strategies=tuple(strategies),
        num_runs=num_runs,
        horizon_days=horizon_days,
        warmup_days=horizon_days / 8.0,
        cooldown_days=horizon_days / 8.0,
    )
    return Campaign(
        name="smoke",
        base=base,
        axes=(
            Axis.from_values("io", "bandwidth_gbs", [1.0, 4.0]),
            Axis(
                name="mtbf",
                points=(
                    AxisPoint("short", {"node_mtbf_years": 16.0 / 365.0}),
                    AxisPoint("long", {"node_mtbf_years": 64.0 / 365.0}),
                ),
            ),
        ),
    )


def cielo_reference_campaign(
    *,
    num_runs: int = 3,
    horizon_days: float = 4.0,
    strategies: Sequence[str] = FAMILY_STRATEGIES,
) -> Campaign:
    """Cielo, weak vs. strong file system x short vs. long node MTBF.

    The corners of the paper's Figures 1 and 2: 40 vs. 160 GB/s and 2 vs.
    20 year node MTBF.  The base APEX workload is shared by every variant —
    its I/O volumes depend only on per-node memory, which these axes do not
    touch; an axis that changes ``num_nodes`` or memory must add a
    ``workload`` rebuild override (see ``prospective_bandwidth_campaign``).
    """
    base = Scenario(
        name="cielo",
        platform=CIELO,
        workload=tuple(apex_workload(CIELO)),
        strategies=tuple(strategies),
        num_runs=num_runs,
        horizon_days=horizon_days,
    )
    return Campaign(
        name="cielo-reference",
        base=base,
        axes=(
            Axis.from_values("io", "bandwidth_gbs", [40.0, 160.0]),
            Axis.from_values("mtbf", "node_mtbf_years", [2.0, 20.0]),
        ),
    )


def prospective_bandwidth_campaign(
    *,
    num_runs: int = 2,
    horizon_days: float = 3.0,
    strategies: Sequence[str] = FAMILY_STRATEGIES,
) -> Campaign:
    """The prospective 50k-node system under a file-system bandwidth sweep.

    Mirrors the Figure 3 question — how much bandwidth does the future
    machine need — as a campaign: the APEX workload is re-scaled to the
    prospective platform per variant (volumes track machine memory).
    """
    base = Scenario(
        name="prospective",
        platform=PROSPECTIVE,
        workload=tuple(prospective_workload(PROSPECTIVE)),
        strategies=tuple(strategies),
        num_runs=num_runs,
        horizon_days=horizon_days,
    )
    # Workload volumes depend only on memory (identical across bandwidth
    # variants), but rebuilding per point keeps the recipe uniform.
    rebuild = prospective_workload
    return Campaign(
        name="prospective-bandwidth",
        base=base,
        axes=(
            Axis(
                name="io",
                points=tuple(
                    AxisPoint(
                        f"{int(gbs)}GBs",
                        {"bandwidth_gbs": gbs, "workload": rebuild},
                    )
                    for gbs in (500.0, 1000.0, 2000.0)
                ),
            ),
        ),
    )


def prospective_resilience_campaign(
    *,
    num_runs: int = 2,
    horizon_days: float = 3.0,
    strategies: Sequence[str] = FAMILY_STRATEGIES,
) -> Campaign:
    """The prospective system under failure-model x node-MTBF stress.

    Crosses the exponential process with a bursty Weibull (k = 0.7, a shape
    reported for HPC failure logs) against optimistic and pessimistic node
    MTBFs, asking whether the strategy ranking survives non-Poisson
    failures on the future machine.
    """
    base = Scenario(
        name="prospective",
        platform=PROSPECTIVE,
        workload=tuple(prospective_workload(PROSPECTIVE)),
        strategies=tuple(strategies),
        num_runs=num_runs,
        horizon_days=horizon_days,
    )
    return Campaign(
        name="prospective-resilience",
        base=base,
        axes=(
            Axis(
                name="failures",
                points=(
                    AxisPoint("exp", {"failure_model": FailureModel()}),
                    AxisPoint(
                        "weibull0.7",
                        {"failure_model": FailureModel(kind="weibull", shape=0.7)},
                    ),
                ),
            ),
            Axis.from_values("mtbf", "node_mtbf_years", [5.0, 25.0]),
        ),
    )


def period_sweep_campaign(
    *,
    num_runs: int = 2,
    horizon_days: float = 0.5,
    strategies: Sequence[str] = ("ordered-daly",),
    periods_hours: Sequence[float] = (0.5, 1.0, 2.0),
    strategy_kind: str = "ordered",
) -> Campaign:
    """Checkpoint-period sweep on the miniature Cielo.

    Exercises the parameterized strategy specs end-to-end: one axis point
    per fixed period (``ordered[policy=fixed,period_s=...]``) plus the
    ``strategies`` reference point (Young/Daly by default), asking where the
    production "checkpoint every N hours" heuristic lands relative to the
    per-class optimum.  Each parameterized spec is its own cache key, so the
    sweep composes with every execution backend and the result cache.
    """
    base = Scenario(
        name="mini-cielo",
        platform=mini_cielo_platform(),
        workload=tuple(mini_apex_workload()),
        strategies=tuple(strategies),
        num_runs=num_runs,
        horizon_days=horizon_days,
        warmup_days=horizon_days / 8.0,
        cooldown_days=horizon_days / 8.0,
    )
    points = [AxisPoint("reference", {"strategies": tuple(strategies)})]
    for hours in periods_hours:
        spec = f"{strategy_kind}[policy=fixed,period_s={hours * HOUR:g}]"
        points.append(AxisPoint(f"{hours:g}h", {"strategies": (spec,)}))
    return Campaign(
        name="period-sweep",
        base=base,
        axes=(Axis(name="period", points=tuple(points)),),
    )


#: Preset registry: name -> campaign factory.
CAMPAIGNS: dict[str, Callable[..., Campaign]] = {
    "smoke": smoke_campaign,
    "cielo-reference": cielo_reference_campaign,
    "prospective-bandwidth": prospective_bandwidth_campaign,
    "prospective-resilience": prospective_resilience_campaign,
    "period-sweep": period_sweep_campaign,
}


def campaign_names() -> tuple[str, ...]:
    """Names of the registered campaign presets."""
    return tuple(CAMPAIGNS)


def make_campaign(name: str, **overrides: object) -> Campaign:
    """Build a preset campaign by name.

    ``overrides`` are forwarded to the preset factory (``num_runs``,
    ``horizon_days``, ``strategies``).
    """
    factory = CAMPAIGNS.get(name)
    if factory is None:
        raise ConfigurationError(
            f"unknown campaign {short_repr(name)}; expected one of {', '.join(CAMPAIGNS)}"
        )
    return factory(**overrides)

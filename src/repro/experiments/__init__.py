"""Evaluation harness: one module per table / figure of the paper.

* :mod:`repro.experiments.table1` — Table 1, the APEX workload characteristics.
* :mod:`repro.experiments.theory` — the theoretical lower bound used as the
  reference curve in Figures 1-3 (Theorem 1).
* :mod:`repro.experiments.figure1` — Figure 1, waste ratio vs. aggregate
  file-system bandwidth on Cielo.
* :mod:`repro.experiments.figure2` — Figure 2, waste ratio vs. node MTBF on
  Cielo under constrained bandwidth.
* :mod:`repro.experiments.figure3` — Figure 3, minimum bandwidth required to
  reach 80 % efficiency on the prospective system.
* :mod:`repro.experiments.report` — Figure 1/2 sweeps as one-axis campaigns
  of :class:`~repro.scenarios.runner.CampaignRunner`, and their rendering.
"""

from repro import _lazy_exports

__all__, __getattr__ = _lazy_exports(globals(), {
    "repro.experiments.report": ("SweepResult", "run_sweep", "sweep_campaign"),
    "repro.experiments.table1": ("table1_rows", "render_table1"),
    "repro.experiments.theory": ("steady_state_classes", "theoretical_waste"),
    "repro.experiments.figure1": ("Figure1Config", "run_figure1", "render_figure1"),
    "repro.experiments.figure2": ("Figure2Config", "run_figure2", "render_figure2"),
    "repro.experiments.figure3": ("Figure3Config", "Figure3Result", "run_figure3", "render_figure3"),
    "repro.experiments.ablation": (
        "fixed_period_ablation", "interference_model_ablation", "render_ablation",
    ),
    "repro.experiments.export": (
        "sweep_to_rows", "sweep_to_csv", "sweep_to_json", "figure3_to_rows", "figure3_to_csv",
        "write_text",
    ),
    "repro.experiments.plotting": ("ascii_chart", "sweep_chart"),
})

"""Byte pins of the figure, ablation and drill-down commands, and of the store keys they write.

Each case runs in-process at miniature settings with a fresh ``--cache-dir``
and compares, byte for byte, up to four outputs with golden files under
``tests/golden/``: stdout (the temporary directory replaced by ``<tmp>``),
the CSV and JSON exports where the command writes them, and the sorted
``(digest, strategy, seed)`` keys of the store.  The drill-down cases pin
one smoke cell drilled cold (``trace``), drilled warm after its campaign
(``campaign --best-summary``), and its ``/trace`` payload.  A changed cache key therefore fails the test even when
the printed numbers agree.  One more pin runs ``trace`` without a campaign
in a fresh interpreter, whose job ids start at 1: its timeline is the one
output that prints each ``job-start`` event's node count.

Regenerate the goldens (only after a change that is meant to move them, with
a ``DIGEST_VERSION`` bump when simulated values move)::

    PYTHONPATH=src python tests/test_experiment_pins.py
"""

from __future__ import annotations

import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.exec.runner import ParallelRunner
from repro.store import FilesystemStore

GOLDEN = Path(__file__).resolve().parent / "golden"
SRC = GOLDEN.parent.parent / "src"

#: case name -> CLI arguments; ``{tmp}`` is the case's temporary directory.
CLI_CASES: dict[str, list[str]] = {
    "figure1": [
        "figure1", "--num-runs", "2", "--horizon-days", "0.5", "--bandwidths-gbs", "40", "160",
        "--detailed", "--chart", "--csv", "{tmp}/out.csv", "--json", "{tmp}/out.json",
    ],
    "figure2": [
        "figure2", "--num-runs", "2", "--horizon-days", "0.5", "--mtbf-years", "2", "20",
        "--detailed", "--chart", "--csv", "{tmp}/out.csv", "--json", "{tmp}/out.json",
    ],
    "ablation-fixed-period": [
        "ablation", "--num-runs", "2", "--horizon-days", "0.5", "--periods-hours", "0.5", "2",
    ],
    "ablation-spec-spelling": [
        "ablation", "--num-runs", "1", "--horizon-days", "0.5", "--periods-hours", "1",
        "--strategy", "ordered[policy=fixed]",
    ],
    "ablation-interference": [
        "ablation", "--study", "interference", "--num-runs", "2", "--horizon-days", "0.5",
        "--alphas", "0", "0.5",
    ],
    "drilldown-smoke": [
        "trace", "--campaign", "smoke", "--scenario", "io=1,mtbf=short",
        "--strategy", "least-waste", "--seed", "0", "--csv", "{tmp}/out.csv",
    ],
    "campaign-best-summary": [
        "campaign", "--preset", "smoke", "--num-runs", "1", "--horizon-days", "0.25",
        "--best-summary", "--csv", "{tmp}/out.csv",
    ],
}

CASES = (*CLI_CASES, "figure3", "drilldown-payload")

#: A run's first 40 trace events, printed by ``trace`` without a campaign.
TIMELINE_ARGS = ["trace", "--horizon-days", "0.25", "--max-events", "40"]


def _store_keys(cache_dir: Path) -> str:
    keys = sorted((r.digest, r.strategy, r.seed) for r in FilesystemStore(cache_dir).iter_raw_entries())
    return "".join(f"{digest} {strategy} {seed}\n" for digest, strategy, seed in keys)


def _run_cli(case: str, tmp: Path) -> dict[str, str]:
    args = [arg.replace("{tmp}", str(tmp)) for arg in CLI_CASES[case]]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert main([*args, "--cache-dir", str(tmp / "cache")]) == 0
    outputs = {"stdout.txt": stdout.getvalue().replace(str(tmp), "<tmp>")}
    for suffix in ("csv", "json"):
        path = tmp / f"out.{suffix}"
        if path.exists():
            outputs[suffix] = path.read_bytes().decode()
    return outputs


def _run_figure3(tmp: Path) -> dict[str, str]:
    from repro.experiments.export import figure3_to_csv
    from repro.experiments.figure3 import Figure3Config, render_figure3, run_figure3

    config = Figure3Config(
        node_mtbf_years=(25.0,),
        strategies=("oblivious-fixed", "least-waste"),
        horizon_days=0.25,
        num_runs=1,
    )
    result = run_figure3(config, runner=ParallelRunner(cache=FilesystemStore(tmp / "cache")))
    return {"stdout.txt": render_figure3(result) + "\n", "csv": figure3_to_csv(result)}


def _run_drilldown_payload(tmp: Path) -> dict[str, str]:
    """The ``drilldown-smoke`` cell's payload, encoded as ``GET /v1/jobs/<id>/trace`` sends it."""
    import json

    from repro.scenarios.presets import make_campaign
    from repro.scenarios.runner import drill_down

    (scenario,) = [s for s in make_campaign("smoke").scenarios() if s.name == "io=1,mtbf=short"]
    decomposition = drill_down(scenario, "least-waste", 0, cache=FilesystemStore(tmp / "cache"))
    payload = decomposition.to_payload()
    return {"json": json.dumps(payload, indent=2) + "\n"}


def _outputs(case: str, tmp: Path) -> dict[str, str]:
    if case == "figure3":
        outputs = _run_figure3(tmp)
    elif case == "drilldown-payload":
        outputs = _run_drilldown_payload(tmp)
    else:
        outputs = _run_cli(case, tmp)
    outputs["keys.txt"] = _store_keys(tmp / "cache")
    return outputs


@pytest.mark.parametrize("case", CASES)
def test_experiment_output_and_store_keys_are_pinned(case, tmp_path):
    outputs = _outputs(case, tmp_path)
    expected = sorted(path.name for path in GOLDEN.glob(f"{case}.*"))
    assert sorted(f"{case}.{suffix}" for suffix in outputs) == expected
    for suffix, text in outputs.items():
        golden = (GOLDEN / f"{case}.{suffix}").read_bytes().decode()
        assert text == golden, f"{case}.{suffix} moved"


def _timeline() -> bytes:
    """stdout of ``TIMELINE_ARGS`` in a fresh interpreter: job ids start at 1."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", *TIMELINE_ARGS],
        env=env, capture_output=True, check=True, timeout=120,
    ).stdout


def test_trace_timeline_is_pinned():
    assert _timeline() == (GOLDEN / "trace-timeline.stdout.txt").read_bytes()


def _regenerate() -> None:  # pragma: no cover - regeneration helper
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    for case in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            outputs = _outputs(case, Path(tmp))
        for suffix, text in outputs.items():
            (GOLDEN / f"{case}.{suffix}").write_bytes(text.encode())
        print(f"wrote {len(outputs)} golden file(s) for {case}")
    (GOLDEN / "trace-timeline.stdout.txt").write_bytes(_timeline())
    print("wrote the trace timeline")


if __name__ == "__main__":  # pragma: no cover
    _regenerate()

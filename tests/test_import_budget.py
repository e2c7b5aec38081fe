"""Start-up budget: each command imports only the layers it runs.

scipy serves only the Theorem-1 bound, numpy only the commands that
simulate, and the linter, the spool, the HTTP service, the drill-down and
the figure modules serve only their own commands; importing any of them at
start-up costs every ``coopckpt`` process, spool worker and test
subprocess.  These checks run in fresh interpreters (``PYTHONPATH=src``,
every ``REPRO_*`` variable removed) so the modules the pytest process
already loaded do not mask a regression.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

#: Modules a plain campaign run must never load.
OPTIONAL = (
    "scipy",
    "http.server",
    "concurrent.futures",
    "multiprocessing",
    "repro.analysis",
    "repro.distributed",
    "repro.service",
    "repro.trace",
    "repro.experiments.figure1",
    "repro.experiments.figure2",
    "repro.experiments.figure3",
)

#: Runs ``coopckpt ARGS`` and writes the names of the loaded modules to OUT:
#: ``python -c RUN_CLI allow|block|block-numpy OUT ARGS...``.  ``block``
#: makes any scipy import fail, as on a host without scipy; ``block-numpy``
#: makes numpy's fail too.
RUN_CLI = """\
import json, sys
if sys.argv[1] != "allow":
    sys.modules["scipy"] = None
if sys.argv[1] == "block-numpy":
    sys.modules["numpy"] = None
import repro.cli
try:
    code = repro.cli.main(sys.argv[3:])
finally:
    with open(sys.argv[2], "w") as out:
        json.dump(sorted(name for name, module in sys.modules.items() if module is not None), out)
sys.exit(code)
"""

#: Runs ``coopckpt ARGS`` and reports on stderr whether numpy was loaded when
#: the CLI created its process pool and when it printed a ``start`` event.
PROBE_NUMPY = """\
import io, sys
from concurrent.futures import ProcessPoolExecutor
import repro.cli

create_pool = ProcessPoolExecutor.__init__
def probe_pool(self, *args, **kwargs):
    print("pool: numpy", "numpy" in sys.modules, file=sys.stderr)
    create_pool(self, *args, **kwargs)
ProcessPoolExecutor.__init__ = probe_pool

class Stdout(io.StringIO):
    def write(self, text):
        if '"event":"start"' in text:
            print("start: numpy", "numpy" in sys.modules, file=sys.stderr)
        return super().write(text)
sys.stdout = Stdout()
sys.exit(repro.cli.main(sys.argv[1:]))
"""

#: ``lower-bound --bandwidth-gbs 20`` at the commit that made scipy lazy: the
#: I/O constraint binds, so the bound needs brentq.
CONSTRAINED_BOUND = """\
Theoretical lower bound on Cielo (20 GB/s, 2-year node MTBF)
  constrained (lambda > 0) : True
  lambda                   : 1.005e-01
  I/O pressure (Eq. 6)     : 1.000
  waste lower bound        : 0.499
  efficiency upper bound   : 0.667
  per-class periods (hours):
    EAP       : optimal   6.84  (Daly   4.99)
    LAP       : optimal  11.40  (Daly   5.37)
    Silverton : optimal   8.86  (Daly   7.38)
    VPIC      : optimal   4.43  (Daly   3.64)
"""


def _python(*args: str, cwd: Path | None = None) -> subprocess.CompletedProcess:
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    return subprocess.run(
        [sys.executable, *args], env=env, cwd=cwd, capture_output=True, text=True, timeout=300
    )


def _loaded_after(code: str) -> set[str]:
    child = _python("-c", f"{code}\nimport sys\nprint('\\n'.join(sys.modules))")
    assert child.returncode == 0, child.stderr
    return set(child.stdout.split())


def _cli(tmp_path: Path, mode: str, *args: str) -> tuple[subprocess.CompletedProcess, set[str]]:
    out = tmp_path / f"modules-{len(list(tmp_path.glob('modules-*')))}.json"
    child = _python("-c", RUN_CLI, mode, str(out), *args, cwd=tmp_path)
    loaded = set(json.loads(out.read_text())) if out.is_file() else set()
    return child, loaded


def test_import_repro_loads_no_submodule():
    loaded = _loaded_after("import repro")
    assert sorted(name for name in loaded if name.startswith("repro.")) == []


def test_import_cli_loads_no_optional_layer():
    loaded = _loaded_after("import repro.cli")
    assert sorted(loaded.intersection(OPTIONAL)) == []


def test_campaign_cold_and_warm_run_without_scipy(tmp_path):
    cache = str(tmp_path / "cache")
    reference, _ = _cli(tmp_path, "allow", "campaign", "--preset", "smoke", "--csv", "ref.csv")
    assert reference.returncode == 0, reference.stderr
    for run in ("cold", "warm"):
        child, loaded = _cli(
            tmp_path, "block", "campaign", "--preset", "smoke",
            "--cache-dir", cache, "--csv", f"{run}.csv",
        )
        assert child.returncode == 0, child.stderr
        assert sorted(loaded.intersection(OPTIONAL)) == [], run
        assert (tmp_path / f"{run}.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    assert ", 0 simulation(s)" in child.stdout


def test_import_cli_loads_no_numpy():
    assert "numpy" not in _loaded_after("import repro.cli")


@pytest.mark.parametrize(
    "args",
    [["--help"], ["strategies"], ["cache", "stats", "--cache-dir", "."],
     ["worker", "--spool", ".", "--status"], ["lint"]],
    ids=["help", "strategies", "cache-stats", "worker-status", "lint"],
)
def test_commands_that_simulate_nothing_run_without_numpy(tmp_path, args):
    child, loaded = _cli(tmp_path, "block-numpy", *args)
    assert child.returncode == 0, child.stderr
    assert "numpy" not in loaded


def test_a_warm_campaign_replays_without_numpy(tmp_path):
    cache = str(tmp_path / "cache")
    cold, loaded = _cli(
        tmp_path, "allow", "campaign", "--preset", "smoke", "--cache-dir", cache,
        "--csv", "cold.csv",
    )
    assert cold.returncode == 0, cold.stderr
    assert "numpy" in loaded
    warm, loaded = _cli(
        tmp_path, "block-numpy", "campaign", "--preset", "smoke", "--cache-dir", cache,
        "--csv", "warm.csv",
    )
    assert warm.returncode == 0, warm.stderr
    assert ", 0 simulation(s)" in warm.stdout
    assert "numpy" not in loaded
    assert (tmp_path / "warm.csv").read_bytes() == (tmp_path / "cold.csv").read_bytes()


def test_a_worker_loads_numpy_before_it_starts(tmp_path):
    # The spool is empty: the worker simulates nothing, yet announces itself
    # with numpy loaded.
    child = _python(
        "-c", PROBE_NUMPY, "worker", "--spool", "spool", "--cache-dir", "cache", "--drain",
        "--log-json", cwd=tmp_path,
    )
    assert child.returncode == 0, child.stderr
    assert child.stderr == "start: numpy True\n"


def test_the_process_pool_loads_numpy_before_it_forks(tmp_path):
    child = _python(
        "-c", PROBE_NUMPY, "campaign", "--preset", "smoke", "--num-runs", "1",
        "--horizon-days", "0.25", "--workers", "2", cwd=tmp_path,
    )
    assert child.returncode == 0, child.stderr
    assert child.stderr == "pool: numpy True\n"


def test_worker_metrics_endpoint_loads_the_server_without_the_job_layer(tmp_path):
    child, loaded = _cli(
        tmp_path, "block", "worker", "--spool", "spool", "--cache-dir", "cache",
        "--drain", "--metrics-port", "0", "--quiet",
    )
    assert child.returncode == 0, child.stderr
    assert {"repro.service", "repro.service.http"} <= loaded
    assert sorted(loaded.intersection(("repro.service.jobs", "scipy"))) == []


@pytest.mark.parametrize(
    "package", ["repro", "repro.distributed", "repro.experiments", "repro.service"]
)
def test_every_exported_name_resolves(package):
    child = _python(
        "-c",
        f"import importlib; package = importlib.import_module({package!r})\n"
        "missing = [name for name in package.__all__ if not hasattr(package, name)]\n"
        "assert not missing, missing\n"
        "assert len(set(package.__all__)) == len(package.__all__)\n"
        f"exec('from {package} import *')",
    )
    assert child.returncode == 0, child.stderr


def test_unknown_package_attribute_is_an_attribute_error():
    import repro

    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        repro.no_such_name  # noqa: B018


def test_lower_bound_loads_scipy_only_when_the_constraint_binds(tmp_path):
    child, loaded = _cli(tmp_path, "allow", "lower-bound", "--bandwidth-gbs", "20")
    assert child.returncode == 0, child.stderr
    assert child.stdout == CONSTRAINED_BOUND
    assert "scipy" in loaded
    child, loaded = _cli(tmp_path, "block", "lower-bound")
    assert child.returncode == 0, child.stderr
    assert "constrained (lambda > 0) : False" in child.stdout
    assert "scipy" not in loaded

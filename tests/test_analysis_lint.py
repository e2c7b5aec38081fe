"""Contract linter: checker semantics on fixture trees, and repo cleanliness.

Every checker is exercised both ways — a known-bad fixture tree must
produce its finding, a known-good one must not — plus the machinery
around them: pragma suppression (reason mandatory, unused pragmas are
errors), the shrink-only baseline, and the digest-drift manifest.
"""

from __future__ import annotations

import json
from pathlib import Path
from textwrap import dedent

import pytest

from repro.analysis import policy
from repro.analysis.base import Project, module_matches
from repro.analysis.checkers import make_checkers
from repro.analysis.checkers.digest_drift import (
    DigestDriftChecker,
    extract_digest_schema,
    write_manifest,
)
from repro.analysis.engine import run_lint

REPO_SRC = Path(__file__).resolve().parent.parent / "src"


def make_tree(tmp_path: Path, files: dict[str, str]) -> Path:
    """Write a fixture source tree and return its root."""
    root = tmp_path / "src"
    for relpath, text in files.items():
        path = root / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(dedent(text), encoding="utf-8")
    return root


def lint(root: Path, tmp_path: Path, *, rules: list[str] | None = None):
    """run_lint with an isolated (absent → empty) baseline."""
    return run_lint(root, rules=rules, baseline_path=tmp_path / "isolated-baseline.json")


def rules_of(report) -> list[str]:
    return [finding.rule for finding in report.findings]


# --------------------------------------------------------------- determinism
class TestDeterminismChecker:
    def test_wall_clock_flagged(self, tmp_path):
        root = make_tree(
            tmp_path,
            {
                "repro/sim/bad.py": """\
                import time

                def stamp():
                    return time.time()
                """
            },
        )
        report = lint(root, tmp_path, rules=["determinism"])
        assert rules_of(report) == ["determinism"]
        assert "time.time" in report.findings[0].message

    @pytest.mark.parametrize("layer", ["simulation", "apps", "jobsched", "workloads", "core"])
    def test_wall_clock_flagged_in_every_simulating_layer(self, tmp_path, layer):
        root = make_tree(
            tmp_path,
            {
                f"repro/{layer}/bad.py": """\
                import time

                def stamp():
                    return time.time()
                """
            },
        )
        report = lint(root, tmp_path, rules=["determinism"])
        assert rules_of(report) == ["determinism"]
        assert "time.time" in report.findings[0].message

    def test_no_exempt_layer_overlaps_a_target(self):
        for exempt in policy.DETERMINISM_EXEMPT:
            assert not module_matches(exempt, policy.DETERMINISM_TARGETS), exempt
            for target in policy.DETERMINISM_TARGETS:
                assert not module_matches(target, [exempt]), (target, exempt)

    def test_global_rng_and_numpy_flagged(self, tmp_path):
        root = make_tree(
            tmp_path,
            {
                "repro/sim/bad.py": """\
                import random
                import numpy as np

                def draw():
                    return random.random() + np.random.rand()
                """
            },
        )
        report = lint(root, tmp_path, rules=["determinism"])
        assert len(report.findings) == 2
        assert {"random.random" in f.message or "np.random" in f.message
                for f in report.findings} == {True}

    def test_set_iteration_flagged(self, tmp_path):
        root = make_tree(
            tmp_path,
            {
                "repro/sim/bad.py": """\
                def order(items):
                    pool = set(items)
                    return [x for x in pool] + [y for y in {1, 2, 3}]
                """
            },
        )
        report = lint(root, tmp_path, rules=["determinism"])
        assert len(report.findings) == 2
        assert all("iterates" in f.message for f in report.findings)

    def test_seeded_instances_and_sorted_sets_clean(self, tmp_path):
        root = make_tree(
            tmp_path,
            {
                "repro/sim/good.py": """\
                import random
                import numpy as np

                def draw(seed):
                    rng = random.Random(seed)
                    gen = np.random.default_rng(seed)
                    pool = {1, 2, 3}
                    return rng.random() + gen.random() + sum(sorted(pool))
                """
            },
        )
        report = lint(root, tmp_path, rules=["determinism"])
        assert report.findings == []

    def test_outside_targets_not_scanned(self, tmp_path):
        root = make_tree(
            tmp_path,
            {
                "repro/service/clock.py": """\
                import time

                def stamp():
                    return time.time()
                """
            },
        )
        report = lint(root, tmp_path, rules=["determinism"])
        assert report.findings == []


# --------------------------------------------------------------------- fsops
class TestFsopsChecker:
    def test_raw_mutations_flagged(self, tmp_path):
        root = make_tree(
            tmp_path,
            {
                "repro/distributed/bad.py": """\
                import os
                from pathlib import Path

                def mutate(a, b):
                    os.rename(a, b)
                    Path(b).write_text("x")
                    with open(b, "w") as handle:
                        handle.write("y")
                """
            },
        )
        report = lint(root, tmp_path, rules=["fsops"])
        assert rules_of(report) == ["fsops", "fsops", "fsops"]

    def test_chokepoint_calls_and_reads_clean(self, tmp_path):
        root = make_tree(
            tmp_path,
            {
                "repro/distributed/good.py": """\
                from repro.distributed import fsops

                def move(a, b):
                    fsops.rename(a, b)
                    fsops.write_text(b, "payload")
                    with open(a) as handle:
                        return handle.read()
                """
            },
        )
        report = lint(root, tmp_path, rules=["fsops"])
        assert report.findings == []

    def test_dynamic_open_mode_is_flagged(self, tmp_path):
        root = make_tree(
            tmp_path,
            {
                "repro/distributed/bad.py": """\
                def touch(path, mode):
                    return open(path, mode)
                """
            },
        )
        report = lint(root, tmp_path, rules=["fsops"])
        assert rules_of(report) == ["fsops"]
        assert "dynamic mode" in report.findings[0].message


# --------------------------------------------------------------------- locks
class TestLockDisciplineChecker:
    def test_unguarded_write_flagged(self, tmp_path):
        root = make_tree(
            tmp_path,
            {
                "repro/service/bad.py": """\
                import threading

                class Counter:
                    def __init__(self):
                        self._lock = threading.Lock()
                        self.total = 0

                    def add(self, n):
                        with self._lock:
                            self.total += n

                    def reset(self):
                        self.total = 0
                """
            },
        )
        report = lint(root, tmp_path, rules=["locks"])
        assert rules_of(report) == ["locks"]
        finding = report.findings[0]
        assert "Counter.reset" in finding.message and "self.total" in finding.message

    def test_constructor_and_guarded_writes_clean(self, tmp_path):
        root = make_tree(
            tmp_path,
            {
                "repro/service/good.py": """\
                import threading

                class Counter:
                    def __init__(self):
                        self._lock = threading.Lock()
                        self.total = 0

                    def add(self, n):
                        with self._lock:
                            self.total += n

                    def reset(self):
                        with self._lock:
                            self.total = 0
                """
            },
        )
        report = lint(root, tmp_path, rules=["locks"])
        assert report.findings == []

    def test_nested_function_has_its_own_self(self, tmp_path):
        root = make_tree(
            tmp_path,
            {
                "repro/service/nested.py": """\
                import threading

                class Outer:
                    def __init__(self):
                        self._lock = threading.Lock()
                        self.count = 0

                    def bump(self):
                        with self._lock:
                            self.count += 1

                    def helper_factory(self):
                        class Helper:
                            def set(self, n):
                                self.count = n  # Helper.count, not Outer.count
                        return Helper
                """
            },
        )
        report = lint(root, tmp_path, rules=["locks"])
        assert report.findings == []


# ------------------------------------------------------------------ registry
_INTERFACE = """\
class ExecutionBackend:
    persists_results = False

    def run(self, tasks, *, label=""):
        raise NotImplementedError

    def close(self):
        return None
"""


class TestRegistryChecker:
    def test_missing_method_flagged(self, tmp_path):
        root = make_tree(
            tmp_path,
            {
                "repro/exec/runner.py": _INTERFACE
                + """\

class HollowBackend(ExecutionBackend):
    pass
"""
            },
        )
        report = lint(root, tmp_path, rules=["registry"])
        assert rules_of(report) == ["registry"]
        assert "does not implement run()" in report.findings[0].message

    def test_incompatible_signature_flagged(self, tmp_path):
        root = make_tree(
            tmp_path,
            {
                "repro/exec/runner.py": _INTERFACE
                + """\

class RenamedBackend(ExecutionBackend):
    def run(self, jobs, *, label=""):
        return []
"""
            },
        )
        report = lint(root, tmp_path, rules=["registry"])
        assert rules_of(report) == ["registry"]
        assert "positional parameter 1" in report.findings[0].message

    def test_compatible_subclass_clean(self, tmp_path):
        root = make_tree(
            tmp_path,
            {
                "repro/exec/runner.py": _INTERFACE
                + """\

class FineBackend(ExecutionBackend):
    def run(self, tasks, *, label="", retries=3):
        return []
"""
            },
        )
        report = lint(root, tmp_path, rules=["registry"])
        assert report.findings == []

    def test_registering_a_non_subclass_flagged(self, tmp_path):
        root = make_tree(
            tmp_path,
            {
                "repro/exec/runner.py": _INTERFACE
                + """\

def register_backend(name, factory):
    return None
""",
                "repro/exec/plugin.py": """\
                from repro.exec.runner import register_backend

                class Freeloader:
                    def run(self, tasks, *, label=""):
                        return []

                register_backend("free", Freeloader)
                """,
            },
        )
        report = lint(root, tmp_path, rules=["registry"])
        assert rules_of(report) == ["registry"]
        assert "does not subclass" in report.findings[0].message

    def test_strategy_factory_signature(self, tmp_path):
        root = make_tree(
            tmp_path,
            {
                "repro/iosched/custom.py": """\
                from repro.iosched.registry import register_strategy

                register_strategy("bad", lambda spec: spec)
                register_strategy(
                    "good", lambda spec, *, fixed_period_s=3600.0: spec
                )
                """
            },
        )
        report = lint(root, tmp_path, rules=["registry"])
        assert rules_of(report) == ["registry"]
        assert "fixed_period_s" in report.findings[0].message


# -------------------------------------------------------------- digest drift
_CONFIG = """\
from dataclasses import dataclass

@dataclass(frozen=True)
class SimulationConfig:
    platform: object
    horizon_s: float
    seed: int
"""

_DIGEST = """\
DIGEST_VERSION = "2"
_EXCLUDED_FIELDS = frozenset({"seed"})
"""


class TestDigestDrift:
    def _project(self, tmp_path, config=_CONFIG, digest=_DIGEST) -> Project:
        root = make_tree(
            tmp_path,
            {
                "repro/simulation/config.py": config,
                "repro/exec/digest.py": digest,
            },
        )
        return Project.load(root)

    def _checker(self, tmp_path) -> DigestDriftChecker:
        return DigestDriftChecker(manifest_path=tmp_path / "manifest.json")

    def test_matching_manifest_is_clean(self, tmp_path):
        project = self._project(tmp_path)
        checker = self._checker(tmp_path)
        schema, problems = extract_digest_schema(project)
        assert problems == [] and schema is not None
        assert schema.fields == ("horizon_s", "platform")
        write_manifest(schema, checker.manifest_path)
        assert list(checker.check(project)) == []

    def test_field_drift_without_version_bump_fires(self, tmp_path):
        checker = self._checker(tmp_path)
        schema, _ = extract_digest_schema(self._project(tmp_path))
        write_manifest(schema, checker.manifest_path)
        drifted = self._project(
            tmp_path, config=_CONFIG + "    warmup_s: float = 0.0\n"
        )
        findings = list(checker.check(drifted))
        assert len(findings) == 1
        assert "without a DIGEST_VERSION bump" in findings[0].message
        assert "warmup_s" in findings[0].message

    def test_version_bump_with_stale_manifest_fires(self, tmp_path):
        checker = self._checker(tmp_path)
        schema, _ = extract_digest_schema(self._project(tmp_path))
        write_manifest(schema, checker.manifest_path)
        bumped = self._project(
            tmp_path,
            config=_CONFIG + "    warmup_s: float = 0.0\n",
            digest=_DIGEST.replace('"2"', '"3"'),
        )
        findings = list(checker.check(bumped))
        assert len(findings) == 1
        assert "stale" in findings[0].message

    def test_missing_manifest_fires(self, tmp_path):
        checker = self._checker(tmp_path)
        findings = list(checker.check(self._project(tmp_path)))
        assert len(findings) == 1
        assert "missing" in findings[0].message

    def test_ghost_exclusion_fires(self, tmp_path):
        project = self._project(
            tmp_path, digest=_DIGEST.replace('{"seed"}', '{"seed", "gone"}')
        )
        schema, problems = extract_digest_schema(project)
        assert schema is None
        assert any("gone" in finding.message for finding in problems)


# ------------------------------------------------------------------- pragmas
class TestPragmas:
    def test_pragma_suppresses_with_reason(self, tmp_path):
        root = make_tree(
            tmp_path,
            {
                "repro/sim/clocky.py": """\
                import time

                def stamp():
                    return time.time()  # repro: allow[determinism] display-only timestamp
                """
            },
        )
        report = lint(root, tmp_path, rules=["determinism"])
        assert report.findings == []
        assert len(report.suppressed) == 1
        assert report.suppressed[0].via == "pragma"
        assert report.suppressed[0].reason == "display-only timestamp"

    def test_pragma_on_previous_line_suppresses(self, tmp_path):
        root = make_tree(
            tmp_path,
            {
                "repro/sim/clocky.py": """\
                import time

                def stamp():
                    # repro: allow[determinism] display-only timestamp
                    return time.time()
                """
            },
        )
        report = lint(root, tmp_path, rules=["determinism"])
        assert report.findings == []

    def test_pragma_without_reason_is_a_finding(self, tmp_path):
        root = make_tree(
            tmp_path,
            {
                "repro/sim/clocky.py": """\
                import time

                def stamp():
                    return time.time()  # repro: allow[determinism]
                """
            },
        )
        report = lint(root, tmp_path, rules=["determinism"])
        rules = sorted(rules_of(report))
        # The violation survives (the pragma is invalid) and the pragma
        # itself is reported.
        assert rules == ["determinism", "pragma"]

    def test_unused_pragma_is_a_finding(self, tmp_path):
        root = make_tree(
            tmp_path,
            {
                "repro/sim/clean.py": """\
                # repro: allow[determinism] nothing here needs this
                def pure(x):
                    return x + 1
                """
            },
        )
        report = lint(root, tmp_path, rules=["determinism"])
        assert rules_of(report) == ["pragma"]
        assert "unused pragma" in report.findings[0].message

    def test_docstring_mention_is_not_a_pragma(self, tmp_path):
        root = make_tree(
            tmp_path,
            {
                "repro/sim/doc.py": '''\
                """Example: x = time.time()  # repro: allow[determinism] why"""

                def pure(x):
                    return x
                ''',
            },
        )
        report = lint(root, tmp_path, rules=["determinism"])
        assert report.findings == []


# ------------------------------------------------------------------ baseline
class TestBaseline:
    def test_baselined_finding_is_suppressed(self, tmp_path):
        root = make_tree(
            tmp_path,
            {
                "repro/sim/bad.py": """\
                import time

                def stamp():
                    return time.time()
                """
            },
        )
        first = run_lint(root, rules=["determinism"], baseline_path=tmp_path / "b.json")
        assert len(first.findings) == 1
        baseline = tmp_path / "b.json"
        baseline.write_text(
            json.dumps({"findings": [first.findings[0].key]}), encoding="utf-8"
        )
        second = run_lint(root, rules=["determinism"], baseline_path=baseline)
        assert second.findings == []
        assert [s.via for s in second.suppressed] == ["baseline"]

    def test_stale_baseline_entry_is_a_finding(self, tmp_path):
        root = make_tree(
            tmp_path,
            {
                "repro/sim/clean.py": """\
                def pure(x):
                    return x
                """
            },
        )
        baseline = tmp_path / "b.json"
        baseline.write_text(
            json.dumps({"findings": ["determinism::repro/sim/clean.py::gone"]}),
            encoding="utf-8",
        )
        report = run_lint(root, rules=["determinism"], baseline_path=baseline)
        assert rules_of(report) == ["baseline"]
        assert "stale baseline entry" in report.findings[0].message


# ------------------------------------------------------------ the repo itself
class TestRepoIsClean:
    def test_full_lint_of_the_repo_has_no_findings(self):
        report = run_lint(REPO_SRC)
        assert [f.render() for f in report.findings] == []

    def test_committed_baseline_is_empty(self):
        from repro.analysis.engine import BASELINE_PATH, load_baseline

        assert BASELINE_PATH.is_file()
        assert load_baseline() == set()

    def test_committed_manifest_matches_the_code(self):
        schema, problems = extract_digest_schema(Project.load(REPO_SRC))
        assert problems == [] and schema is not None
        from repro.analysis.checkers.digest_drift import MANIFEST_PATH

        recorded = json.loads(MANIFEST_PATH.read_text(encoding="utf-8"))
        assert recorded["digest_version"] == schema.version == "2"
        assert tuple(recorded["fields"]) == schema.fields
        assert tuple(recorded["excluded"]) == schema.excluded

    def test_every_rule_has_a_description(self):
        for checker in make_checkers():
            assert checker.rule and checker.description


# ----------------------------------------------------------------------- CLI
class TestLintCli:
    def test_coopckpt_lint_clean_repo_exits_zero(self, capsys):
        from repro.cli import main

        assert main(["lint"]) == 0
        out = capsys.readouterr().out
        assert "0 findings" in out

    def test_module_entry_point_json(self, capsys):
        from repro.analysis.cli import main

        assert main(["--json", "--rule", "determinism"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["findings"] == []
        assert payload["rules"] == ["determinism"]

    def test_findings_exit_one(self, tmp_path, capsys):
        from repro.cli import main

        root = make_tree(
            tmp_path,
            {
                "repro/sim/bad.py": "import time\n\ndef f():\n    return time.time()\n"
            },
        )
        code = main(
            [
                "lint",
                "--root", str(root),
                "--baseline", str(tmp_path / "none.json"),
            ]
        )
        assert code == 1
        assert "[determinism]" in capsys.readouterr().out

    def test_bad_root_exits_two(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["lint", "--root", str(tmp_path / "missing")]) == 2

    def test_list_rules(self, capsys):
        from repro.analysis.cli import main

        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in ("determinism", "fsops", "digest-drift", "locks", "registry"):
            assert rule in out

    def test_write_baseline_roundtrip(self, tmp_path, capsys):
        from repro.cli import main

        root = make_tree(
            tmp_path,
            {
                "repro/sim/bad.py": "import time\n\ndef f():\n    return time.time()\n"
            },
        )
        baseline = tmp_path / "b.json"
        assert main(
            ["lint", "--root", str(root), "--baseline", str(baseline), "--write-baseline"]
        ) == 0
        capsys.readouterr()
        assert main(["lint", "--root", str(root), "--baseline", str(baseline)]) == 0
        # The wall-clock finding plus the fixture tree's missing digest
        # schema are both grandfathered by the written baseline.
        assert "0 findings (2 suppressed)" in capsys.readouterr().out

"""Determinism checker: no wall clock, global RNG or set iteration in the
simulation path.

The bit-identity contract (same seeds → same bytes on every backend) only
holds if the modules that *compute* results never consult ambient state:

* wall-clock reads (``time.time``, ``datetime.now``, ``time.monotonic``,
  perf counters) — two runs would disagree;
* process-global RNG (module-level ``random.*``, ``np.random.*`` free
  functions, ``os.urandom``, ``uuid.uuid4``, ``secrets``) — state shared
  across cells breaks per-seed reproducibility (seeded instances such as
  ``random.Random(seed)`` or ``np.random.default_rng(seed)`` are fine);
* iterating a ``set``/``frozenset`` — iteration order depends on insertion
  history and ``PYTHONHASHSEED``; wrap the set in ``sorted(...)`` instead.

Scope: :data:`repro.analysis.policy.DETERMINISM_TARGETS` — ``repro.sim``,
``repro.simulation``, ``repro.apps``, ``repro.iosched``, ``repro.jobsched``,
``repro.platform``, ``repro.workloads``, ``repro.core`` and
``repro.exec.digest``.  The service, spool and cache layers are exempt by
named policy
(:data:`~repro.analysis.policy.DETERMINISM_EXEMPT`), not by accident.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable, Iterator

from repro.analysis import policy
from repro.analysis.base import Checker, Finding, ModuleInfo, Project

__all__ = ["DeterminismChecker"]

#: Dotted call origins that read the wall clock.
WALL_CLOCK = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.process_time_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

#: Dotted call origins that consume process-global or OS entropy.
GLOBAL_ENTROPY = frozenset(
    {
        "os.urandom",
        "os.getrandom",
        "uuid.uuid1",
        "uuid.uuid4",
        "random.seed",
        "random.random",
        "random.uniform",
        "random.randint",
        "random.randrange",
        "random.choice",
        "random.choices",
        "random.shuffle",
        "random.sample",
        "random.gauss",
        "random.normalvariate",
        "random.expovariate",
        "random.betavariate",
        "random.gammavariate",
        "random.lognormvariate",
        "random.weibullvariate",
        "random.getrandbits",
        "random.paretovariate",
        "random.triangular",
        "random.vonmisesvariate",
    }
)

#: ``numpy.random`` free functions share one hidden global generator.
_NUMPY_RANDOM_OK = frozenset({"default_rng", "Generator", "SeedSequence", "PCG64", "Philox"})


def _is_set_expr(node: ast.expr) -> bool:
    """Syntactically-certain set values: literals, comprehensions, set()."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    return False


class _Visitor(ast.NodeVisitor):
    def __init__(self, module: ModuleInfo) -> None:
        self.module = module
        self.findings: list[Finding] = []
        #: Local names currently known to hold a set (simple forward scan).
        self._set_names: set[str] = set()

    # ------------------------------------------------------------ helpers
    def _emit(self, node: ast.AST, message: str) -> None:
        self.findings.append(
            Finding(
                rule="determinism",
                path=self.module.relpath,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0),
                message=message,
            )
        )

    def _check_iter_target(self, node: ast.expr, context: str) -> None:
        if _is_set_expr(node):
            self._emit(
                node,
                f"{context} iterates a set: iteration order depends on "
                "PYTHONHASHSEED and insertion history; wrap it in sorted(...)",
            )
        elif isinstance(node, ast.Name) and node.id in self._set_names:
            self._emit(
                node,
                f"{context} iterates set {node.id!r}: iteration order depends on "
                "PYTHONHASHSEED and insertion history; wrap it in sorted(...)",
            )

    # ------------------------------------------------------------ visits
    def visit_Call(self, node: ast.Call) -> None:
        origin = self.module.imports.resolve(node.func)
        if origin is not None:
            if origin in WALL_CLOCK:
                self._emit(
                    node,
                    f"wall-clock read {origin}() in a determinism-contract module; "
                    "simulated results must be a pure function of (config, seed)",
                )
            elif origin in GLOBAL_ENTROPY:
                self._emit(
                    node,
                    f"{origin}() uses process-global/OS entropy; draw from a "
                    "seeded generator (random.Random(seed) / "
                    "np.random.default_rng(seed)) instead",
                )
            else:
                parts = origin.split(".")
                if (
                    len(parts) == 3
                    and parts[0] in ("numpy", "np")
                    and parts[1] == "random"
                    and parts[2] not in _NUMPY_RANDOM_OK
                ):
                    self._emit(
                        node,
                        f"{origin}() draws from numpy's hidden global generator; "
                        "use np.random.default_rng(seed)",
                    )
        self.generic_visit(node)

    def visit_Assign(self, node: ast.Assign) -> None:
        # Track obvious set-valued locals so `for x in pool:` is caught too.
        for target in node.targets:
            if isinstance(target, ast.Name):
                if _is_set_expr(node.value):
                    self._set_names.add(target.id)
                else:
                    self._set_names.discard(target.id)
        self.generic_visit(node)

    def visit_For(self, node: ast.For) -> None:
        self._check_iter_target(node.iter, "for loop")
        self.generic_visit(node)

    def visit_comprehension_generators(self, generators: list[ast.comprehension]) -> None:
        for gen in generators:
            self._check_iter_target(gen.iter, "comprehension")

    def visit_ListComp(self, node: ast.ListComp) -> None:
        self.visit_comprehension_generators(node.generators)
        self.generic_visit(node)

    def visit_SetComp(self, node: ast.SetComp) -> None:
        self.visit_comprehension_generators(node.generators)
        self.generic_visit(node)

    def visit_DictComp(self, node: ast.DictComp) -> None:
        self.visit_comprehension_generators(node.generators)
        self.generic_visit(node)

    def visit_GeneratorExp(self, node: ast.GeneratorExp) -> None:
        self.visit_comprehension_generators(node.generators)
        self.generic_visit(node)


class DeterminismChecker(Checker):
    rule = "determinism"
    description = (
        "no wall clock, global RNG or unordered set iteration in the "
        "simulation path (repro.sim / repro.simulation / repro.apps / "
        "repro.iosched / repro.jobsched / repro.platform / repro.workloads / "
        "repro.core / repro.exec.digest)"
    )

    def check(self, project: Project) -> Iterable[Finding]:
        return _scan(project)


def _scan(project: Project) -> Iterator[Finding]:
    for module in project.matching(policy.DETERMINISM_TARGETS):
        visitor = _Visitor(module)
        visitor.visit(module.tree)
        yield from visitor.findings

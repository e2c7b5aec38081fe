"""Fsops-discipline checker: spool filesystem side effects use the choke point.

Every filesystem *mutation* performed by :mod:`repro.distributed` must go
through :mod:`repro.distributed.fsops` (or the shared
``repro.store.filesystem.atomic_write_text`` it delegates to).  That choke point
is what makes the fault-injection suite able to fail/delay/count every
operation — a raw ``os.rename`` or ``open(..., "w")`` is invisible to it,
so the crash-safety proofs silently stop covering that code path.

Flagged inside :data:`repro.analysis.policy.FSOPS_TARGETS` (minus the choke
point itself):

* ``os.rename/replace/remove/unlink/rmdir/removedirs/mkdir/makedirs/
  utime/truncate/link/symlink`` and ``shutil`` mutation helpers;
* built-in ``open`` with a write/append/exclusive/update mode (or a mode
  the checker cannot prove is read-only);
* ``Path.write_text/write_bytes/touch/unlink/rename/replace/rmdir/mkdir``
  method calls on anything that is not the fsops module itself.

Reads (``open(path)``, ``Path.read_text``, ``os.scandir``) are allowed:
the contract covers side effects, which is what fault injection and the
O(shards-touched) op accounting need to observe.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable, Iterator

from repro.analysis import policy
from repro.analysis.base import Checker, Finding, ModuleInfo, Project, module_matches

__all__ = ["FsopsChecker"]

#: Dotted origins that mutate the filesystem directly.
RAW_MUTATIONS = frozenset(
    {
        "os.rename",
        "os.replace",
        "os.remove",
        "os.unlink",
        "os.rmdir",
        "os.removedirs",
        "os.renames",
        "os.mkdir",
        "os.makedirs",
        "os.utime",
        "os.truncate",
        "os.link",
        "os.symlink",
        "os.chmod",
        "shutil.move",
        "shutil.copy",
        "shutil.copy2",
        "shutil.copyfile",
        "shutil.copytree",
        "shutil.rmtree",
        "tempfile.mkstemp",
        "tempfile.mkdtemp",
        "tempfile.NamedTemporaryFile",
        "tempfile.TemporaryFile",
    }
)

#: Path/file-object method names that mutate the filesystem.
MUTATING_METHODS = frozenset(
    {
        "write_text",
        "write_bytes",
        "touch",
        "unlink",
        "rename",
        "rmdir",
        "mkdir",
        "symlink_to",
        "hardlink_to",
        "chmod",
    }
)
# ``Path.replace`` is deliberately absent: the name collides with
# ``str.replace`` (ubiquitous and harmless), and ``os.replace`` plus the
# write_* methods already cover the realistic bypass routes.


def _open_mode(node: ast.Call) -> str | None:
    """The constant mode string of an ``open``-style call, if provable."""
    mode: ast.expr | None = None
    if len(node.args) >= 2:
        mode = node.args[1]
    for keyword in node.keywords:
        if keyword.arg == "mode":
            mode = keyword.value
    if mode is None:
        return "r"
    if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
        return mode.value
    return None  # dynamic: cannot prove it is read-only


def _is_write_mode(mode: str | None) -> bool:
    return mode is None or any(ch in mode for ch in "wax+")


class _Visitor(ast.NodeVisitor):
    def __init__(self, module: ModuleInfo) -> None:
        self.module = module
        self.findings: list[Finding] = []

    def _emit(self, node: ast.AST, message: str) -> None:
        self.findings.append(
            Finding(
                rule="fsops",
                path=self.module.relpath,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0),
                message=message,
            )
        )

    def visit_Call(self, node: ast.Call) -> None:
        origin = self.module.imports.resolve(node.func)
        if origin is not None:
            if any(
                origin == choke or origin.startswith(choke + ".")
                for choke in policy.FSOPS_CHOKEPOINTS
            ):
                self.generic_visit(node)
                return
            if origin in RAW_MUTATIONS:
                self._emit(
                    node,
                    f"raw filesystem mutation {origin}() bypasses the fsops "
                    "choke point; route it through repro.distributed.fsops so "
                    "fault injection and op accounting can observe it",
                )
                self.generic_visit(node)
                return
            if origin == "open" or origin == "io.open":
                mode = _open_mode(node)
                if _is_write_mode(mode):
                    shown = "dynamic mode" if mode is None else f"mode {mode!r}"
                    self._emit(
                        node,
                        f"open(..., {shown}) writes outside the fsops choke "
                        "point; use fsops.write_text (atomic, "
                        "fault-injectable) instead",
                    )
                self.generic_visit(node)
                return
        if isinstance(node.func, ast.Attribute) and node.func.attr in MUTATING_METHODS:
            self._emit(
                node,
                f".{node.func.attr}() mutates the filesystem outside the fsops "
                "choke point; use the matching repro.distributed.fsops helper",
            )
        self.generic_visit(node)


class FsopsChecker(Checker):
    rule = "fsops"
    description = (
        "every filesystem side effect in repro.distributed routes through "
        "the fsops choke point (fault injection + op accounting)"
    )

    def check(self, project: Project) -> Iterable[Finding]:
        return _scan(project)


def _scan(project: Project) -> Iterator[Finding]:
    for module in project.matching(policy.FSOPS_TARGETS):
        if module_matches(module.name, ("repro.distributed.fsops",)):
            continue  # the choke point implements the raw calls by design
        visitor = _Visitor(module)
        visitor.visit(module.tree)
        yield from visitor.findings

"""Registry-conformance checker: registered plugins implement their contract.

The project exposes three open registries (ROADMAP standing contracts):
execution backends (``register_backend``), strategies
(``register_strategy``) and result stores (``register_store``).  Each has
an interface base class whose "abstract" methods either carry
``@abstractmethod`` or raise ``NotImplementedError``.  A plugin that misses
a method — or renames a parameter so keyword call sites break — fails at
*use* time, possibly deep inside a campaign.  This checker fails it at
*lint* time instead:

1. **Subclass sweep** — every class in the tree that (transitively)
   subclasses an interface base must

   * implement all abstract methods of its inheritance chain (leaf classes
     only: intermediate bases that other classes extend may stay partial);
   * override base methods with *compatible* signatures: same positional
     parameter names in the same order, extra parameters defaulted, base
     keyword-only parameters accepted (or ``**kwargs``), and no default
     dropped from an inherited optional parameter.

2. **Registration resolution** — each ``register_*(name, factory)`` call
   (and the built-in factory-dict literals) is resolved to the class the
   factory returns, where that is statically visible; a factory that
   resolves to a class *outside* the interface hierarchy is an error.
   ``register_strategy`` factories are callables, not classes: their
   signature must accept ``(spec, *, fixed_period_s=...)``.

Resolution is best-effort by design: a factory the AST cannot see through
(built dynamically, imported from outside the tree) is skipped, because the
sweep in (1) still covers every in-tree subclass.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field

from repro.analysis.base import Checker, Finding, ModuleInfo, Project

__all__ = ["RegistryConformanceChecker"]


@dataclass(frozen=True)
class InterfaceSpec:
    """One registry contract: its base class and how plugins register."""

    label: str
    base: str  #: fully qualified interface base class
    registrar: str  #: register_* function name
    factory_dicts: tuple[str, ...] = ()  #: module-level builtin factory dicts


INTERFACES: tuple[InterfaceSpec, ...] = (
    InterfaceSpec(
        label="execution backend",
        base="repro.exec.runner.ExecutionBackend",
        registrar="register_backend",
        factory_dicts=("repro.exec.runner._BACKEND_FACTORIES",),
    ),
    InterfaceSpec(
        label="result store",
        base="repro.store.base.ResultStore",
        registrar="register_store",
    ),
    InterfaceSpec(
        label="I/O scheduler",
        base="repro.iosched.base.IOScheduler",
        registrar="",  # reached through strategy factories; sweep-only
    ),
)

#: ``register_strategy`` factories are plain callables; this is their
#: expected call shape (see ``make_strategy`` in repro.iosched.registry).
STRATEGY_REGISTRAR = "register_strategy"
STRATEGY_FACTORY_KEYWORD = "fixed_period_s"


# --------------------------------------------------------------- signatures
@dataclass(frozen=True)
class Signature:
    """Call-shape of one function/method (AST-level)."""

    positional: tuple[str, ...]  #: posonly + regular args (self stripped)
    defaults: int  #: how many trailing positional params have defaults
    vararg: bool
    kwonly: tuple[str, ...]
    kwonly_required: tuple[str, ...]
    kwarg: bool

    def optional_positional(self) -> frozenset[str]:
        return frozenset(self.positional[len(self.positional) - self.defaults :])


def _signature(node: ast.FunctionDef | ast.AsyncFunctionDef, *, method: bool) -> Signature:
    args = node.args
    positional = [a.arg for a in (*args.posonlyargs, *args.args)]
    if method and positional:
        positional = positional[1:]  # drop self/cls
    kwonly = tuple(a.arg for a in args.kwonlyargs)
    kwonly_required = tuple(
        a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is None
    )
    return Signature(
        positional=tuple(positional),
        defaults=len(args.defaults),
        vararg=args.vararg is not None,
        kwonly=kwonly,
        kwonly_required=kwonly_required,
        kwarg=args.kwarg is not None,
    )


def _incompatibility(base: Signature, override: Signature) -> str | None:
    """Why ``override`` cannot substitute for ``base`` at call sites."""
    if override.kwarg and override.vararg:
        return None  # (*args, **kwargs) accepts anything
    # Positional parameters: same names, same order.
    shared = min(len(base.positional), len(override.positional))
    for index in range(shared):
        if base.positional[index] != override.positional[index]:
            return (
                f"positional parameter {index + 1} is named "
                f"{override.positional[index]!r}, base names it "
                f"{base.positional[index]!r} (keyword call sites break)"
            )
    if len(override.positional) < len(base.positional) and not override.vararg:
        missing = base.positional[len(override.positional) :]
        return f"missing positional parameter(s): {', '.join(missing)}"
    extra = override.positional[len(base.positional) :]
    extra_required = [
        name for name in extra if name not in override.optional_positional()
    ]
    if extra_required:
        return (
            f"adds required positional parameter(s) {', '.join(extra_required)} "
            "the interface's callers do not pass"
        )
    # Base optional positionals must stay optional.
    dropped = [
        name
        for name in base.optional_positional()
        if name in override.positional and name not in override.optional_positional()
    ]
    if dropped:
        return f"drops the default of optional parameter(s): {', '.join(dropped)}"
    if not override.kwarg:
        accepted = set(override.kwonly) | set(override.positional)
        missing_kw = [name for name in base.kwonly if name not in accepted]
        if missing_kw:
            return f"missing keyword parameter(s): {', '.join(missing_kw)}"
    stray_kw = [
        name
        for name in override.kwonly_required
        if name not in base.kwonly and name not in base.positional
    ]
    if stray_kw:
        return (
            f"adds required keyword-only parameter(s) {', '.join(stray_kw)} "
            "the interface's callers do not pass"
        )
    return None


# --------------------------------------------------------------- class index
@dataclass
class MethodInfo:
    name: str
    signature: Signature
    lineno: int
    abstract: bool  #: @abstractmethod or a NotImplementedError body


@dataclass
class ClassInfo:
    qualname: str  #: module.Class
    module: ModuleInfo
    node: ast.ClassDef
    bases: tuple[str, ...]  #: resolved dotted base names
    methods: dict[str, MethodInfo] = field(default_factory=dict)


def _is_abstract_method(node: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    for decorator in node.decorator_list:
        name = decorator.attr if isinstance(decorator, ast.Attribute) else (
            decorator.id if isinstance(decorator, ast.Name) else None
        )
        if name == "abstractmethod":
            return True
    for stmt in node.body:
        if isinstance(stmt, ast.Raise):
            exc = stmt.exc
            if isinstance(exc, ast.Call):
                exc = exc.func
            if isinstance(exc, ast.Name) and exc.id == "NotImplementedError":
                return True
    return False


def _build_index(project: Project) -> dict[str, ClassInfo]:
    index: dict[str, ClassInfo] = {}
    for module in project.modules:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            bases = tuple(
                # A bare (unimported) base name is a class in this module.
                origin if "." in origin else f"{module.name}.{origin}"
                for base in node.bases
                if (origin := module.imports.resolve(base)) is not None
            )
            qualname = f"{module.name}.{node.name}"
            info = ClassInfo(qualname=qualname, module=module, node=node, bases=bases)
            for stmt in node.body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    info.methods[stmt.name] = MethodInfo(
                        name=stmt.name,
                        signature=_signature(stmt, method=True),
                        lineno=stmt.lineno,
                        abstract=_is_abstract_method(stmt),
                    )
            # Nested classes resolve local base names to "module.Base".
            index.setdefault(qualname, info)
    return index


def _mro(info: ClassInfo, index: dict[str, ClassInfo]) -> list[ClassInfo]:
    """Linearised ancestry (depth-first, left-to-right, de-duplicated)."""
    seen: dict[str, ClassInfo] = {}

    def walk(current: ClassInfo) -> None:
        if current.qualname in seen:
            return
        seen[current.qualname] = current
        for base in current.bases:
            base_info = index.get(base)
            if base_info is not None:
                walk(base_info)

    walk(info)
    return list(seen.values())


def _inherits(info: ClassInfo, base_qualname: str, index: dict[str, ClassInfo]) -> bool:
    return any(ancestor.qualname == base_qualname for ancestor in _mro(info, index)[1:])


def _lookup(info: ClassInfo, method: str, index: dict[str, ClassInfo]) -> MethodInfo | None:
    for ancestor in _mro(info, index):
        found = ancestor.methods.get(method)
        if found is not None:
            return found
    return None


# ------------------------------------------------------------- registrations
@dataclass
class _ModuleDefs:
    functions: dict[str, ast.FunctionDef | ast.AsyncFunctionDef]


def _module_defs(module: ModuleInfo) -> _ModuleDefs:
    functions: dict[str, ast.FunctionDef | ast.AsyncFunctionDef] = {}
    for node in ast.walk(module.tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            functions.setdefault(node.name, node)
    return _ModuleDefs(functions=functions)


def _resolve_factory_class(
    expr: ast.expr, module: ModuleInfo, defs: _ModuleDefs, index: dict[str, ClassInfo]
) -> ClassInfo | None:
    """The class a factory expression ultimately constructs, if visible."""
    if isinstance(expr, (ast.Name, ast.Attribute)):
        origin = module.imports.resolve(expr)
        if origin is None:
            return None
        local = f"{module.name}.{origin}"
        if local in index:
            return index[local]
        if origin in index:
            return index[origin]
        tail = origin.rsplit(".", 1)[-1]
        if isinstance(expr, ast.Name) and tail in defs.functions:
            return _class_from_function(defs.functions[tail], module, defs, index)
        return None
    if isinstance(expr, ast.Lambda):
        body = expr.body
        if isinstance(body, ast.Call):
            return _resolve_factory_class(body.func, module, defs, index)
    return None


def _class_from_function(
    func: ast.FunctionDef | ast.AsyncFunctionDef,
    module: ModuleInfo,
    defs: _ModuleDefs,
    index: dict[str, ClassInfo],
) -> ClassInfo | None:
    for node in ast.walk(func):
        if isinstance(node, ast.Return) and isinstance(node.value, ast.Call):
            resolved = _resolve_factory_class(node.value.func, module, defs, index)
            if resolved is not None:
                return resolved
    return None


def _callable_signature(
    expr: ast.expr, module: ModuleInfo, defs: _ModuleDefs
) -> Signature | None:
    """Signature of the callable a strategy-factory expression denotes."""
    if isinstance(expr, ast.Lambda):
        # Treat a lambda like a function (lambdas cannot have kw-only docs).
        fake = ast.FunctionDef(
            name="<lambda>", args=expr.args, body=[], decorator_list=[]
        )
        return _signature(fake, method=False)
    if isinstance(expr, ast.Name):
        func = defs.functions.get(expr.id)
        if func is not None:
            return _signature(func, method=False)
        return None
    if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name):
        # factory-factory: f(...) returning a nested function
        outer = defs.functions.get(expr.func.id)
        if outer is not None:
            inner_names = {
                stmt.name
                for stmt in ast.walk(outer)
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
                and stmt.name != outer.name
            }
            for node in ast.walk(outer):
                if isinstance(node, ast.Return) and isinstance(node.value, ast.Name):
                    if node.value.id in inner_names:
                        for stmt in ast.walk(outer):
                            if (
                                isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
                                and stmt.name == node.value.id
                            ):
                                return _signature(stmt, method=False)
    return None


# ------------------------------------------------------------------ checker
class RegistryConformanceChecker(Checker):
    rule = "registry"
    description = (
        "classes registered with register_backend/strategy/store "
        "implement the full interface with compatible signatures"
    )

    def check(self, project: Project) -> Iterable[Finding]:
        return _scan(project)


def _scan(project: Project) -> Iterator[Finding]:
    index = _build_index(project)
    extended = {info.qualname for info in index.values() for info in [info]}
    has_subclass: set[str] = set()
    for info in index.values():
        for base in info.bases:
            has_subclass.add(base)

    # ---- pass 1: subclass sweep
    for spec in INTERFACES:
        base_info = index.get(spec.base)
        if base_info is None:
            continue
        for info in index.values():
            if info.qualname == spec.base or not _inherits(info, spec.base, index):
                continue
            yield from _check_class(spec, info, index, leaf=info.qualname not in has_subclass)

    # ---- pass 2: registration-site resolution
    registrar_to_spec = {spec.registrar: spec for spec in INTERFACES if spec.registrar}
    for module in project.modules:
        defs = _module_defs(module)
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                name = (
                    node.func.attr
                    if isinstance(node.func, ast.Attribute)
                    else node.func.id if isinstance(node.func, ast.Name) else None
                )
                if name == STRATEGY_REGISTRAR and len(node.args) >= 2:
                    yield from _check_strategy_factory(node, module, defs)
                elif name in registrar_to_spec and len(node.args) >= 2:
                    yield from _check_registration(
                        registrar_to_spec[name], node, node.args[1], module, defs, index
                    )
            elif isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict):
                for target in node.targets:
                    if not isinstance(target, ast.Name):
                        continue
                    qual = f"{module.name}.{target.id}"
                    for spec in INTERFACES:
                        if qual in spec.factory_dicts:
                            for value in node.value.values:
                                yield from _check_registration(
                                    spec, value, value, module, defs, index
                                )


def _check_class(
    spec: InterfaceSpec,
    info: ClassInfo,
    index: dict[str, ClassInfo],
    *,
    leaf: bool,
) -> Iterator[Finding]:
    base_info = index[spec.base]
    # Abstract-completeness: every abstract method in the ancestry must
    # resolve to a concrete implementation (leaf classes only).
    if leaf:
        required: set[str] = set()
        for ancestor in _mro(info, index)[1:]:
            for method in ancestor.methods.values():
                if method.abstract:
                    required.add(method.name)
        for name in sorted(required):
            found = _lookup(info, name, index)
            if found is None or found.abstract:
                yield Finding(
                    rule="registry",
                    path=info.module.relpath,
                    line=info.node.lineno,
                    col=info.node.col_offset,
                    message=f"{info.qualname} is a concrete {spec.label} but does "
                    f"not implement {name}() required by {spec.base}",
                )
    # Signature compatibility of overrides against the interface base.
    for name, base_method in base_info.methods.items():
        override = info.methods.get(name)
        if override is None:
            continue
        problem = _incompatibility(base_method.signature, override.signature)
        if problem is not None:
            yield Finding(
                rule="registry",
                path=info.module.relpath,
                line=override.lineno,
                col=info.node.col_offset,
                message=f"{info.qualname}.{name}() is incompatible with "
                f"{spec.base}.{name}(): {problem}",
            )


def _check_registration(
    spec: InterfaceSpec,
    site: ast.expr,
    factory: ast.expr,
    module: ModuleInfo,
    defs: _ModuleDefs,
    index: dict[str, ClassInfo],
) -> Iterator[Finding]:
    resolved = _resolve_factory_class(factory, module, defs, index)
    if resolved is None:
        return  # dynamically built factory: the subclass sweep still applies
    if resolved.qualname != spec.base and not _inherits(resolved, spec.base, index):
        yield Finding(
            rule="registry",
            path=module.relpath,
            line=getattr(site, "lineno", 1),
            col=getattr(site, "col_offset", 0),
            message=f"{spec.registrar or spec.label} registers {resolved.qualname}, "
            f"which does not subclass {spec.base}; plugins must implement "
            "the interface base so the contract suite covers them",
        )


def _check_strategy_factory(
    node: ast.Call, module: ModuleInfo, defs: _ModuleDefs
) -> Iterator[Finding]:
    signature = _callable_signature(node.args[1], module, defs)
    if signature is None:
        return
    if signature.kwarg:
        accepts_keyword = True
    else:
        accepts_keyword = STRATEGY_FACTORY_KEYWORD in (
            *signature.kwonly,
            *signature.positional[1:],
        )
    takes_spec = signature.vararg or len(signature.positional) >= 1
    required_beyond_spec = [
        name
        for name in signature.positional[1:]
        if name not in signature.optional_positional() and name != STRATEGY_FACTORY_KEYWORD
    ] + [name for name in signature.kwonly_required if name != STRATEGY_FACTORY_KEYWORD]
    problems = []
    if not takes_spec:
        problems.append("must accept the parsed StrategySpec as its first argument")
    if not accepts_keyword:
        problems.append(f"must accept the keyword argument {STRATEGY_FACTORY_KEYWORD!r}")
    if required_beyond_spec:
        problems.append(
            "has extra required parameter(s) make_strategy() will not pass: "
            + ", ".join(required_beyond_spec)
        )
    for problem in problems:
        yield Finding(
            rule="registry",
            path=module.relpath,
            line=node.lineno,
            col=node.col_offset,
            message=f"register_strategy factory {problem} "
            "(contract: factory(spec, *, fixed_period_s=...) -> Strategy)",
        )

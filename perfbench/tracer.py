"""Run one ``coopckpt`` command with spans recorded around each layer's calls.

Usage::

    PYTHONPATH=src python3 perfbench/tracer.py SPANS.json -- campaign --file m.json ...

The tracer imports ``repro.cli``, replaces a fixed list of public functions
and methods with wrappers (patched where their callers look them up, e.g.
``repro.simulation.simulator.generate_jobs``), runs ``repro.cli.main`` on the
remaining arguments and, when the command ends, writes every span to
``SPANS.json``.  Nothing under ``src/`` is modified: the wrappers live only
in this process.

A span is ``[name, start, end, parent, value]``: ``start``/``end`` come from
``time.perf_counter``, ``parent`` is the index of the enclosing span (-1 at
top level) and ``value`` is an optional number read from the call's result
(events fired, jobs generated, a store hit).  Calls too frequent to time
individually (event-queue pushes and cancels) are only counted.  A target
that no longer exists is listed under ``dropped`` instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from collections.abc import Callable
from time import perf_counter

ValueFn = Callable[[object, tuple], object]


def _cells(result: object, args: tuple) -> object:
    return sum(len(scenario.strategies) for scenario in result)


def _hit(result: object, args: tuple) -> object:
    return 0 if result is None else 1


def _length(result: object, args: tuple) -> object:
    return len(result)


def _events(result: object, args: tuple) -> object:
    return result.events_fired


def _io_concurrency(result: object, args: tuple) -> object:
    return args[0].max_concurrency


#: (span name, "module:attribute.path", options).  ``subclasses`` also wraps
#: every override of the method in the owner's subclasses; ``count`` records
#: a call count instead of spans.
TARGETS: tuple[tuple[str, str, dict], ...] = (
    ("scenarios.from_file", "repro.scenarios.campaign:Campaign.from_file", {}),
    ("scenarios.scenarios", "repro.scenarios.campaign:Campaign.scenarios", {"value": _cells}),
    ("scenarios.render", "repro.scenarios.report:render_campaign", {}),
    ("scenarios.to_csv", "repro.scenarios.report:campaign_to_csv", {}),
    ("exec.digest", "repro.exec.runner:config_digest", {}),
    ("exec.map_seeds", "repro.exec.runner:ParallelRunner.map_seeds", {}),
    ("store.get", "repro.store.base:ResultStore.get", {"subclasses": True, "value": _hit}),
    ("store.probe", "repro.store.base:ResultStore.probe", {"subclasses": True}),
    ("store.put", "repro.store.base:ResultStore.put", {"subclasses": True}),
    ("simulation.init", "repro.simulation.simulator:Simulation.__init__", {}),
    ("simulation.run", "repro.simulation.simulator:Simulation.run", {"value": _events}),
    ("workloads.generate", "repro.simulation.simulator:generate_jobs", {"value": _length}),
    ("platform.failures", "repro.simulation.simulator:generate_failure_trace", {"value": _length}),
    ("platform.nodes.allocate", "repro.platform.nodes:NodePool.allocate", {}),
    ("platform.nodes.release", "repro.platform.nodes:NodePool.release_owner", {}),
    ("platform.io.start", "repro.platform.io_subsystem:IOSubsystem.start", {"value": _io_concurrency}),
    ("sim.push", "repro.sim.events:EventQueue.push", {"count": True}),
    ("sim.cancel", "repro.sim.events:EventQueue.cancel", {"count": True}),
    ("iosched.submit", "repro.iosched.base:IOScheduler.submit", {"subclasses": True}),
    ("jobsched.dispatch", "repro.jobsched.first_fit:FirstFitScheduler.dispatch", {}),
    ("distributed.submit", "repro.distributed.submit:SpoolBackend.run", {}),
)


class Recorder:
    """In-memory span and call-count store of one process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.dropped: list[str] = []

    def timed(self, name: str, func: Callable, value: ValueFn | None) -> Callable:
        spans, stack, dropped = self.spans, self.stack, self.dropped

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            if parent >= 0 and spans[parent][0] == name:
                return func(*args, **kwargs)  # an override calling its base
            record = [name, perf_counter(), 0.0, parent, None]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = func(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
            if value is not None:
                try:
                    record[4] = value(result, args)
                except Exception as exc:  # a changed result shape drops the metric, not the run
                    if not any(entry.startswith(f"{name}:") for entry in dropped):
                        dropped.append(f"{name}: reading its value failed ({exc!r})")
            return result

        return wrapper

    def counted(self, name: str, func: Callable) -> Callable:
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return func(*args, **kwargs)

        return wrapper

    def install(self, name: str, target: str, *, value: ValueFn | None = None,
                count: bool = False, subclasses: bool = False) -> None:
        module_name, _, path = target.partition(":")
        try:
            owner: object = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            if not isinstance(owner, type):
                _wrap_attribute(owner, attr, self._wrapper(name, value, count))
                return
            classes = [owner, *_all_subclasses(owner)] if subclasses else [owner]
            defining: list[type] = []
            for klass in classes:
                holder = next((k for k in klass.__mro__ if attr in vars(k)), None)
                if holder is None:
                    raise AttributeError(f"{klass.__name__} has no {attr}")
                if holder not in defining:
                    defining.append(holder)
            for holder in defining:
                _wrap_attribute(holder, attr, self._wrapper(name, value, count))
        except (ImportError, AttributeError) as exc:
            self.dropped.append(f"{name}: {target} ({exc})")

    def _wrapper(self, name: str, value: ValueFn | None, count: bool) -> Callable[[Callable], Callable]:
        if count:
            return lambda func: self.counted(name, func)
        return lambda func: self.timed(name, func, value)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {"spans": self.spans, "counts": self.counts, "dropped": self.dropped},
                handle,
                separators=(",", ":"),
            )


def _all_subclasses(klass: type) -> list[type]:
    found: list[type] = []
    for sub in klass.__subclasses__():
        found.append(sub)
        found.extend(_all_subclasses(sub))
    return found


def _wrap_attribute(owner: object, attr: str, wrap: Callable[[Callable], Callable]) -> None:
    raw = inspect.getattr_static(owner, attr)
    if isinstance(raw, classmethod):
        setattr(owner, attr, classmethod(wrap(raw.__func__)))
    elif isinstance(raw, staticmethod):
        setattr(owner, attr, staticmethod(wrap(raw.__func__)))
    elif callable(raw):
        setattr(owner, attr, wrap(raw))
    else:
        raise AttributeError(f"{attr} is not callable")


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print("usage: tracer.py SPANS.json -- <coopckpt arguments>", file=sys.stderr)
        return 2
    spans_path, cli_args = argv[0], argv[2:]
    import repro.cli  # every layer the CLI loads is loaded before patching

    recorder = Recorder()
    for name, target, options in TARGETS:
        recorder.install(name, target, **options)
    try:
        return repro.cli.main(cli_args)
    finally:
        recorder.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

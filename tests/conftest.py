"""Shared fixtures: a tiny platform and workload that simulate in milliseconds."""

from __future__ import annotations

import contextlib
import sys
import threading
from pathlib import Path

import pytest

# Allow running the tests from a source checkout even when the package has
# not been installed (e.g. `pytest` straight after cloning).
_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:  # pragma: no cover - environment dependent
    try:
        import repro  # noqa: F401
    except ModuleNotFoundError:
        sys.path.insert(0, str(_SRC))

from repro.apps.app_class import ApplicationClass
from repro.platform.spec import PlatformSpec
from repro.simulation.config import SimulationConfig
from repro.units import DAY, GB, HOUR


def pytest_configure(config: pytest.Config) -> None:
    config.addinivalue_line(
        "markers",
        "paper: the paper's qualitative claims on laptop-scale runs "
        "(tests/test_paper_claims.py; CI job paper-claims)",
    )


@pytest.fixture
def tiny_platform() -> PlatformSpec:
    """A 16-node toy platform with a 1 GB/s file system."""
    return PlatformSpec(
        name="TestBox",
        num_nodes=16,
        cores_per_node=4,
        memory_per_node_bytes=8.0 * GB,
        io_bandwidth_bytes_per_s=1.0 * GB,
        node_mtbf_s=60.0 * DAY,
    )


@pytest.fixture
def tiny_classes() -> tuple[ApplicationClass, ApplicationClass]:
    """Two small application classes filling the toy platform."""
    alpha = ApplicationClass(
        name="alpha",
        nodes=4,
        work_s=2.0 * HOUR,
        input_bytes=2.0 * GB,
        output_bytes=4.0 * GB,
        checkpoint_bytes=8.0 * GB,
        workload_share=0.6,
    )
    beta = ApplicationClass(
        name="beta",
        nodes=2,
        work_s=1.0 * HOUR,
        input_bytes=1.0 * GB,
        output_bytes=2.0 * GB,
        checkpoint_bytes=3.0 * GB,
        workload_share=0.4,
    )
    return alpha, beta


@pytest.fixture
def spool_workers():
    """Factory: run N :class:`SpoolWorker` threads against a spool/cache pair.

    Threads exercise the identical claim/simulate/cache/ack code path that
    separate worker processes run in production (the spool itself only sees
    filesystem operations either way) while keeping tests fast and
    deterministic.  Usage::

        with spool_workers(spool_dir, cache_dir, count=2) as workers:
            ...  # submit through a spool-backend runner
    """

    @contextlib.contextmanager
    def run(spool_dir, cache_dir, *, count=1, lease_ttl_s=30.0, **worker_kwargs):
        from repro.distributed import SpoolWorker, WorkSpool
        from repro.store import FilesystemStore

        stop = threading.Event()
        workers, threads = [], []
        for index in range(count):
            worker = SpoolWorker(
                WorkSpool(spool_dir, lease_ttl_s=lease_ttl_s),
                FilesystemStore(cache_dir),
                worker_id=f"test-worker-{index}",
                poll_interval_s=0.01,
                stop_event=stop,
                **worker_kwargs,
            )
            thread = threading.Thread(target=worker.run, daemon=True)
            thread.start()
            workers.append(worker)
            threads.append(thread)
        try:
            yield workers
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=60)

    return run


@pytest.fixture
def fs_faults():
    """Factory: arm the spool's FS-ops choke point with a scripted hook.

    Yields an installer that accepts either a plain ``(op, path)`` callable
    or keyword arguments forwarded to
    :class:`repro.distributed.fsops.FaultInjector` (``rate``/``delay_s``/
    ``ops``/``seed``); returns the installed hook.  Whatever was installed
    is restored on test exit, so armed faults never leak across tests.
    Usage::

        injector = fs_faults(rate=0.2, seed=7)       # seeded random faults
        fs_faults(lambda op, path: ...)              # scripted faults
        fs_faults(None)                              # disarm mid-test
    """
    from repro.distributed import fsops

    initial = fsops.fault_hook()
    installed = [initial]

    def arm(hook=None, **kwargs):
        if kwargs:
            assert hook is None, "pass either a hook or FaultInjector kwargs"
            hook = fsops.FaultInjector(**kwargs)
        fsops.install_fault_hook(hook)
        installed[0] = hook
        return hook

    try:
        yield arm
    finally:
        fsops.install_fault_hook(initial)


@pytest.fixture
def tiny_config(tiny_platform, tiny_classes):
    """Factory for quick simulation configurations on the toy platform."""

    def make(strategy: str = "least-waste", **overrides) -> SimulationConfig:
        parameters = dict(
            platform=tiny_platform,
            classes=tiny_classes,
            strategy=strategy,
            horizon_s=1.0 * DAY,
            warmup_s=2.0 * HOUR,
            cooldown_s=2.0 * HOUR,
            seed=123,
        )
        parameters.update(overrides)
        return SimulationConfig(**parameters)

    return make

"""Filesystem operations of the work spool, routed through one choke point.

Every filesystem side effect the spool performs — renames, stats, scans,
writes, unlinks — goes through this module instead of calling
:mod:`os` directly.  That buys fault injection: tests install a hook
(:func:`install_fault_hook`) that observes ``(op, path)`` *before* the real
call and may raise an :class:`OSError` (a transient filesystem error), sleep
(a loaded parallel filesystem), or raise ``SystemExit`` (sudden worker death
at exactly that point).  The fault-injection suite uses this to prove the
spool's claim/lease contracts hold under failure, and the saturation
benchmark uses delay mode to model PFS latency.

Production behaviour is a straight pass-through costing one ``None`` check
per call.  Setting ``REPRO_SPOOL_FAULT_RATE`` (a probability) arms a seeded
:class:`FaultInjector` at import time — CI's saturation-smoke job runs
workers this way — optionally tuned by ``REPRO_SPOOL_FAULT_OPS`` (comma
list), ``REPRO_SPOOL_FAULT_DELAY_S`` and ``REPRO_SPOOL_FAULT_SEED``; a
malformed value is a :class:`~repro.errors.ConfigurationError` on import.
The environment injector only targets *retry-safe* operations by default
(``rename``/``stat``/``utime``/``scandir``), which the spool treats as lost
races or transient stalls rather than errors.
"""

from __future__ import annotations

import errno
import math
import os
import random
import threading
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import ConfigurationError
from repro.store.filesystem import atomic_write_text

__all__ = [
    "FaultInjector",
    "fault_hook",
    "install_fault_hook",
    "exists",
    "mkdir",
    "read_text",
    "rename",
    "rmdir",
    "scandir_names",
    "stat",
    "touch",
    "unlink",
    "write_text",
]

#: Every operation name the choke point reports to the hook.
ALL_OPS = frozenset(
    {"rename", "stat", "utime", "scandir", "mkdir", "rmdir", "unlink", "read", "write"}
)

#: Operations the environment-armed injector targets: each is a point the
#: spool already treats as a lost race or a transient stall.
RETRY_SAFE_OPS = frozenset({"rename", "stat", "utime", "scandir"})

_hook: Callable[[str, str], None] | None = None


def install_fault_hook(hook: Callable[[str, str], None] | None) -> Callable[[str, str], None] | None:
    """Install (or with ``None`` clear) the op hook; returns the previous one."""
    global _hook
    previous = _hook
    _hook = hook
    return previous


def fault_hook() -> Callable[[str, str], None] | None:
    """The currently installed hook (``None`` when disarmed)."""
    return _hook


def _check(op: str, path: os.PathLike[str] | str) -> None:
    if _hook is not None:
        _hook(op, str(path))


@dataclass
class FaultInjector:
    """A seeded hook that fails and/or delays chosen operations.

    ``rate`` is the per-operation failure probability (0 disables
    failures); ``delay_s`` sleeps before every targeted operation (models a
    loaded shared filesystem); ``ops`` restricts both to an operation set.
    Deterministic for a given seed and call sequence, and safe to share
    between threads.
    """

    rate: float = 0.0
    delay_s: float = 0.0
    ops: frozenset[str] = RETRY_SAFE_OPS
    seed: int | None = None
    injected: int = field(default=0, init=False)
    _rng: random.Random = field(init=False, repr=False)
    _lock: threading.Lock = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.ops = frozenset(self.ops)
        self._rng = random.Random(self.seed)
        self._lock = threading.Lock()

    def __call__(self, op: str, path: str) -> None:
        if op not in self.ops:
            return
        if self.delay_s > 0.0:
            time.sleep(self.delay_s)
        if self.rate > 0.0:
            with self._lock:
                fire = self._rng.random() < self.rate
                if fire:
                    self.injected += 1
            if fire:
                raise OSError(errno.EIO, f"injected fault: {op} {path}")


def _env_number(name: str, *, high: float) -> float:
    """One numeric knob, finite and in ``[0, high]`` (unset or empty = 0)."""
    raw = os.environ.get(name)
    if not raw:
        return 0.0
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    if not 0.0 <= value <= high:  # NaN fails every comparison
        raise ConfigurationError(f"{name}={raw!r} must be a number in [0, {high:g}]")
    return value


def _arm_from_env() -> None:
    """Arm a :class:`FaultInjector` from the ``REPRO_SPOOL_FAULT_*`` knobs.

    Nothing is armed unless the rate or the delay is set, and unset or
    empty knobs keep their defaults.  A malformed value raises
    :class:`~repro.errors.ConfigurationError` naming the variable: a
    typo'd fault drill must fail loudly instead of testing nothing.  The
    delay is capped at an hour per operation, far beyond any drill and
    well inside what :func:`time.sleep` accepts.
    """
    rate = _env_number("REPRO_SPOOL_FAULT_RATE", high=1.0)
    delay = _env_number("REPRO_SPOOL_FAULT_DELAY_S", high=3600.0)
    ops = RETRY_SAFE_OPS
    raw_ops = os.environ.get("REPRO_SPOOL_FAULT_OPS")
    if raw_ops:
        ops = frozenset(name.strip() for name in raw_ops.split(",") if name.strip())
        if not ops or not ops <= ALL_OPS:
            raise ConfigurationError(
                f"REPRO_SPOOL_FAULT_OPS={raw_ops!r} must be a comma list of "
                f"{', '.join(sorted(ALL_OPS))}"
            )
    seed: int | None = None
    raw_seed = os.environ.get("REPRO_SPOOL_FAULT_SEED")
    if raw_seed:
        try:
            seed = int(raw_seed)
        except ValueError:
            raise ConfigurationError(
                f"REPRO_SPOOL_FAULT_SEED={raw_seed!r} must be an integer"
            ) from None
    if os.environ.get("REPRO_SPOOL_FAULT_RATE") or os.environ.get("REPRO_SPOOL_FAULT_DELAY_S"):
        install_fault_hook(FaultInjector(rate=rate, delay_s=delay, ops=ops, seed=seed))


_arm_from_env()


# --------------------------------------------------------------- operations
def rename(src: os.PathLike[str] | str, dst: os.PathLike[str] | str) -> None:
    _check("rename", src)
    os.rename(src, dst)


def stat(path: os.PathLike[str] | str) -> os.stat_result:
    _check("stat", path)
    return os.stat(path)


def exists(path: os.PathLike[str] | str) -> bool:
    _check("stat", path)
    return os.path.exists(path)


def touch(path: os.PathLike[str] | str) -> None:
    """Refresh a file's mtime to now (the spool's heartbeat primitive)."""
    _check("utime", path)
    now = time.time()
    os.utime(path, (now, now))


def scandir_names(path: os.PathLike[str] | str) -> list[str]:
    """Entry names of one directory ([] when it does not exist)."""
    _check("scandir", path)
    try:
        with os.scandir(path) as entries:
            return [entry.name for entry in entries]
    except FileNotFoundError:
        return []


def mkdir(path: os.PathLike[str] | str) -> None:
    _check("mkdir", path)
    os.makedirs(path, exist_ok=True)


def rmdir(path: os.PathLike[str] | str) -> None:
    _check("rmdir", path)
    os.rmdir(path)


def unlink(path: os.PathLike[str] | str, *, missing_ok: bool = True) -> None:
    _check("unlink", path)
    try:
        os.unlink(path)
    except FileNotFoundError:
        if not missing_ok:
            raise


def read_text(path: os.PathLike[str] | str) -> str:
    _check("read", path)
    return Path(path).read_text(encoding="utf-8")


def write_text(path: os.PathLike[str] | str, text: str) -> None:
    """Atomic write (temp file + replace), shared with the result cache."""
    _check("write", path)
    atomic_write_text(Path(path), text)

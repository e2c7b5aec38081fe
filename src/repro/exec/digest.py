"""Stable content digests for simulation configurations.

The result store (:mod:`repro.store`) is keyed by
``(config digest, strategy, seed)``.  The digest must therefore be a pure
function of every parameter that can change a simulation's *result* — the
platform, the application classes, the strategy and all numeric knobs — and
of nothing else.  In particular the per-run ``seed`` is excluded (it is a
separate key component) and so is ``collect_trace`` (tracing never changes
the simulated outcome, only what is recorded along the way).

Floats are serialised with :func:`repr`-exact JSON encoding, so two configs
hash equal iff they would produce bit-identical simulations.  The digest
embeds a format version; bump :data:`DIGEST_VERSION` whenever the simulator
changes behaviour in a way that invalidates cached values.

The ``strategy`` field enters the payload as its canonical spec string
(:func:`repro.iosched.registry.canonical_strategy`, applied by
``SimulationConfig``): the paper's seven legacy names stay bare strings —
keeping every pre-spec digest byte-identical without a version bump — while
non-default strategy parameters (``ordered[policy=fixed,period_s=1800]``)
become part of the key automatically.

The hashed mapping, :func:`config_payload`, is also how spool task specs
carry a configuration; :func:`config_from_payload` rebuilds it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from typing import Any

from repro.apps.app_class import ApplicationClass
from repro.errors import ConfigurationError
from repro.platform.failures import FailureModel
from repro.platform.interference import (
    CappedConcurrencyInterference,
    DegradingInterference,
    LinearInterference,
)
from repro.platform.spec import PlatformSpec
from repro.simulation.config import SimulationConfig

__all__ = ["DIGEST_VERSION", "config_digest", "config_from_payload", "config_payload"]

#: Cache-format version; bump to invalidate every previously cached result.
#: v2: SimulationConfig grew a ``failure_model`` field (pluggable failure
#: inter-arrival distributions), which changes the digest payload schema.
DIGEST_VERSION = "2"

#: Config fields excluded from the digest: the seed is a separate cache-key
#: component and trace collection does not affect simulated results.
_EXCLUDED_FIELDS = frozenset({"seed", "collect_trace"})


def _encode(value: Any) -> Any:
    """Canonical JSON-encodable form of one config field value.

    Only dataclasses, sequences and JSON scalars have one: a dataclass's
    fields name every parameter, while any other object could only be
    keyed by its ``repr``, and a ``repr`` that leaves a parameter out gives
    two different configurations one digest.  Such a value is refused.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = dataclasses.asdict(value)
        return {"__type__": type(value).__name__, **{k: _encode(v) for k, v in sorted(fields.items())}}
    if isinstance(value, (tuple, list)):
        return [_encode(item) for item in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise ConfigurationError(
        f"cannot digest a {type(value).__name__}: a configuration holds only "
        "dataclasses, sequences and JSON scalars, so that every parameter "
        "enters its cache key (make the type a dataclass)"
    )


#: The ``__type__`` tags a payload may carry: every object type a
#: configuration holds, rebuilt through its own constructor.
_PAYLOAD_TYPES: dict[str, Any] = {
    cls.__name__: cls
    for cls in (
        PlatformSpec,
        ApplicationClass,
        FailureModel,
        LinearInterference,
        DegradingInterference,
        CappedConcurrencyInterference,
    )
}


def config_payload(config: SimulationConfig) -> dict[str, Any]:
    """The JSON-ready mapping :func:`config_digest` hashes: every
    result-affecting field of ``config``, stamped with ``__version__``."""
    payload: dict[str, Any] = {"__version__": DIGEST_VERSION}
    for field in dataclasses.fields(config):
        if field.name not in _EXCLUDED_FIELDS:
            payload[field.name] = _encode(getattr(config, field.name))
    return payload


def config_digest(config: SimulationConfig) -> str:
    """Hex SHA-256 digest of every result-affecting field of ``config``."""
    canonical = json.dumps(config_payload(config), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _build(cls: Any, fields: dict[str, Any]) -> Any:
    """``cls(**fields)``; a foreign field or a refused value is a ConfigurationError."""
    try:
        return cls(**fields)
    except (TypeError, ValueError, AttributeError, OverflowError) as exc:
        raise ConfigurationError(f"invalid {cls.__name__}: {exc}") from exc


def _decode(value: Any) -> Any:
    """Inverse of :func:`_encode`; refuses non-finite numbers and untagged objects."""
    if isinstance(value, list):
        return tuple(_decode(item) for item in value)
    if isinstance(value, dict):
        fields = dict(value)
        tag = fields.pop("__type__", None)
        if not isinstance(tag, str) or tag not in _PAYLOAD_TYPES:
            raise ConfigurationError(f"unknown config object type {tag!r}")
        return _build(_PAYLOAD_TYPES[tag], {name: _decode(item) for name, item in fields.items()})
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigurationError(f"non-finite number {value!r} in a config payload")
    return value


def config_from_payload(payload: Any) -> SimulationConfig:
    """Inverse of :func:`config_payload` after a JSON round trip: the
    digest of the result is the original's.  ``__version__`` is ignored.
    Raises :class:`ConfigurationError` unless the constructors of the
    config types accept every field."""
    if not isinstance(payload, dict):
        raise ConfigurationError(f"a config payload is an object, not {type(payload).__name__}")
    fields = {name: _decode(value) for name, value in payload.items() if name != "__version__"}
    config: SimulationConfig = _build(SimulationConfig, fields)
    config.workload_spec()  # the workload knobs validate only here
    return config

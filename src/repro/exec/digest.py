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
(:func:`repro.iosched.spec.canonical_strategy`, applied by
``SimulationConfig``): the paper's seven legacy names stay bare strings —
keeping every pre-spec digest byte-identical without a version bump — while
non-default strategy parameters (``ordered[policy=fixed,period_s=1800]``)
become part of the key automatically.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Any

from repro.simulation.config import SimulationConfig

__all__ = ["DIGEST_VERSION", "config_digest"]

#: Cache-format version; bump to invalidate every previously cached result.
#: v2: SimulationConfig grew a ``failure_model`` field (pluggable failure
#: inter-arrival distributions), which changes the digest payload schema.
DIGEST_VERSION = "2"

#: Config fields excluded from the digest: the seed is a separate cache-key
#: component and trace collection does not affect simulated results.
_EXCLUDED_FIELDS = frozenset({"seed", "collect_trace"})


def _encode(value: Any) -> Any:
    """Canonical JSON-encodable form of one config field value."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = dataclasses.asdict(value)
        return {"__type__": type(value).__name__, **{k: _encode(v) for k, v in sorted(fields.items())}}
    if isinstance(value, (tuple, list)):
        return [_encode(item) for item in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    # Interference models and other pluggable objects: rely on their repr,
    # which each model defines to include its parameters.
    return {"__repr__": repr(value)}


def config_digest(config: SimulationConfig) -> str:
    """Hex SHA-256 digest of every result-affecting field of ``config``."""
    payload: dict[str, Any] = {"__version__": DIGEST_VERSION}
    for field in dataclasses.fields(config):
        if field.name in _EXCLUDED_FIELDS:
            continue
        payload[field.name] = _encode(getattr(config, field.name))
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

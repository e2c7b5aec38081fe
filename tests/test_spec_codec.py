"""Spool task specs carry their configuration as data.

A spec document holds its configuration as :func:`config_payload`, the
mapping its digest hashes, and :func:`config_from_payload` rebuilds it
through the config types' own constructors.  The codec must reproduce every
digest after a JSON round trip, and must refuse anything the six config
types do not describe.  Spec documents sit in a shared directory, so they
are an input surface: whatever a file holds, :meth:`TaskSpec.decode`
returns a spec whose config validates and whose seeds fit a store, or
raises :class:`SpoolError` — never another exception.
"""

from __future__ import annotations

import ast
import copy
import dataclasses
import json
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import repro
from repro.distributed.tasks import TaskSpec
from repro.errors import ConfigurationError, SpoolError
from repro.exec.digest import config_digest, config_from_payload, config_payload
from repro.iosched.registry import STRATEGIES
from repro.platform.failures import FailureModel
from repro.platform.interference import (
    CappedConcurrencyInterference,
    DegradingInterference,
    InterferenceModel,
    LinearInterference,
)
from repro.scenarios.presets import campaign_names, make_campaign, smoke_campaign
from repro.simulation.config import SimulationConfig

#: A smoke-campaign cell: every config type but the optional ones.
_BASE = smoke_campaign().scenarios()[0].config("least-waste")


def _variants(**overrides: object) -> list[SimulationConfig]:
    """One copy of the base cell per value of one field."""
    ((name, values),) = overrides.items()
    return [dataclasses.replace(_BASE, **{name: value}) for value in values]


_PINNED = {
    "presets": [
        scenario.config(strategy)
        for name in campaign_names()
        for scenario in make_campaign(name).scenarios()
        for strategy in scenario.strategies
    ],
    "legacy-strategies": _variants(strategy=STRATEGIES),
    "parameterized-strategy": _variants(strategy=["ordered[policy=fixed,period_s=1800]"]),
    "weibull": _variants(failure_model=[FailureModel(kind="weibull", shape=0.7)]),
    "interference": _variants(
        interference=[
            LinearInterference(),
            DegradingInterference(alpha=0.5),
            CappedConcurrencyInterference(max_streams=3),
        ]
    ),
}


def _through_json(config: SimulationConfig) -> SimulationConfig:
    return config_from_payload(json.loads(json.dumps(config_payload(config))))


@pytest.mark.parametrize("group", sorted(_PINNED))
def test_the_payload_codec_keeps_every_digest(group):
    assert _PINNED[group]
    for config in _PINNED[group]:
        decoded = _through_json(config)
        assert config_digest(decoded) == config_digest(config), config
        # The payload leaves the seed and trace switch out, nothing else.
        assert decoded == dataclasses.replace(config, seed=None, collect_trace=False)


class _Throttled(InterferenceModel):
    """Not a dataclass: the base class's repr prints ``_Throttled()``
    whatever its factor."""

    def __init__(self, factor: float) -> None:
        self.factor = factor

    def effective_bandwidth(self, nominal_bandwidth: float, num_streams: int) -> float:
        return nominal_bandwidth * self.factor if num_streams > 1 else nominal_bandwidth


@dataclasses.dataclass(frozen=True, repr=False)
class _DataclassThrottled(InterferenceModel):
    """The same model as a dataclass, with the same parameter-free repr."""

    factor: float

    def effective_bandwidth(self, nominal_bandwidth: float, num_streams: int) -> float:
        return nominal_bandwidth * self.factor if num_streams > 1 else nominal_bandwidth


def test_a_value_that_is_not_a_dataclass_is_refused_not_keyed_by_its_repr():
    """Keyed by their repr, the two factors shared one digest, so a store
    served one's waste ratio for the other."""
    assert repr(_Throttled(0.1)) == repr(_Throttled(5.0))
    for factor in (0.1, 5.0):
        config = dataclasses.replace(_BASE, interference=_Throttled(factor))
        with pytest.raises(ConfigurationError, match="cannot digest a _Throttled"):
            config_digest(config)


def test_a_dataclass_value_gets_one_digest_per_parameter_value():
    slow, fast = (
        dataclasses.replace(_BASE, interference=_DataclassThrottled(factor))
        for factor in (0.1, 5.0)
    )
    assert repr(slow.interference) == repr(fast.interference)
    assert config_digest(slow) != config_digest(fast)


def _mutated_payload(mutate) -> dict:
    payload = config_payload(_BASE)
    mutate(payload)
    return payload


@pytest.mark.parametrize(
    ("mutate", "match"),
    [
        (lambda p: p["platform"].update(__type__="Popen"), "unknown config object type 'Popen'"),
        (lambda p: p["classes"][0].pop("__type__"), "unknown config object type None"),
        (lambda p: p.update(interference={"alpha": 0.5}), "unknown config object type None"),
        (lambda p: p["platform"].update(extra=1), "unexpected keyword argument 'extra'"),
        (lambda p: p.update(bogus=1), "unexpected keyword argument 'bogus'"),
        (lambda p: p.update(horizon_s=float("nan")), "non-finite"),
        (lambda p: p["platform"].update(num_nodes="64"), "invalid PlatformSpec"),
        (lambda p: p.pop("platform"), "invalid SimulationConfig"),
    ],
)
def test_config_from_payload_refuses_what_no_config_type_describes(mutate, match):
    with pytest.raises(ConfigurationError, match=match):
        config_from_payload(_mutated_payload(mutate))


@pytest.mark.parametrize("payload", [None, [], "least-waste", 3])
def test_config_from_payload_refuses_a_non_object(payload):
    with pytest.raises(ConfigurationError, match="is an object"):
        config_from_payload(payload)


def test_no_module_imports_pickle():
    """Spool specs are data: no module of the package can unpickle."""
    offenders = []
    for path in sorted(Path(repro.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(module.split(".")[0] == "pickle" for module in modules):
                offenders.append(f"{path}:{node.lineno}")
    assert offenders == []


# ------------------------------------------------ decode never escapes
_SPEC = TaskSpec(
    config=_BASE, digest=config_digest(_BASE), strategy=_BASE.strategy, seeds=(1, 2)
)
_DOCUMENT = json.loads(_SPEC.encode())
_PLATFORM = _DOCUMENT["config"]["platform"]


def _text(*, drop: str = "", **changes: object) -> str:
    """The valid document without one top-level key, with others replaced."""
    document = {key: value for key, value in _DOCUMENT.items() if key != drop}
    return json.dumps({**document, **changes})


def _config_text(**changes: object) -> str:
    """The valid document with some config fields replaced."""
    return _text(config={**_DOCUMENT["config"], **changes})


def _paths(value, prefix=()):
    """Every key or index path into a JSON document, the root included."""
    yield prefix
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _paths(item, (*prefix, key))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from _paths(item, (*prefix, index))


def _at(document, path):
    for step in path:
        document = document[step]
    return document


_JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**70), max_value=2**70)
    | st.floats()
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)
_BAD_SEED = st.booleans() | st.floats() | st.integers(max_value=-1) | st.integers(min_value=2**63)
_MUTATIONS = (
    "drop", "rename", "retype", "non-finite", "type-tag", "extra", "seeds", "truncate", "nest",
)


@st.composite
def mutated_documents(draw) -> str:
    """A valid format-2 document, mutated one way."""
    document = copy.deepcopy(_DOCUMENT)
    paths = [path for path in _paths(document) if path]
    kind = draw(st.sampled_from(_MUTATIONS))
    if kind == "truncate":
        text = json.dumps(document)
        return text[: draw(st.integers(min_value=0, max_value=len(text) - 1))]
    if kind == "nest":
        depth = draw(st.integers(min_value=1, max_value=50_000))
        return _config_text(platform=[]).replace("[]", "[" * depth + "]" * depth, 1)
    if kind == "seeds":
        document["seeds"] = draw(st.lists(_BAD_SEED, min_size=1, max_size=3))
    elif kind in ("type-tag", "extra"):
        tagged = [
            value
            for path in _paths(document)
            if isinstance(value := _at(document, path), dict) and "__type__" in value
        ]
        target = draw(st.sampled_from(tagged))
        if kind == "type-tag":
            target["__type__"] = draw(st.text(max_size=12))
        else:
            target[draw(st.text(min_size=1, max_size=8))] = draw(_JSON)
    elif kind == "rename":
        path = draw(st.sampled_from([p for p in paths if isinstance(_at(document, p[:-1]), dict)]))
        parent = _at(document, path[:-1])
        parent[draw(st.text(max_size=8))] = parent.pop(path[-1])
    else:  # drop, retype or make non-finite one key or list item
        path = draw(st.sampled_from(paths))
        parent, key = _at(document, path[:-1]), path[-1]
        if kind == "drop":
            del parent[key]
        elif kind == "retype":
            parent[key] = draw(_JSON)
        else:
            parent[key] = draw(st.sampled_from([float("nan"), float("inf"), float("-inf")]))
    return json.dumps(document)


def test_the_valid_document_decodes_to_its_spec():
    decoded = TaskSpec.decode(_SPEC.encode())
    assert decoded == dataclasses.replace(_SPEC, config=_BASE.with_seed(None))
    assert config_digest(decoded.config) == _SPEC.digest


@settings(max_examples=300, deadline=None)
@given(text=mutated_documents())
@example(text=_text(drop="config"))  # a dropped or renamed key
@example(text=_text(drop="seeds", sEEds=[1, 2]))
@example(text=_text(seeds="1,2"))  # wrong JSON types
@example(text=_text(config=[]))
@example(text=_config_text(horizon_s="long"))
@example(text=_config_text(horizon_s=float("nan")))  # NaN and infinities
@example(text=_config_text(headroom=float("inf")))
@example(text=_config_text(platform={**_PLATFORM, "node_mtbf_s": float("-inf")}))
@example(text=_config_text(platform={**_PLATFORM, "__type__": "Popen"}))  # foreign objects
@example(text=_config_text(platform={**_PLATFORM, "extra": 1}))
@example(text=_config_text(bogus=1))
@example(text=_text(seeds=[True]))  # bool, float, negative and huge seeds
@example(text=_text(seeds=[2.7]))
@example(text=_text(seeds=[-1]))
@example(text=_text(seeds=[2**63]))
@example(text=_text(seeds=[10**30]))
@example(text=_SPEC.encode()[:-7])  # truncated text
@example(text="[" * 100_000 + "]" * 100_000)  # deep nesting, in the JSON and in the config
@example(text=_config_text(platform=[]).replace("[]", "[" * 5_000 + "]" * 5_000, 1))
def test_decode_returns_a_valid_spec_or_raises_spool_error(text):
    try:
        spec = TaskSpec.decode(text)
    except SpoolError:
        return
    assert isinstance(spec.config, SimulationConfig)
    spec.config.workload_spec()
    config_digest(spec.config)  # the worker's first step
    assert all(type(seed) is int and 0 <= seed < 2**63 for seed in spec.seeds)

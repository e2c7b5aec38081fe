"""Hostile campaign bodies: ``Campaign.from_mapping`` and service TOML uploads.

Coverage properties rather than regression pins.  A mapping built from the
campaign schema's keys (plus stray ones) and filled with hostile values —
NaN, infinities, 1e-300, 1e300, huge integers, booleans, strings, TOML
dates, nested arrays and tables — either raises
:class:`~repro.errors.ConfigurationError` or expands into scenarios whose
every configuration builds.  TOML text mixing campaign tokens with
arbitrary text, submitted as a service job, does the same.
"""

from __future__ import annotations

import datetime
import math
from dataclasses import fields

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.scenarios.campaign import Campaign
from repro.scenarios.spec import PLATFORM_OVERRIDES, Scenario
from repro.service.jobs import campaign_from_request

_SCALARS = st.one_of(
    st.sampled_from(
        [math.nan, math.inf, -math.inf, 1e-300, 1e300, -1e300, 0, -1, 0.5, 2,
         10**400, -(10**400), 2**63, True, False, "", "nan", "1e-300", "smoke",
         "least-waste", datetime.date(1979, 5, 27), datetime.time(7, 32)]
    ),
    st.integers(),
    st.floats(),
    st.text(max_size=6),
    st.datetimes(),
)
#: Scalars plus small nested arrays and tables of them.
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=4), inner, max_size=3)
    ),
    max_leaves=6,
)


def _or_hostile(valid, hostile=_VALUES):
    """``valid`` three times in four, so most bodies get past their first key."""
    return st.integers(0, 3).flatmap(lambda pick: valid if pick else hostile)


_OVERRIDE_KEYS = sorted({*PLATFORM_OVERRIDES, *(field.name for field in fields(Scenario))})
_KEYS = _or_hostile(st.sampled_from(_OVERRIDE_KEYS), st.text(max_size=6))
_OVERRIDES = _or_hostile(st.dictionaries(_KEYS, _VALUES, max_size=2))
_NAMES = _or_hostile(st.just("fuzz"))


_KEYED_AXIS = st.fixed_dictionaries(
    {"name": _NAMES, "key": _KEYS, "values": _or_hostile(st.lists(_VALUES, min_size=1, max_size=3))},
    optional={"labels": _or_hostile(st.lists(_VALUES, max_size=3))},
)
_POINT = _or_hostile(
    st.fixed_dictionaries(
        {"label": _or_hostile(st.text(min_size=1, max_size=4))}, optional={"overrides": _OVERRIDES}
    )
)
_POINTS_AXIS = st.fixed_dictionaries(
    {"name": _NAMES, "points": _or_hostile(st.lists(_POINT, min_size=1, max_size=3))}
)
_BODIES = st.builds(
    lambda body, stray: {**body, **stray},
    st.fixed_dictionaries(
        {"name": _NAMES, "base": _or_hostile(st.just("smoke"))},
        optional={
            "overrides": _OVERRIDES,
            "axes": _or_hostile(st.lists(st.one_of(_KEYED_AXIS, _POINTS_AXIS, _VALUES), max_size=2)),
        },
    ),
    _or_hostile(st.just({}), st.dictionaries(st.text(max_size=6), _VALUES, max_size=1)),
)

#: The schema's TOML tokens, hostile values included, to splice into text.
_TOML_TOKENS = st.sampled_from(
    ['name = "fuzz"\n', 'base = "smoke"\n', "[overrides]\n", "num_runs = 1\n",
     "horizon_days = 0.25\n", "node_mtbf_years = 1e-300\n", "bandwidth_gbs = nan\n",
     "num_nodes = inf\n", "num_runs = 99999999999999999999\n",
     'strategies = ["least-waste"]\n', "[[axes]]\n", 'name = "io"\n',
     'key = "bandwidth_gbs"\n', "values = [1.0, 4.0]\n", 'labels = ["a", "b"]\n',
     "[[axes.points]]\n", 'label = "short"\n', "[axes.points.overrides]\n",
     "base_seed = 1979-05-27T07:32:00Z\n", "horizon_days = true\n", "x = [[1], {a = 2}]\n",
     " = ", '"', "[", "]", "\n"]
)
_TOML_TEXTS = st.lists(st.one_of(_TOML_TOKENS, st.text(max_size=8)), max_size=14).map("".join)


def _build_every_config(campaign: Campaign) -> None:
    for scenario in campaign.scenarios():
        for strategy in scenario.strategies:
            scenario.config(strategy)


@settings(max_examples=300, deadline=None)
@given(body=_BODIES)
@example(
    body={"name": "p", "base": "smoke",
          "overrides": {"num_runs": 1, "strategies": ["least-waste"], "node_mtbf_years": 1e-300}}
)
@example(body={"name": "fuzz", "base": "smoke", "overrides": {"cooldown_days": 10**400}})
def test_a_campaign_mapping_builds_every_config_or_is_a_configuration_error(body):
    try:
        _build_every_config(Campaign.from_mapping(body))
    except ConfigurationError:
        pass


@settings(max_examples=300, deadline=None)
@given(text=_TOML_TEXTS)
def test_submitted_toml_is_a_campaign_or_a_configuration_error(text):
    try:
        campaign = campaign_from_request({"toml": text})
    except ConfigurationError:
        return
    try:
        _build_every_config(campaign)
    except ConfigurationError:
        pass

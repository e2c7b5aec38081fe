"""Named random streams (repro.sim.rng)."""

from __future__ import annotations

import numpy as np

from repro.sim.rng import RandomStreams


def test_same_name_returns_same_generator():
    streams = RandomStreams(seed=1)
    assert streams.get("failures") is streams.get("failures")


def test_streams_are_reproducible_across_instances():
    a = RandomStreams(seed=7).get("workload").random(8)
    b = RandomStreams(seed=7).get("workload").random(8)
    assert np.allclose(a, b)


def test_streams_independent_of_access_order():
    first = RandomStreams(seed=3)
    _ = first.get("other")
    a = first.get("workload").random(4)

    second = RandomStreams(seed=3)
    b = second.get("workload").random(4)
    assert np.allclose(a, b)


def test_different_names_produce_different_sequences():
    streams = RandomStreams(seed=5)
    a = streams.get("alpha").random(16)
    b = streams.get("beta").random(16)
    assert not np.allclose(a, b)


def test_different_seeds_produce_different_sequences():
    a = RandomStreams(seed=1).get("x").random(16)
    b = RandomStreams(seed=2).get("x").random(16)
    assert not np.allclose(a, b)

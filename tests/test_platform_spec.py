"""Platform specification (repro.platform.spec)."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.platform.spec import MAX_NUM_NODES, PlatformSpec
from repro.units import GB, HOUR, YEAR


def make_spec(**overrides) -> PlatformSpec:
    parameters = dict(
        name="Box",
        num_nodes=100,
        cores_per_node=16,
        memory_per_node_bytes=32.0 * GB,
        io_bandwidth_bytes_per_s=10.0 * GB,
        node_mtbf_s=5.0 * YEAR,
    )
    parameters.update(overrides)
    return PlatformSpec(**parameters)


def test_derived_quantities():
    spec = make_spec()
    assert spec.total_memory_bytes == pytest.approx(3200.0 * GB)
    assert spec.system_mtbf_s == pytest.approx(5.0 * YEAR / 100)


def test_with_bandwidth_and_mtbf_return_modified_copies():
    spec = make_spec()
    faster = spec.with_bandwidth(40.0 * GB)
    assert faster.io_bandwidth_bytes_per_s == pytest.approx(40.0 * GB)
    assert spec.io_bandwidth_bytes_per_s == pytest.approx(10.0 * GB)

    fragile = spec.with_node_mtbf(1.0 * YEAR)
    assert fragile.node_mtbf_s == pytest.approx(1.0 * YEAR)
    assert fragile.name == spec.name

    bigger = spec.with_num_nodes(500)
    assert bigger.num_nodes == 500


@pytest.mark.parametrize(
    "overrides",
    [
        {"num_nodes": 0},
        {"cores_per_node": 0},
        {"memory_per_node_bytes": 0.0},
        {"io_bandwidth_bytes_per_s": 0.0},
        {"node_mtbf_s": 0.0},
    ],
)
def test_invalid_parameters_rejected(overrides):
    with pytest.raises(ConfigurationError):
        make_spec(**overrides)


def test_node_count_is_bounded():
    assert make_spec(num_nodes=MAX_NUM_NODES).num_nodes == 1_000_000
    with pytest.raises(ConfigurationError, match="num_nodes must be at most 1000000, got 1000001"):
        make_spec(num_nodes=MAX_NUM_NODES + 1)


@pytest.mark.parametrize(
    "name", ["memory_per_node_bytes", "io_bandwidth_bytes_per_s", "node_mtbf_s"]
)
@pytest.mark.parametrize(
    "value", [float("nan"), float("inf"), float("-inf"), pytest.param(10**400, id="huge-int")]
)
def test_non_finite_parameters_rejected(name, value):
    with pytest.raises(ConfigurationError, match=name):
        make_spec(**{name: value})


def test_describe_mentions_key_figures():
    text = make_spec().describe()
    assert "Box" in text
    assert "100" in text
    assert "GB/s" in text


def test_cielo_system_mtbf_about_two_hours():
    from repro.workloads.cielo import CIELO

    assert 1.5 * HOUR < CIELO.system_mtbf_s < 2.5 * HOUR

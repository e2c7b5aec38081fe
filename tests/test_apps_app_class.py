"""Application classes (repro.apps.app_class)."""

from __future__ import annotations

import pytest

from repro.apps.app_class import ApplicationClass
from repro.errors import ConfigurationError
from repro.units import GB, HOUR


def test_basic_construction_and_derived_quantities(tiny_platform):
    app = ApplicationClass(
        name="demo",
        nodes=4,
        work_s=2 * HOUR,
        input_bytes=1 * GB,
        output_bytes=2 * GB,
        checkpoint_bytes=4 * GB,
        workload_share=0.5,
    )
    assert app.checkpoint_time(1 * GB) == pytest.approx(4.0)
    assert app.recovery_time(1 * GB) == pytest.approx(4.0)
    assert "demo" in app.describe()


@pytest.mark.parametrize(
    "overrides",
    [
        {"nodes": 0},
        {"work_s": 0.0},
        {"input_bytes": -1.0},
        {"checkpoint_bytes": 0.0},
        {"workload_share": 1.5},
    ],
)
def test_validation(overrides):
    parameters = dict(
        name="bad",
        nodes=2,
        work_s=HOUR,
        input_bytes=GB,
        output_bytes=GB,
        checkpoint_bytes=GB,
        workload_share=0.5,
    )
    parameters.update(overrides)
    with pytest.raises(ConfigurationError):
        ApplicationClass(**parameters)


def test_checkpoint_time_requires_positive_bandwidth(tiny_classes):
    with pytest.raises(ConfigurationError):
        tiny_classes[0].checkpoint_time(0.0)


def test_from_memory_fractions_converts_cores_and_percentages(tiny_platform):
    app = ApplicationClass.from_memory_fractions(
        "conv",
        platform=tiny_platform,
        cores=10,  # 10 cores on 4-core nodes -> 3 nodes
        work_s=HOUR,
        input_fraction=0.10,
        output_fraction=1.0,
        checkpoint_fraction=0.5,
        workload_share=0.25,
    )
    assert app.nodes == 3
    footprint = 3 * tiny_platform.memory_per_node_bytes
    assert app.input_bytes == pytest.approx(0.10 * footprint)
    assert app.output_bytes == pytest.approx(footprint)
    assert app.checkpoint_bytes == pytest.approx(0.5 * footprint)


def test_from_memory_fractions_rejects_oversized_class(tiny_platform):
    with pytest.raises(ConfigurationError):
        ApplicationClass.from_memory_fractions(
            "huge",
            platform=tiny_platform,
            cores=tiny_platform.num_nodes * tiny_platform.cores_per_node * 2,
            work_s=HOUR,
            input_fraction=0.1,
            output_fraction=0.1,
            checkpoint_fraction=0.1,
        )
    with pytest.raises(ConfigurationError):
        ApplicationClass.from_memory_fractions(
            "zero",
            platform=tiny_platform,
            cores=0,
            work_s=HOUR,
            input_fraction=0.1,
            output_fraction=0.1,
            checkpoint_fraction=0.1,
        )


def test_scaled_to_preserves_machine_fraction_and_scales_volumes(tiny_platform):
    app = ApplicationClass(
        name="scaled",
        nodes=4,
        work_s=HOUR,
        input_bytes=1 * GB,
        output_bytes=1 * GB,
        checkpoint_bytes=8 * GB,
        workload_share=0.5,
    )
    bigger = tiny_platform.with_num_nodes(64)  # 4x the nodes, same memory per node
    scaled = app.scaled_to(bigger, tiny_platform)
    assert scaled.nodes == 16
    assert scaled.checkpoint_bytes == pytest.approx(4 * 8 * GB)
    assert scaled.work_s == app.work_s
    assert scaled.workload_share == app.workload_share

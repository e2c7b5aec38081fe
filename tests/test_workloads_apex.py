"""APEX workload definitions (repro.workloads.apex) and platforms."""

from __future__ import annotations

import pytest

from repro.units import GB, HOUR, TB, YEAR
from repro.workloads.apex import APEX_CLASSES, APEX_TABLE, apex_workload
from repro.workloads.cielo import CIELO, cielo_platform
from repro.workloads.prospective import PROSPECTIVE, prospective_platform, prospective_workload


def test_table_matches_paper_values():
    table = {spec.name: spec for spec in APEX_TABLE}
    assert APEX_CLASSES == ("EAP", "LAP", "Silverton", "VPIC")
    assert table["EAP"].workload_percent == 66.0
    assert table["EAP"].work_time_hours == 262.4
    assert table["EAP"].cores == 16384
    assert table["LAP"].output_percent_of_memory == 220.0
    assert table["Silverton"].checkpoint_percent_of_memory == 350.0
    assert table["Silverton"].input_percent_of_memory == 70.0
    assert table["VPIC"].cores == 30000
    assert sum(s.workload_percent for s in APEX_TABLE) == pytest.approx(100.0)


def test_apex_workload_on_cielo_has_expected_geometry():
    classes = {app.name: app for app in apex_workload(CIELO)}
    # 16384 cores on 16-core nodes -> 1024 nodes; checkpoint = 160% of 32 GB/node.
    eap = classes["EAP"]
    assert eap.nodes == 1024
    assert eap.checkpoint_bytes == pytest.approx(1.6 * 1024 * 32 * GB)
    assert eap.work_s == pytest.approx(262.4 * HOUR)
    assert eap.workload_share == pytest.approx(0.66)
    # VPIC: 30000 cores -> ceil(30000/16) = 1875 nodes.
    assert classes["VPIC"].nodes == 1875
    # Silverton has the largest checkpoint (350% of a 2048-node footprint).
    assert classes["Silverton"].checkpoint_bytes > eap.checkpoint_bytes


def test_apex_workload_routine_io_fraction():
    classes = apex_workload(CIELO, routine_io_fraction=0.1)
    for app in classes:
        assert app.routine_io_bytes == pytest.approx(0.1 * app.nodes * CIELO.memory_per_node_bytes)


def test_cielo_platform_parameters():
    assert CIELO.num_nodes == 8944
    assert CIELO.num_nodes * CIELO.cores_per_node == 143_104
    assert CIELO.total_memory_bytes == pytest.approx(286.0 * TB, rel=0.01)
    assert CIELO.io_bandwidth_bytes_per_s == pytest.approx(160.0 * GB)
    custom = cielo_platform(bandwidth_gbs=40.0, node_mtbf_years=10.0)
    assert custom.io_bandwidth_bytes_per_s == pytest.approx(40.0 * GB)
    assert custom.node_mtbf_s == pytest.approx(10.0 * YEAR)
    assert custom.num_nodes == CIELO.num_nodes


def test_prospective_platform_parameters():
    assert PROSPECTIVE.num_nodes == 50_000
    assert PROSPECTIVE.total_memory_bytes == pytest.approx(7e15)
    custom = prospective_platform(bandwidth_tbs=5.0, node_mtbf_years=20.0)
    assert custom.io_bandwidth_bytes_per_s == pytest.approx(5.0 * TB)
    assert custom.node_mtbf_s == pytest.approx(20.0 * YEAR)


def test_prospective_workload_scales_volumes_with_memory():
    cielo_classes = {app.name: app for app in apex_workload(CIELO)}
    future_classes = {app.name: app for app in prospective_workload(PROSPECTIVE)}
    memory_ratio = PROSPECTIVE.total_memory_bytes / CIELO.total_memory_bytes
    for name in APEX_CLASSES:
        before = cielo_classes[name]
        after = future_classes[name]
        # Node share of the machine is preserved (within rounding).
        assert after.nodes / PROSPECTIVE.num_nodes == pytest.approx(
            before.nodes / CIELO.num_nodes, rel=0.05
        )
        # Checkpoint volume grows roughly with the machine memory.
        assert after.checkpoint_bytes / before.checkpoint_bytes == pytest.approx(
            memory_ratio, rel=0.1
        )
        # Work time and share are unchanged.
        assert after.work_s == before.work_s
        assert after.workload_share == before.workload_share

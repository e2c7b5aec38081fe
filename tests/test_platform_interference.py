"""Interference models (repro.platform.interference) and their effect on the PFS."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.platform.interference import (
    CappedConcurrencyInterference,
    DegradingInterference,
    LinearInterference,
)
from repro.platform.io_subsystem import IOSubsystem
from repro.sim.engine import SimulationEngine


def test_linear_model_conserves_throughput():
    model = LinearInterference()
    for streams in (0, 1, 2, 10, 100):
        assert model.effective_bandwidth(100.0, streams) == 100.0
    assert model.name == "linear"


def test_degrading_model_reduces_throughput_with_concurrency():
    model = DegradingInterference(alpha=0.5)
    assert model.effective_bandwidth(100.0, 1) == 100.0
    assert model.effective_bandwidth(100.0, 2) == pytest.approx(100.0 / 1.5)
    assert model.effective_bandwidth(100.0, 3) == pytest.approx(100.0 / 2.0)
    # alpha = 0 degenerates to the linear model.
    assert DegradingInterference(alpha=0.0).effective_bandwidth(100.0, 7) == 100.0
    with pytest.raises(ConfigurationError):
        DegradingInterference(alpha=-0.1)
    with pytest.raises(ConfigurationError):  # too large for a float
        DegradingInterference(alpha=10**400)


def test_capped_model_only_degrades_beyond_the_cap():
    model = CappedConcurrencyInterference(max_streams=2)
    assert model.effective_bandwidth(100.0, 1) == 100.0
    assert model.effective_bandwidth(100.0, 2) == 100.0
    assert model.effective_bandwidth(100.0, 4) == pytest.approx(50.0)
    with pytest.raises(ConfigurationError):
        CappedConcurrencyInterference(max_streams=0)


def test_io_subsystem_defaults_to_linear_model():
    """Without a model, concurrent transfers conserve the aggregate
    throughput: four 500 B streams over 100 B/s all end at 20 s."""
    engine = SimulationEngine()
    io = IOSubsystem(engine, bandwidth_bytes_per_s=100.0)
    finished = []
    for _ in range(4):
        io.start(500.0, weight=1.0, on_complete=lambda t: finished.append(engine.now))
    engine.run()
    assert finished == [pytest.approx(20.0)] * 4


def test_degrading_model_slows_overlapping_transfers():
    """Two overlapping transfers under a degrading model take longer than
    under the linear model, while a single transfer is unaffected."""

    def run(model, n_transfers):
        engine = SimulationEngine()
        io = IOSubsystem(engine, bandwidth_bytes_per_s=100.0, interference=model)
        finished = []
        for _ in range(n_transfers):
            io.start(500.0, weight=1.0, on_complete=lambda t: finished.append(engine.now))
        engine.run()
        return max(finished)

    linear = LinearInterference()
    harsh = DegradingInterference(alpha=1.0)
    assert run(linear, 1) == pytest.approx(run(harsh, 1))
    assert run(harsh, 2) > run(linear, 2)
    # With alpha=1 and two streams, aggregate throughput is halved: the two
    # 500 B transfers take 20 s instead of 10 s.
    assert run(harsh, 2) == pytest.approx(20.0)
    assert run(linear, 2) == pytest.approx(10.0)


def test_degrading_model_increases_oblivious_waste(tiny_config):
    """End-to-end: an adversarial model can only make Oblivious worse."""
    from repro.simulation.simulator import Simulation

    base = Simulation(tiny_config("oblivious-fixed", seed=11)).run()
    harsh = Simulation(
        tiny_config("oblivious-fixed", seed=11, interference=DegradingInterference(alpha=1.0))
    ).run()
    assert harsh.waste_ratio >= base.waste_ratio - 1e-9

"""Discrete-event simulation substrate.

A small, general-purpose discrete-event engine built from scratch:

* :mod:`repro.sim.events` — event handles and the time-ordered event queue.
* :mod:`repro.sim.engine` — the :class:`~repro.sim.engine.SimulationEngine`
  driving the event loop.
* :mod:`repro.sim.rng` — named, reproducible random streams.

The engine knows nothing about HPC platforms; the platform, application and
scheduler models of the other subpackages are built on top of it.
"""

from repro.sim.engine import SimulationEngine
from repro.sim.events import Event, EventQueue
from repro.sim.rng import RandomStreams

__all__ = [
    "SimulationEngine",
    "Event",
    "EventQueue",
    "RandomStreams",
]

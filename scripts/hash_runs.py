#!/usr/bin/env python3
"""Hash every simulated output of a fixed set of runs, to compare two trees.

A *cell* is one of the paper's seven strategies on one scenario of the
``smoke``, ``cielo-reference`` and ``prospective-bandwidth`` presets (at
their default sizes), at one of the scenario's first two derived seeds,
under the linear or ``DegradingInterference(alpha=1)`` file-system model.
Each cell runs untraced and traced; the script exits 1 if the two
``repr(SimulationResult)`` differ.  Otherwise it writes ``OUT.json``: one
sha256 per cell over that repr, every trace event's ``(time, job name,
kind, detail)``, ``achieved_checkpoint_intervals()``, ``io_wait_by_job()``,
the drill-down ``to_payload()`` JSON and the config digest.

A change is bit-exact when this script writes byte-identical files for the
parent commit and for the change, each tree in a fresh process (job ids,
and so job names, come from a process-wide counter)::

    mkdir parent && git archive HEAD | tar -x -C parent
    PYTHONPATH=parent/src python scripts/hash_runs.py parent.json
    PYTHONPATH=src python scripts/hash_runs.py change.json
    cmp parent.json change.json

The script uses only names that have existed since long before it, so the
same file hashes an older tree.  ``--presets smoke`` runs the smallest
preset alone (about a second).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import replace

from repro.exec.digest import config_digest
from repro.iosched.registry import STRATEGIES
from repro.platform.interference import DegradingInterference
from repro.scenarios.presets import make_campaign
from repro.simulation.simulator import Simulation
from repro.stats.montecarlo import derive_seeds
from repro.trace.decompose import WasteDecomposition

PRESETS = ("smoke", "cielo-reference", "prospective-bandwidth")
SEEDS_PER_SCENARIO = 2
INTERFERENCE = {"linear": None, "degrading": DegradingInterference(alpha=1.0)}


def cells(presets):
    """``(key, config)`` of every cell of ``presets``, in a fixed order."""
    for preset in presets:
        for scenario in make_campaign(preset, strategies=STRATEGIES).scenarios():
            seeds = derive_seeds(scenario.base_seed, SEEDS_PER_SCENARIO)
            for strategy in scenario.strategies:
                for name, model in INTERFERENCE.items():
                    config = replace(scenario.config(strategy), interference=model)
                    for seed in seeds:
                        key = f"{preset}/{scenario.name}/{strategy}/{name}/{seed}"
                        yield key, config.with_seed(seed)


def cell_hash(config):
    """sha256 over the cell's outputs, or ``None`` when tracing changed its result."""
    untraced = repr(Simulation(config).run())
    sim = Simulation(replace(config, collect_trace=True))
    result = sim.run()
    if repr(result) != untraced:
        return None
    digest = config_digest(config)
    payload = WasteDecomposition.from_simulation(sim, result, digest=digest).to_payload()
    parts = [untraced]
    parts.extend(
        repr((event.time, event.job_name, event.kind.value, event.detail))
        for event in sim.trace.events
    )
    parts.append(repr(sim.trace.achieved_checkpoint_intervals()))
    parts.append(repr(sim.trace.io_wait_by_job()))
    parts.append(json.dumps(payload, sort_keys=True))
    parts.append(digest)
    return hashlib.sha256("\n".join(parts).encode("utf-8")).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", help="JSON file to write the per-cell hashes to")
    parser.add_argument(
        "--presets", nargs="+", choices=PRESETS, default=list(PRESETS),
        help="presets to run (default: all three)",
    )
    args = parser.parse_args(argv)
    hashes = {}
    for key, config in cells(args.presets):
        digest = cell_hash(config)
        if digest is None:
            print(f"{key}: the traced run's result differs from the untraced run's",
                  file=sys.stderr)
            return 1
        hashes[key] = digest
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(hashes, handle, indent=1)
        handle.write("\n")
    print(f"wrote {len(hashes)} cell hashes to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

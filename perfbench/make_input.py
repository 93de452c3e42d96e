"""
Set-up of one workload: simulate its stream and write the events CSV.

``run.py`` starts this script in a fresh interpreter for each timed
set-up, so the set-up time includes importing the program:

    python3 perfbench/make_input.py WORKLOAD SEED EVENTS_CSV
"""

from __future__ import annotations

import sys

from workloads import WORKLOADS, sim


def make_input(workload, seed, path):
    """Write the workload's events for ``seed`` to ``path``."""
    events, _ = sim.simulate(workload.sim_config(seed))
    sim.write_events(events, path)


if __name__ == "__main__":
    name, seed, path = sys.argv[1:]
    make_input(WORKLOADS[name], int(seed), path)

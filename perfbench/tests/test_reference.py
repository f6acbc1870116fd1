"""The columnar sim run equals the incremental one, step for step.

Small sizes of both sim workloads; later step rewrites are held to the
same trace: step, move and cycle counts and the final configuration.
"""

import pytest

from repro.graphs.topologies import grid, star
from repro.runtime.daemons import CentralDaemon, SynchronousDaemon
from workloads import build_simulation, next_wave

WAVES = 3


def drive(network, daemon_factory, seed, engine):
    simulator, monitor = build_simulation(network, daemon_factory(), seed, engine)
    for _ in range(WAVES):
        assert next_wave(simulator, monitor)
    return (
        simulator.steps,
        simulator.moves,
        len(monitor.completed_cycles),
        simulator.configuration,
    )


@pytest.mark.parametrize(
    "network,daemon_factory",
    [
        (star(256), SynchronousDaemon),
        (grid(8, 8), lambda: CentralDaemon(choice="random")),
    ],
    ids=["sync-star256", "central-grid8x8"],
)
@pytest.mark.parametrize("seed", [1, 2])
def test_columnar_matches_incremental(network, daemon_factory, seed):
    columnar = drive(network, daemon_factory, seed, "columnar")
    incremental = drive(network, daemon_factory, seed, "incremental")
    assert columnar[:3] == incremental[:3]
    assert columnar[2] == WAVES
    assert columnar[3] == incremental[3]

"""Snap-stabilizing PIF in arbitrary networks — full reproduction.

Reproduces Cournier, Datta, Petit, Villain, "Snap-Stabilizing PIF
Algorithm in Arbitrary Networks" (ICDCS 2002): the protocol itself, the
locally-shared-memory execution model it is written in, the baselines it
is contrasted with, the applications it motivates, and an experiment
harness regenerating every proved bound.

Most users need only the re-exports below::

    from repro import SnapPif, Simulator, PifCycleMonitor, line

    net = line(8)
    pif = SnapPif.for_network(net)
    monitor = PifCycleMonitor(pif, net)
    sim = Simulator(pif, net, monitors=[monitor])
    sim.run(until=lambda _c: monitor.completed_count >= 1)
    print(monitor.completed_cycles[0].rounds, "rounds for the first cycle")
"""

from repro.chaos import (
    FaultScenario,
    run_campaign,
    run_chaos,
    standard_scenarios,
)
from repro.core import (
    NO_ACK,
    CycleReport,
    PayloadPifState,
    PayloadSnapPif,
    Phase,
    PifConstants,
    PifCycleMonitor,
    PifState,
    SnapPif,
)
from repro.errors import (
    FairnessError,
    ProtocolError,
    ReproError,
    ScheduleError,
    SimulationLimitError,
    SpecificationViolation,
    TopologyError,
    VerificationError,
)
from repro.graphs import (
    GraphMetrics,
    balanced_tree,
    caterpillar,
    complete,
    compute_metrics,
    grid,
    hypercube,
    line,
    lollipop,
    petersen,
    random_connected,
    random_tree,
    ring,
    star,
    torus,
    wheel,
)
from repro.runtime import (
    AdversarialDaemon,
    CentralDaemon,
    ComposedProtocol,
    Configuration,
    Daemon,
    DistributedRandomDaemon,
    LayeredState,
    LocallyCentralDaemon,
    Network,
    Protocol,
    ReplayDaemon,
    RoundRobinDaemon,
    RunResult,
    Simulator,
    SynchronousDaemon,
    WeaklyFairDaemon,
)

__version__ = "1.0.0"

__all__ = [
    "AdversarialDaemon",
    "CentralDaemon",
    "ComposedProtocol",
    "Configuration",
    "CycleReport",
    "Daemon",
    "DistributedRandomDaemon",
    "FairnessError",
    "FaultScenario",
    "GraphMetrics",
    "LocallyCentralDaemon",
    "NO_ACK",
    "Network",
    "PayloadPifState",
    "PayloadSnapPif",
    "Phase",
    "PifConstants",
    "PifCycleMonitor",
    "PifState",
    "Protocol",
    "ProtocolError",
    "LayeredState",
    "ReplayDaemon",
    "ReproError",
    "RoundRobinDaemon",
    "RunResult",
    "ScheduleError",
    "SimulationLimitError",
    "Simulator",
    "SnapPif",
    "SpecificationViolation",
    "SynchronousDaemon",
    "TopologyError",
    "VerificationError",
    "WeaklyFairDaemon",
    "balanced_tree",
    "caterpillar",
    "complete",
    "compute_metrics",
    "grid",
    "hypercube",
    "line",
    "lollipop",
    "petersen",
    "random_connected",
    "random_tree",
    "ring",
    "run_campaign",
    "run_chaos",
    "standard_scenarios",
    "star",
    "torus",
    "wheel",
]

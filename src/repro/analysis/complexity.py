"""Multi-seed cost statistics for PIF cycles.

E1/E8 report single representative cycles; this module aggregates cycle
cost over many seeds and daemons into summary statistics (min / mean /
max rounds and moves), the form in which empirical complexity results
are usually quoted.  Used by the scalability analyses and available to
library users benchmarking their own topologies.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.analysis import bounds
from repro.core.monitor import PifCycleMonitor
from repro.core.pif import SnapPif
from repro.errors import SimulationLimitError
from repro.runtime.daemons import Daemon
from repro.runtime.network import Network
from repro.runtime.simulator import Simulator

__all__ = ["CycleStats", "collect_cycle_stats"]


@dataclass(frozen=True, slots=True)
class CycleStats:
    """Aggregated cost of PIF cycles over several runs."""

    topology: str
    daemon: str
    samples: int
    rounds_min: int
    rounds_mean: float
    rounds_max: int
    moves_min: int
    moves_mean: float
    moves_max: int
    height_max: int
    #: Theorem 4 bound at the worst observed height.
    bound_at_max_height: int

    @property
    def within_bound(self) -> bool:
        return self.rounds_max <= self.bound_at_max_height

    def row(self) -> dict[str, object]:
        """Render as a reporting-table row."""
        return {
            "topology": self.topology,
            "daemon": self.daemon,
            "samples": self.samples,
            "rounds min/mean/max": (
                f"{self.rounds_min}/{self.rounds_mean:.1f}/{self.rounds_max}"
            ),
            "moves min/mean/max": (
                f"{self.moves_min}/{self.moves_mean:.1f}/{self.moves_max}"
            ),
            "h max": self.height_max,
            "bound 5h+5": self.bound_at_max_height,
            "within": "yes" if self.within_bound else "NO",
        }


def collect_cycle_stats(
    network: Network,
    *,
    root: int = 0,
    daemon_factory: Callable[[], Daemon | None] | None = None,
    seeds: Sequence[int] = tuple(range(10)),
    max_steps: int = 500_000,
) -> CycleStats:
    """Measure one cycle per seed and aggregate.

    ``daemon_factory`` builds a fresh daemon per run (``None`` =
    synchronous); statistics are over the per-seed first cycles.
    """
    protocol = SnapPif.for_network(network, root)
    all_rounds: list[int] = []
    all_moves: list[int] = []
    heights: list[int] = []
    daemon_name = "synchronous"

    for seed in seeds:
        daemon = daemon_factory() if daemon_factory is not None else None
        monitor = PifCycleMonitor(protocol, network)
        sim = Simulator(
            protocol, network, daemon, seed=seed, monitors=[monitor]
        )
        daemon_name = sim.daemon.name
        sim.run(
            until=lambda _c: monitor.completed_count >= 1,
            max_steps=max_steps,
        )
        if not monitor.completed_cycles:
            raise SimulationLimitError(
                f"no cycle completed on {network.name} (seed {seed})"
            )
        cycle = monitor.completed_cycles[0]
        all_rounds.append(cycle.rounds)
        all_moves.append(cycle.moves)
        heights.append(cycle.height)

    height_max = max(heights)
    return CycleStats(
        topology=network.name,
        daemon=daemon_name,
        samples=len(all_rounds),
        rounds_min=min(all_rounds),
        rounds_mean=statistics.fmean(all_rounds),
        rounds_max=max(all_rounds),
        moves_min=min(all_moves),
        moves_mean=statistics.fmean(all_moves),
        moves_max=max(all_moves),
        height_max=height_max,
        bound_at_max_height=bounds.cycle_bound(height_max),
    )

"""Mid-run transient faults.

Stabilization is usually *exercised* from a corrupted initial
configuration, but the fault model it formalizes is a fault striking at
an arbitrary moment of a running system.  This module hits a live
simulation with such faults and measures what the theory promises:

* the system re-converges within the same bounds (the post-fault
  configuration is just another "initial" configuration), and
* every wave the root initiates after (or during!) the fault still
  satisfies the PIF specification — snap-stabilization has no
  post-fault blackout window at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random

from repro.analysis.faults import FaultInjector
from repro.core.monitor import PifCycleMonitor
from repro.core.pif import SnapPif
from repro.errors import ReproError
from repro.runtime.daemons import Daemon
from repro.runtime.network import Network
from repro.runtime.simulator import Simulator

__all__ = ["MidRunFaultReport", "run_with_midrun_faults"]


@dataclass(frozen=True, slots=True)
class MidRunFaultReport:
    """Outcome of a run with transient faults injected mid-execution."""

    faults_injected: int
    cycles_completed: int
    cycles_ok: int
    total_steps: int
    total_rounds: int

    @property
    def all_ok(self) -> bool:
        return self.cycles_completed == self.cycles_ok


def run_with_midrun_faults(
    network: Network,
    *,
    root: int = 0,
    faults: int = 3,
    cycles_between_faults: int = 1,
    fault_mode: str = "corrupt_some",
    daemon: Daemon | None = None,
    seed: int = 0,
    max_steps: int = 2_000_000,
) -> MidRunFaultReport:
    """Run the snap PIF, repeatedly corrupting it mid-run.

    The schedule: let ``cycles_between_faults`` waves complete, inject a
    fault (replace the configuration from the given fault model — while
    a wave may well be in flight), repeat ``faults`` times, then let one
    final batch of waves complete.  Every *completed* cycle's PIF1/PIF2
    verdict is tallied.

    Note: a wave interrupted by a fault is not an initiated wave of the
    post-fault configuration, so the monitor is restarted by the
    injection (its specification quantifies over post-fault initiations
    — exactly Definition 1 applied to the new "initial" configuration).
    """
    protocol = SnapPif.for_network(network, root)
    injector = FaultInjector(protocol, network, protocol.constants)
    monitor = PifCycleMonitor(protocol, network)
    sim = Simulator(
        protocol, network, daemon, seed=seed, monitors=[monitor]
    )
    rng = Random(seed)

    completed = 0
    ok = 0

    def drain(target_cycles: int) -> None:
        nonlocal completed, ok
        done = 0
        while done < target_cycles:
            result = sim.run(
                until=lambda _c: monitor.completed_count > done,
                max_steps=max_steps,
            )
            if not result.satisfied:
                raise ReproError(
                    f"wave did not complete within {result.steps} steps"
                )
            done = monitor.completed_count
        completed += done
        ok += sum(1 for c in monitor.completed_cycles if c.ok)

    for _ in range(faults):
        drain(cycles_between_faults)
        sim.reset_configuration(
            injector.generate(fault_mode, rng.randrange(1 << 30))
        )
    drain(cycles_between_faults)

    return MidRunFaultReport(
        faults_injected=faults,
        cycles_completed=completed,
        cycles_ok=ok,
        total_steps=sim.steps,
        total_rounds=sim.rounds,
    )

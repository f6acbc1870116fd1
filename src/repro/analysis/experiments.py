"""Measurement harness: the runs behind every experiment in EXPERIMENTS.md.

Each ``measure_*`` function performs one experimental unit — a PIF cycle
measurement, a stabilization run from an adversarial configuration, a
Theorem 2 phase-convergence run — and returns a small result dataclass
carrying both the measurement and the corresponding paper bound, so that
benchmarks and tests can assert ``measured ≤ bound`` and the reporting
layer can print paper-vs-measured tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from random import Random
from typing import Callable

from repro.analysis import bounds
from repro.analysis.faults import FaultInjector
from repro.analysis.invariants import audit_normality
from repro.core import definitions as defs
from repro.core.monitor import PifCycleMonitor
from repro.core.pif import SnapPif
from repro.core.state import Phase, PifConstants, PifState
from repro.errors import SimulationLimitError
from repro.runtime.daemons import Daemon
from repro.runtime.network import Network
from repro.runtime.protocol import Context
from repro.runtime.simulator import Simulator
from repro.runtime.state import Configuration
from repro.core import predicates as pred

__all__ = [
    "CycleMeasurement",
    "measure_cycles",
    "StabilizationMeasurement",
    "measure_stabilization",
    "Theorem2Measurement",
    "measure_theorem2",
]


# ----------------------------------------------------------------------
# E1: PIF cycle cost (Theorem 4)
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class CycleMeasurement:
    """Rounds/heights of consecutive PIF cycles from the clean configuration."""

    topology: str
    n: int
    daemon: str
    cycle_rounds: tuple[int, ...]
    heights: tuple[int, ...]
    #: Theorem 4 bound computed from the *measured* height of each cycle.
    cycle_bounds: tuple[int, ...]
    all_cycles_ok: bool

    @property
    def within_bound(self) -> bool:
        """Every cycle finished within ``5·h + 5`` rounds."""
        return all(
            r <= b for r, b in zip(self.cycle_rounds, self.cycle_bounds)
        )

    @property
    def max_rounds(self) -> int:
        return max(self.cycle_rounds) if self.cycle_rounds else 0

    @property
    def max_height(self) -> int:
        return max(self.heights) if self.heights else 0


def measure_cycles(
    network: Network,
    *,
    root: int = 0,
    daemon: Daemon | None = None,
    seed: int = 0,
    cycles: int = 3,
    max_steps: int = 1_000_000,
) -> CycleMeasurement:
    """Run ``cycles`` PIF cycles from the clean configuration and measure each."""
    protocol = SnapPif.for_network(network, root)
    monitor = PifCycleMonitor(protocol, network)
    sim = Simulator(protocol, network, daemon, seed=seed, monitors=[monitor])
    result = sim.run(
        until=lambda _c: monitor.completed_count >= cycles,
        max_steps=max_steps,
    )
    if monitor.completed_count < cycles:
        raise SimulationLimitError(
            f"only {monitor.completed_count}/{cycles} cycles completed "
            f"within {result.steps} steps on {network.name}"
        )
    done = monitor.completed_cycles[:cycles]
    return CycleMeasurement(
        topology=network.name,
        n=network.n,
        daemon=sim.daemon.name,
        cycle_rounds=tuple(c.rounds for c in done),
        heights=tuple(c.height for c in done),
        cycle_bounds=tuple(bounds.cycle_bound(c.height) for c in done),
        all_cycles_ok=all(c.ok for c in done),
    )


# ----------------------------------------------------------------------
# E2/E3/E4: stabilization (Property 3, Theorems 1 and 3)
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class StabilizationMeasurement:
    """Rounds after which each stabilization property held *permanently*.

    A property's measurement is the number of completed rounds at the
    last observed violation plus one — i.e. "held forever from round R
    on" — which is exactly what the paper's bounds promise.
    """

    topology: str
    n: int
    l_max: int
    fault_mode: str
    daemon: str
    seed: int
    rounds_to_good_count: int
    rounds_to_normal: int
    rounds_to_good_configuration: int
    good_count_bound: int
    normalization_bound: int
    glt_bound: int
    observed_rounds: int

    @property
    def within_bounds(self) -> bool:
        return (
            self.rounds_to_good_count <= self.good_count_bound
            and self.rounds_to_normal <= self.normalization_bound
            and self.rounds_to_good_configuration <= self.glt_bound
        )


def _all_good_count(
    configuration: Configuration, network: Network, k: PifConstants
) -> bool:
    return all(
        pred.good_count(Context(p, network, configuration), k)
        for p in network.nodes
    )


def measure_stabilization(
    network: Network,
    *,
    root: int = 0,
    fault_mode: str = "uniform",
    seed: int = 0,
    daemon: Daemon | None = None,
    observe_rounds: int | None = None,
    max_steps: int = 2_000_000,
) -> StabilizationMeasurement:
    """Run from an adversarial configuration; measure convergence rounds.

    The simulation observes at least the Theorem 3 bound's worth of
    rounds (``8·L_max + 7``, override via ``observe_rounds``) plus the
    remaining suffix needed for any wave in progress to finish, and
    records the last round at which each property was violated.
    """
    protocol = SnapPif.for_network(network, root)
    k = protocol.constants
    injector = FaultInjector(protocol, network, k)
    initial = injector.generate(fault_mode, seed)
    horizon = (
        observe_rounds
        if observe_rounds is not None
        else bounds.glt_bound(k.l_max) + 2
    )

    sim = Simulator(protocol, network, daemon, configuration=initial, seed=seed)
    last_bad_good_count = -1
    last_bad_normal = -1
    last_bad_good_cfg = -1

    def observe(configuration: Configuration) -> None:
        nonlocal last_bad_good_count, last_bad_normal, last_bad_good_cfg
        rounds_now = sim.rounds
        if not _all_good_count(configuration, network, k):
            last_bad_good_count = rounds_now
        audit = audit_normality(configuration, network, k)
        if not audit.is_normal:
            last_bad_normal = rounds_now
        if not defs.is_good_configuration(configuration, network, k):
            last_bad_good_cfg = rounds_now

    observe(sim.configuration)
    while sim.rounds < horizon and sim.steps < max_steps and not sim.is_terminal():
        sim.step()
        observe(sim.configuration)

    return StabilizationMeasurement(
        topology=network.name,
        n=network.n,
        l_max=k.l_max,
        fault_mode=fault_mode,
        daemon=sim.daemon.name,
        seed=seed,
        rounds_to_good_count=last_bad_good_count + 1,
        rounds_to_normal=last_bad_normal + 1,
        rounds_to_good_configuration=last_bad_good_cfg + 1,
        good_count_bound=bounds.good_count_bound(k.l_max),
        normalization_bound=bounds.normalization_bound(k.l_max),
        glt_bound=bounds.glt_bound(k.l_max),
        observed_rounds=sim.rounds,
    )


# ----------------------------------------------------------------------
# E5: Theorem 2 phase convergence
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class Theorem2Measurement:
    """Rounds to reach the phase-appropriate target configuration."""

    topology: str
    case: int
    seed: int
    rounds_to_target: int
    bound: int
    #: Which target was reached ("SB", "EF", "EBN") — cases 2 and 3 may
    #: legitimately resolve to SB when the pre-existing wave is aborted
    #: by a correction (the wave was not root-initiated).
    reached: str

    @property
    def within_bound(self) -> bool:
        return self.rounds_to_target <= self.bound


def _force_root(
    configuration: Configuration, k: PifConstants, **changes: object
) -> Configuration:
    root_state = configuration[k.root]
    assert isinstance(root_state, PifState)
    return configuration.replace({k.root: root_state.replace(**changes)})


def measure_theorem2(
    network: Network,
    case: int,
    *,
    root: int = 0,
    seed: int = 0,
    daemon: Daemon | None = None,
    max_steps: int = 2_000_000,
) -> Theorem2Measurement:
    """Measure one Theorem 2 case from a randomized configuration.

    * case 1: ``Pif_r = F`` → SB within ``4·L_max + 4``;
    * case 2: ``Pif_r = B ∧ Fok_r`` → EF within ``5·L_max + 4``;
    * case 3: ``Pif_r = B ∧ ¬Fok_r`` → EBN within ``5·L_max + 4``.

    For cases 2 and 3 an aborting correction at the root yields an SB
    configuration instead; both outcomes are within the theorem's intent
    (the pre-existing wave either finishes its phase or is removed) and
    are accepted, with the outcome recorded in :attr:`reached`.
    """
    protocol = SnapPif.for_network(network, root)
    k = protocol.constants
    injector = FaultInjector(protocol, network, k)
    initial = injector.generate("uniform", seed)
    if case == 1:
        initial = _force_root(initial, k, pif=Phase.F)
        bound = bounds.theorem2_sb_bound(k.l_max)
        targets: dict[str, Callable[[Configuration], bool]] = {
            "SB": lambda c: defs.is_sb_configuration(c, network, k),
        }
    elif case == 2:
        initial = _force_root(initial, k, pif=Phase.B, fok=True, count=k.n)
        bound = bounds.theorem2_ef_bound(k.l_max)
        targets = {
            "EF": lambda c: defs.is_ef_configuration(c, network, k),
            "SB": lambda c: defs.is_sb_configuration(c, network, k),
        }
    elif case == 3:
        initial = _force_root(initial, k, pif=Phase.B, fok=False, count=1)
        bound = bounds.theorem2_ebn_bound(k.l_max)
        targets = {
            "EBN": lambda c: defs.is_ebn_configuration(c, network, k),
            "SB": lambda c: defs.is_sb_configuration(c, network, k),
        }
    else:
        raise ValueError(f"Theorem 2 has cases 1-3, got {case}")

    sim = Simulator(protocol, network, daemon, configuration=initial, seed=seed)

    def hit(configuration: Configuration) -> str | None:
        for label, predicate in targets.items():
            if predicate(configuration):
                return label
        return None

    reached = hit(sim.configuration)
    while reached is None and sim.steps < max_steps and not sim.is_terminal():
        sim.step()
        reached = hit(sim.configuration)
    if reached is None:
        raise SimulationLimitError(
            f"Theorem 2 case {case} target not reached within "
            f"{sim.steps} steps on {network.name}"
        )
    return Theorem2Measurement(
        topology=network.name,
        case=case,
        seed=seed,
        rounds_to_target=sim.rounds,
        bound=bound,
        reached=reached,
    )

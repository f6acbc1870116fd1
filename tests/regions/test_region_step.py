"""Randomized equivalence sweep: parallel regions vs serial columnar.

The determinism contract of DESIGN.md §14, executed: for 200 randomized
runs (50 seeds × 4 protocols) over mixed daemons and topology families,
with a mid-run crash, topology churn, a transient corruption fault and
a recovery, the region-parallel columnar runs at thread counts
{1, 2, 4} are **bit-identical** to the serial columnar run — the same
steps / rounds / moves, action histograms, schedules and final
configurations.  The serial leg runs with lockstep validation on, so it
is itself pinned to the object engine; transitivity pins the parallel
legs too.

``REPRO_COLUMNAR_BACKEND`` selects the backend, so the CI matrix covers
pure and numpy.
"""

from __future__ import annotations

import sys
import time
from random import Random

import pytest

from repro.core.pif import SnapPif
from repro.graphs import by_name
from repro.protocols import SelfStabPif, SpanningTree, TreePif
from repro.runtime.daemons import (
    AdversarialDaemon,
    CentralDaemon,
    DistributedRandomDaemon,
    LocallyCentralDaemon,
    SynchronousDaemon,
)
from repro.runtime.network import Network
from repro.runtime.protocol import Protocol
from repro.runtime.simulator import Simulator

FAMILIES = (
    "line",
    "ring",
    "star",
    "complete",
    "random-sparse",
    "random-dense",
    "random-tree",
    "caterpillar",
)

DAEMONS = (
    lambda: SynchronousDaemon(),
    lambda: CentralDaemon(choice="random"),
    lambda: CentralDaemon(choice="oldest"),
    lambda: LocallyCentralDaemon(),
    lambda: DistributedRandomDaemon(0.3),
    lambda: DistributedRandomDaemon(0.7, action_policy="random"),
    lambda: AdversarialDaemon(patience=4),
)

PROTOCOL_KINDS = ("snap-pif", "self-stab-pif", "tree-pif", "spanning-tree")

#: Kinds whose programs survive an arbitrary topology swap (TreePif's
#: action table is built from one BFS tree; SelfStabPif's ancestor
#: chains assume the build topology).
CHURN_KINDS = ("snap-pif", "spanning-tree")

STEPS = 30
CRASH_AT = 10
CHURN_AT = 12
FAULT_AT = 15
RECOVER_AT = 20


def _bfs_parents(net: Network, root: int = 0) -> dict[int, int | None]:
    levels = net.bfs_levels(root)
    return {
        p: (
            None
            if p == root
            else next(q for q in net.neighbors(p) if levels[q] == levels[p] - 1)
        )
        for p in net.nodes
    }


def _make_protocol(kind: str, net: Network) -> Protocol:
    if kind == "snap-pif":
        return SnapPif.for_network(net)
    if kind == "self-stab-pif":
        return SelfStabPif(0, net.n)
    if kind == "tree-pif":
        return TreePif(0, _bfs_parents(net))
    return SpanningTree(0, net.n)


def _drive(
    kind: str,
    net: Network,
    seed: int,
    *,
    region_parallel: bool,
    region_threads: int | None = None,
    validate: bool = False,
) -> tuple:
    """Run a faulted execution; return its observable outcome."""
    protocol = _make_protocol(kind, net)
    rng = Random(seed * 7919 + 1)
    sim = Simulator(
        protocol,
        net,
        DAEMONS[seed % len(DAEMONS)](),
        configuration=protocol.random_configuration(net, Random(seed)),
        seed=seed,
        trace_level="selections",
        engine="columnar",
        validate_engine=validate,
        region_parallel=region_parallel,
        region_threads=region_threads,
    )
    for step in range(STEPS):
        if step == CRASH_AT:
            sim.crash([1])
        if step == CHURN_AT and kind in CHURN_KINDS:
            sim.apply_topology(by_name("ring", net.n))
        if step == FAULT_AT:
            sim.reset_configuration(
                protocol.random_configuration(sim.network, rng)
            )
        if step == RECOVER_AT:
            sim.recover()
        if sim.step() is None:
            break
    # Closing check on top of any per-step lockstep validation.
    full_map = protocol.enabled_map(sim.configuration, sim.network)
    assert full_map == sim._enabled
    assert list(full_map) == list(sim._enabled)
    return (
        sim.steps,
        sim.rounds,
        sim.moves,
        sim.action_counts,
        sim.trace.schedule(),
        sim.configuration,
    )


@pytest.mark.parametrize("kind", PROTOCOL_KINDS)
@pytest.mark.parametrize("seed", range(50))
def test_parallel_regions_bit_identical_to_serial_columnar(
    kind: str, seed: int
) -> None:
    net = by_name(FAMILIES[seed % len(FAMILIES)], 5 + seed % 5)
    serial = _drive(kind, net, seed, region_parallel=False, validate=True)
    for threads in (1, 2, 4):
        parallel = _drive(
            kind, net, seed, region_parallel=True, region_threads=threads
        )
        assert parallel == serial, f"threads={threads}"


class TestComposition:
    def test_region_parallel_composes_with_lockstep_validation(self) -> None:
        # REPRO_ENGINE_VALIDATE + REPRO_REGION_PARALLEL is a CI leg:
        # the validator re-checks every region-merged step against the
        # object engine and must stay silent.
        net = by_name("random-sparse", 12)
        protocol = SnapPif.for_network(net)
        sim = Simulator(
            protocol,
            net,
            DistributedRandomDaemon(0.5),
            configuration=protocol.random_configuration(net, Random(11)),
            seed=4,
            engine="columnar",
            validate_engine=True,
            region_parallel=True,
            region_threads=2,
        )
        for _ in range(25):
            if sim.step() is None:
                break
        assert protocol.enabled_map(sim.configuration, net) == sim._enabled

    def test_concurrent_region_writes_keep_every_stale_node(self) -> None:
        # Region workers record the nodes they write in the shared
        # column block; a lost record would decode a stale state, which
        # the validator's successor check against the object engine
        # reports.  More threads than cores and a tiny switch interval
        # make the workers interleave inside those records.
        net = by_name("ring", 600)
        protocol = SnapPif.for_network(net)
        sim = Simulator(
            protocol,
            net,
            DistributedRandomDaemon(0.3),
            configuration=protocol.random_configuration(net, Random(5)),
            seed=6,
            engine="columnar",
            validate_engine=True,
            region_parallel=True,
            region_threads=4,
        )
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        steps = 0
        try:
            deadline = time.monotonic() + 5.0
            while steps < 40 and time.monotonic() < deadline:
                if sim.step() is None:
                    break
                steps += 1
        finally:
            sys.setswitchinterval(interval)
        assert steps > 0
        assert protocol.enabled_map(sim.configuration, net) == sim._enabled

    def test_environment_knobs_reach_the_runtime(self, monkeypatch) -> None:
        monkeypatch.setenv("REPRO_REGION_PARALLEL", "1")
        monkeypatch.setenv("REPRO_REGION_THREADS", "2")
        net = by_name("ring", 8)
        protocol = SnapPif.for_network(net)
        sim = Simulator(protocol, net, engine="columnar")
        assert sim._columnar.region_parallel is True
        assert sim._columnar.region_threads == 2
        assert sim._columnar._stepper is not None
        assert sim._columnar._stepper.threads == 2

    def test_serial_default_builds_no_stepper(self, monkeypatch) -> None:
        monkeypatch.delenv("REPRO_REGION_PARALLEL", raising=False)
        net = by_name("ring", 8)
        protocol = SnapPif.for_network(net)
        sim = Simulator(protocol, net, engine="columnar")
        assert sim._columnar._stepper is None

    def test_churn_rebuilds_the_stepper_for_the_new_topology(self) -> None:
        net = by_name("ring", 10)
        protocol = SnapPif.for_network(net)
        sim = Simulator(
            protocol,
            net,
            configuration=protocol.random_configuration(net, Random(2)),
            seed=3,
            engine="columnar",
            region_parallel=True,
            region_threads=2,
        )
        before = sim._columnar._stepper
        assert before is not None
        sim.apply_topology(by_name("random-dense", 10))
        after = sim._columnar._stepper
        assert after is not None and after is not before
        assert after.kernel is sim._columnar.kernel
        for _ in range(20):
            if sim.step() is None:
                break
        assert (
            protocol.enabled_map(sim.configuration, sim.network)
            == sim._enabled
        )

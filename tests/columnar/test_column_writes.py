"""Whole-column writes against the incremental engine, step for step.

The columnar step lands large same-action groups with one
``col[idx] = vals`` per field and repairs masks over a CSR-gathered
``dirty ∪ N(dirty)``.  These runs compare it with the incremental
object engine on the same seed: the selection, the post-step
configuration and the final configuration must be identical at every
step, with the columnar engine lockstep-validated throughout.

Synchronous star and ring runs at N ∈ {64, 1024} move enough nodes per
step for the numpy backend's vector path to fire; the central-daemon
grid moves one node per step and stays on the scalar path.  Both
backends run every case (numpy cases skip when numpy is missing).

The observers are compared the same way: with a ``PifCycleMonitor``
attached, every step's cycle reports (received, acked, height, rounds,
moves, violations), round ages, pending round set and action counts
must equal the incremental engine's, under every daemon — those the
numpy backend runs on index arrays and those that keep the dict path —
from clean and seeded corrupted starts, across crash and suppression
windows, and for the non-snap baseline, whose first waves violate
[PIF1].
"""

from __future__ import annotations

from random import Random

import pytest

from repro.columnar import CompiledSpecKernel, numpy_available
from repro.core.monitor import PifCycleMonitor
from repro.core.pif import SnapPif
from repro.graphs import grid, ring, star
from repro.protocols.self_stab_pif import SelfStabPif
from repro.runtime.daemons import (
    AdversarialDaemon,
    CentralDaemon,
    DistributedRandomDaemon,
    LocallyCentralDaemon,
    RoundRobinDaemon,
    SynchronousDaemon,
    WeaklyFairDaemon,
)
from repro.runtime.simulator import Simulator

BACKENDS = [
    "pure",
    pytest.param(
        "numpy",
        marks=pytest.mark.skipif(
            not numpy_available(), reason="numpy not importable"
        ),
    ),
]

#: ``(case id, network factory, daemon factory, start, steps)``; a
#: ``"random"`` start is a seeded arbitrary configuration, so many
#: nodes move at once even on the ring.
CASES = [
    ("sync-star64", lambda: star(64), SynchronousDaemon, "clean", 40),
    ("sync-star1024", lambda: star(1024), SynchronousDaemon, "clean", 40),
    (
        "sync-star1024-random",
        lambda: star(1024),
        SynchronousDaemon,
        "random",
        40,
    ),
    ("sync-ring64", lambda: ring(64), SynchronousDaemon, "random", 60),
    ("sync-ring1024", lambda: ring(1024), SynchronousDaemon, "random", 30),
    (
        "central-grid",
        lambda: grid(12, 12),
        lambda: CentralDaemon(choice="random"),
        "random",
        300,
    ),
]

#: Cases whose steps must reach the vector path on numpy.
VECTOR_CASES = {
    "sync-star64",
    "sync-star1024",
    "sync-star1024-random",
    "sync-ring1024",
}


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    # Serial stepping: region-parallel steps split a selection into
    # regions too small for the vector path.
    for name in (
        "REPRO_COLUMNAR_BACKEND",
        "REPRO_ENGINE",
        "REPRO_ENGINE_VALIDATE",
        "REPRO_REGION_PARALLEL",
        "REPRO_REGION_THREADS",
    ):
        monkeypatch.delenv(name, raising=False)


def _run(net, daemon, start, steps, engine, **kw):
    protocol = SnapPif.for_network(net)
    configuration = (
        protocol.random_configuration(net, Random(11))
        if start == "random"
        else None
    )
    sim = Simulator(
        protocol,
        net,
        daemon,
        configuration=configuration,
        seed=5,
        trace_level="configurations",
        engine=engine,
        **kw,
    )
    sim.run(max_steps=steps)
    return sim


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize(
    "case, make_net, make_daemon, start, steps",
    CASES,
    ids=[c[0] for c in CASES],
)
def test_column_writes_match_incremental_engine(
    backend, case, make_net, make_daemon, start, steps, monkeypatch
) -> None:
    monkeypatch.setenv("REPRO_COLUMNAR_BACKEND", backend)
    calls = {"vector": 0}
    original = CompiledSpecKernel._updates_vectorized

    def counting(self, nodes, aspec):
        calls["vector"] += 1
        return original(self, nodes, aspec)

    monkeypatch.setattr(CompiledSpecKernel, "_updates_vectorized", counting)

    net = make_net()
    reference = _run(net, make_daemon(), start, steps, "incremental")
    columnar = _run(
        net, make_daemon(), start, steps, "columnar", validate_engine=True
    )

    assert columnar.steps == reference.steps > 0
    for got, want in zip(columnar.trace, reference.trace):
        assert got.selection == want.selection
        assert got.rounds_completed == want.rounds_completed
        assert got.after == want.after
    assert columnar.configuration == reference.configuration
    assert columnar.rounds == reference.rounds
    if backend == "numpy" and case in VECTOR_CASES:
        assert calls["vector"] > 0, "the vector write path never fired"
    if backend == "pure" or case == "central-grid":
        assert calls["vector"] == 0


# ----------------------------------------------------------------------
# Observers: cycle reports, round ages and action counts, step by step
# ----------------------------------------------------------------------
#: Daemons the numpy backend runs on index arrays (mask-selected) ...
ARRAY_DAEMONS = [
    ("sync", SynchronousDaemon),
    ("central-random", lambda: CentralDaemon(choice="random")),
    ("central-oldest", lambda: CentralDaemon(choice="oldest")),
    ("central-lowest", lambda: CentralDaemon(choice="lowest")),
]
#: ... and daemons that keep the dict path.
DICT_DAEMONS = [
    ("sync-random-action", lambda: SynchronousDaemon(action_policy="random")),
    ("central-random-action", lambda: CentralDaemon(action_policy="random")),
    ("locally-central", LocallyCentralDaemon),
    ("distributed-random", lambda: DistributedRandomDaemon(0.5)),
    ("adversarial", lambda: AdversarialDaemon(patience=3)),
    ("round-robin", RoundRobinDaemon),
    ("weakly-fair", lambda: WeaklyFairDaemon(CentralDaemon(), patience=4)),
]

#: ``(case id, network, protocol factory, start seed or None, faults)``;
#: faults are ``(step, method, nodes)`` applied to both simulators.
OBSERVER_CASES = [
    ("star64-clean", lambda: star(64), SnapPif.for_network, None, ()),
    (
        "star64-corrupt-faults",
        lambda: star(64),
        SnapPif.for_network,
        7,
        (
            (5, "crash", (3, 9, 40)),
            (9, "suppress", (0, 12)),
            (14, "recover", None),
            (18, "release", None),
        ),
    ),
    (
        "grid5-corrupt-baseline",
        lambda: grid(5, 5),
        lambda net: SelfStabPif(0, net.n),
        7,
        ((20, "suppress", (6, 7, 8)), (45, "release", None)),
    ),
]


def _observed(net, protocol, daemon, start, engine, **kw):
    configuration = (
        None
        if start is None
        else protocol.random_configuration(net, Random(start))
    )
    monitor = PifCycleMonitor(protocol, net)
    sim = Simulator(
        protocol,
        net,
        daemon,
        configuration=configuration,
        seed=9,
        monitors=[monitor],
        engine=engine,
        **kw,
    )
    return sim, monitor


def _reports(monitor):
    return [
        (
            r.start_step,
            r.end_step,
            sorted(r.received),
            sorted(r.acked),
            r.height,
            r.rounds,
            r.moves,
            list(r.violations),
            r.completed,
            r.root_feedback_step,
        )
        for r in monitor.reports
    ]


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize(
    "daemon_id, make_daemon",
    ARRAY_DAEMONS + DICT_DAEMONS,
    ids=[d[0] for d in ARRAY_DAEMONS + DICT_DAEMONS],
)
@pytest.mark.parametrize(
    "case, make_net, make_protocol, start, faults",
    OBSERVER_CASES,
    ids=[c[0] for c in OBSERVER_CASES],
)
def test_observers_match_incremental_engine(
    backend,
    daemon_id,
    make_daemon,
    case,
    make_net,
    make_protocol,
    start,
    faults,
    monkeypatch,
) -> None:
    monkeypatch.setenv("REPRO_COLUMNAR_BACKEND", backend)
    net = make_net()
    protocol = make_protocol(net)
    reference, ref_monitor = _observed(
        net, protocol, make_daemon(), start, "incremental"
    )
    columnar, monitor = _observed(
        net, protocol, make_daemon(), start, "columnar", validate_engine=True
    )
    array_daemon = daemon_id in dict(ARRAY_DAEMONS)
    assert columnar._array_path == (backend == "numpy" and array_daemon)
    schedule = {step: (method, nodes) for step, method, nodes in faults}
    for step in range(150):
        if step in schedule:
            method, nodes = schedule[step]
            args = () if nodes is None else (nodes,)
            assert getattr(columnar, method)(*args) == getattr(
                reference, method
            )(*args)
        got, want = columnar.step(), reference.step()
        if want is None:
            # Terminal, or stalled until a later recovery.
            assert got is None
            assert columnar.is_stalled() == reference.is_stalled()
            continue
        assert got.selection == want.selection
        assert got.rounds_completed == want.rounds_completed
        assert columnar.configuration == reference.configuration
        assert dict(columnar._rounds.ages) == dict(reference._rounds.ages)
        assert columnar._rounds.pending == reference._rounds.pending
        assert columnar.action_counts == reference.action_counts
        assert _reports(monitor) == _reports(ref_monitor)
    assert columnar.rounds == reference.rounds
    assert columnar.moves == reference.moves
    if daemon_id == "sync":
        assert ref_monitor.reports, "no wave was initiated"

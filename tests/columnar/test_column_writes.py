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
"""

from __future__ import annotations

from random import Random

import pytest

from repro.columnar import CompiledSpecKernel, numpy_available
from repro.core.pif import SnapPif
from repro.graphs import grid, ring, star
from repro.runtime.daemons import CentralDaemon, SynchronousDaemon
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

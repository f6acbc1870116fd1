"""Array steps: nothing decoded unless read, snapshots that keep their step.

On the numpy backend with a compiled kernel, a step under the
synchronous or central daemon runs on index arrays from the daemon to
the cycle monitor (DESIGN.md §11).  These tests count the rows the
schema decodes — none across monitored cycles and served waves — and
check the lazy configurations such runs hand out: a ``RunResult.final``
or ``until`` argument held across later steps still equals the
incremental engine's configuration at its own step, and a no-op step
keeps returning the identical object.  The lockstep validator's three
array-path checks are shown to fire on a planted divergence.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random

import pytest

from repro.applications.broadcast import BroadcastService
from repro.chaos.campaign import run_chaos
from repro.chaos.scenario import FaultScenario
from repro.columnar import numpy_available
from repro.columnar.expr import ActionSpec, ColumnarSpec, Const, Eq, Min2, Own
from repro.columnar.schema import ColumnField, ColumnSchema
from repro.core.monitor import PifCycleMonitor
from repro.core.pif import SnapPif
from repro.errors import VerificationError
from repro.graphs import grid, ring, star
from repro.runtime.daemons import CentralDaemon, SynchronousDaemon
from repro.runtime.network import Network
from repro.runtime.protocol import Action, Protocol
from repro.runtime.simulator import Simulator
from repro.runtime.state import LazyConfiguration, NodeState
from repro.runtime.trace import StepRecord

pytestmark = pytest.mark.skipif(
    not numpy_available(), reason="the array path needs numpy"
)


@pytest.fixture(autouse=True)
def _numpy_env(monkeypatch):
    for name in (
        "REPRO_ENGINE",
        "REPRO_ENGINE_VALIDATE",
        "REPRO_REGION_PARALLEL",
        "REPRO_REGION_THREADS",
    ):
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setenv("REPRO_COLUMNAR_BACKEND", "numpy")


@pytest.fixture
def decoded(monkeypatch):
    """Rows decoded through ``ColumnSchema.decode_rows``."""
    count = {"rows": 0}
    original = ColumnSchema.decode_rows

    def counting(self, rows, payload=()):
        rows = list(rows)
        count["rows"] += len(rows)
        return original(self, rows, payload)

    monkeypatch.setattr(ColumnSchema, "decode_rows", counting)
    return count


def _monitored(net, daemon, **kw):
    protocol = SnapPif.for_network(net)
    monitor = PifCycleMonitor(protocol, net)
    sim = Simulator(protocol, net, daemon, seed=3, monitors=[monitor], **kw)
    return sim, monitor


@pytest.mark.parametrize(
    "make_net, make_daemon",
    [
        (lambda: star(1024), SynchronousDaemon),
        (lambda: grid(12, 12), lambda: CentralDaemon(choice="random")),
    ],
    ids=["sync-star1024", "central-grid12"],
)
def test_monitored_cycles_decode_nothing(
    make_net, make_daemon, decoded
) -> None:
    net = make_net()
    sim, monitor = _monitored(net, make_daemon(), engine="columnar")
    assert sim._array_path
    for _ in range(3):
        before = monitor.completed_count
        # The result is dropped at once: a result still held at the
        # next write would be decoded first (the next test).
        result = sim.run(until=lambda _c: monitor.completed_count > before)
        assert result.satisfied
        del result
    assert decoded["rows"] == 0
    assert monitor.completed_count == 3
    assert monitor.all_cycles_ok()
    # Reading the final configuration decodes it, and it is the
    # incremental engine's configuration after as many steps.
    final = sim.run(max_steps=sim.steps).final
    reference, _ = _monitored(net, make_daemon(), engine="incremental")
    reference.run(max_steps=sim.steps)
    assert final == reference.configuration
    assert decoded["rows"] > 0


def test_served_waves_decode_nothing(decoded) -> None:
    net = star(1024)
    service = BroadcastService(net, engine="columnar")
    assert service.simulator._array_path
    for value in ("a", "b", "c"):
        outcome = service.broadcast(value)
        assert outcome.ok
        assert outcome.delivered_everywhere
        assert len(outcome.delivered) == net.n
    assert decoded["rows"] == 0
    # The answers read from the payload columns are the decoded ones.
    final = service.simulator.configuration
    assert outcome.delivered == service.protocol.delivered_messages(final)
    assert outcome.result == service.protocol.root_result(final)


def test_chaos_cell_decodes_nothing(decoded) -> None:
    # The campaign loop drops each step record before the next step,
    # so no record's lazy ``after`` is decoded.
    net = star(256)
    run = run_chaos(
        SnapPif.for_network(net),
        net,
        FaultScenario(name="quiet"),
        budget=60,
        engine="columnar",
    )
    assert run.steps == 60 and run.violation is None
    assert decoded["rows"] == 0


def test_held_snapshots_keep_their_step() -> None:
    net = ring(64)
    protocol = SnapPif.for_network(net)
    start = protocol.random_configuration(net, Random(4))

    def simulator(engine):
        return Simulator(
            protocol,
            net,
            SynchronousDaemon(),
            configuration=start,
            seed=1,
            monitors=[PifCycleMonitor(protocol, net)],
            engine=engine,
        )

    columnar = simulator("columnar")
    reference = simulator("incremental")
    assert columnar._array_path
    held, expected, seen = [], [], []
    for _ in range(6):
        held.append(
            columnar.run(
                until=lambda c: seen.append(c) or False,
                max_steps=columnar.steps + 5,
            ).final
        )
        expected.append(reference.run(max_steps=reference.steps + 5).final)
    # Every held snapshot was still unread when the engine wrote over
    # its step, and still shows that step.
    assert all(isinstance(f, LazyConfiguration) for f in held)
    assert held == expected
    replay = simulator("incremental")
    configs = [replay.configuration]
    while replay.steps < columnar.steps:
        replay.step()
        configs.append(replay.configuration)
    # ``until`` saw the configuration before each step of every run
    # and the one it stopped at.
    assert seen == [
        configs[i] for r in range(6) for i in range(5 * r, 5 * r + 6)
    ]


@dataclass(frozen=True, slots=True)
class _Cell(NodeState):
    value: int


_CELL_COLUMNS = ColumnSchema(_Cell, (ColumnField("value"),))


class _Clamp(Protocol):
    """Every node is always enabled and clamps its value to at most 1,
    so after the first step every step is a no-op."""

    name = "clamp"

    def actions(self, node, network):
        return (
            Action(
                "clamp",
                lambda ctx: True,
                lambda ctx: _Cell(min(ctx.state.value, 1)),
            ),
        )

    def initial_state(self, node, network):
        return _Cell(node % 3)

    def random_state(self, node, network, rng):
        return _Cell(rng.randint(0, 9))

    def columnar_spec(self):
        clamp = ActionSpec(
            "clamp",
            Eq(Own("value"), Own("value")),
            {"value": Min2(Own("value"), Const(1))},
        )
        return ColumnarSpec(
            schema=_CELL_COLUMNS,
            programs={"node": (clamp,)},
            roles=lambda p: "node",
            bulk_role="node",
        )


@pytest.mark.parametrize("n", [8, 256])
def test_noop_step_returns_identical_configuration(n) -> None:
    net = ring(n)
    sim = Simulator(_Clamp(), net, SynchronousDaemon(), engine="columnar")
    assert sim._array_path
    assert sim.step().moves == n  # writes every node with value 2
    # The snapshot of a written, unread version is lazy, and stays one
    # object across no-op steps, before and after it is read.
    lazy = sim.run(max_steps=sim.steps + 1).final
    assert isinstance(lazy, LazyConfiguration) and not lazy.resolved
    assert sim.run(max_steps=sim.steps + 2).final is lazy
    assert not lazy.resolved
    reference = Simulator(_Clamp(), net, SynchronousDaemon())
    reference.run(max_steps=sim.steps)
    assert lazy == reference.configuration
    assert sim.run(max_steps=sim.steps + 1).final is lazy
    assert sim.configuration is lazy
    record = sim.step()
    assert record.moves == n
    assert sim.configuration is lazy


def test_written_step_resolves_a_held_snapshot_first() -> None:
    net = star(64)
    sim, _ = _monitored(net, SynchronousDaemon(), engine="columnar")
    before = sim.run(max_steps=1).final
    assert isinstance(before, LazyConfiguration) and not before.resolved
    sim.step()
    assert before.resolved
    reference, _ = _monitored(net, SynchronousDaemon(), engine="incremental")
    reference.run(max_steps=1)
    assert before == reference.configuration
    assert sim.configuration != before


# ----------------------------------------------------------------------
# The lockstep validator covers the array path
# ----------------------------------------------------------------------
def _validated(daemon):
    net = grid(6, 6)
    return _monitored(net, daemon, engine="columnar", validate_engine=True)


def test_validated_array_path_runs_clean() -> None:
    for daemon in (SynchronousDaemon(), CentralDaemon(choice="oldest")):
        sim, monitor = _validated(daemon)
        assert sim._array_path
        sim.run(max_steps=400)
        assert monitor.completed_count >= 1


def test_validation_catches_a_diverging_selection(monkeypatch) -> None:
    sim, _ = _validated(CentralDaemon(choice="random"))
    monkeypatch.setattr(
        CentralDaemon, "_pick_index", lambda self, nodes, ages, rng: nodes[-1:]
    )
    with pytest.raises(VerificationError, match="array selection"):
        sim.run(max_steps=50)


def test_validation_catches_a_parent_column_that_is_not_join_parent(
    monkeypatch,
) -> None:
    sim, _ = _validated(SynchronousDaemon())
    monkeypatch.setattr(SnapPif, "join_parent", lambda self, ctx: -7)
    with pytest.raises(VerificationError, match="join_parent"):
        sim.run(max_steps=50)


def test_validation_catches_diverging_round_state(monkeypatch) -> None:
    from repro.runtime import rounds

    sim, _ = _validated(CentralDaemon(choice="lowest"))
    original = rounds._ArrayStore.advance

    def stale_ages(self, executed, enabled_after):
        original(self, executed, enabled_after)
        self.age[self.age > 1] += 1

    monkeypatch.setattr(rounds._ArrayStore, "advance", stale_ages)
    with pytest.raises(VerificationError, match="round state"):
        sim.run(max_steps=50)


# ----------------------------------------------------------------------
# A wave member demoted while a child joins through it
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "member, child, joins",
    [(2, 1, True), (1, 2, False)],
    ids=["child-below-member", "child-above-member"],
)
def test_demoted_member_and_joining_child_in_one_step(
    member, child, joins
) -> None:
    """``member`` (a wave member with a broken level) takes its
    B-correction in the step ``child`` joins through it.  The ascending
    walk admits the child only when it comes first; both engines'
    monitors must agree."""
    from repro.core.state import Phase, PifState

    net = Network({0: [member], member: [0, child], child: [member]})
    protocol = SnapPif.for_network(net, l_max=5)
    states = {
        0: PifState(pif=Phase.B, par=None, level=0, count=1, fok=False),
        member: PifState(pif=Phase.B, par=0, level=3, count=1, fok=False),
        child: PifState(pif=Phase.C, par=member, level=1, count=1, fok=False),
    }
    start = protocol.initial_configuration(net).replace(states)

    reports = []
    for engine in ("incremental", "columnar"):
        monitor = PifCycleMonitor(protocol, net)
        sim = Simulator(
            protocol,
            net,
            SynchronousDaemon(),
            configuration=start,
            monitors=[monitor],
            engine=engine,
            validate_engine=True,
        )
        assert sim._array_path == (engine == "columnar")
        # The wave is under way and ``member`` already belongs to it.
        monitor._begin_wave(StepRecord(0, {0: "B-action"}, 0))
        monitor._in_wave.add(member)
        record = sim.step()
        assert record.selection[member] == "B-correction"
        assert record.selection[child] == "B-action"
        report = monitor.active_cycle
        reports.append(
            (sorted(report.received), report.height, report.violations)
        )
    assert reports[0] == reports[1]
    received, height, violations = reports[0]
    assert (child in received) == joins
    assert any(f"wave member {member} was demoted" in v for v in violations)

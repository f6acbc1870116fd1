"""The compiled payload PIF against its object oracle.

``PayloadSnapPif`` runs on the columnar engine as the compiled PIF core
plus three host hooks over the ``msg`` / ``ack`` payload fields.  The
object statements of :meth:`PayloadSnapPif._wrap` (run by the
incremental engine) are the oracle: every wave kind the service serves
must produce the same values, rounds, delivered messages, root result,
wave count and application state on both engines, on both backends,
from a clean start, from a corrupted one, and across resets.  The
lockstep validator cannot re-execute these steps (the root's hook is
impure), so these tests are what covers the payload statements.
"""

from __future__ import annotations

from dataclasses import replace
from random import Random

import pytest

from repro.applications.waves import WAVE_KINDS, WaveEngine
from repro.columnar import numpy_available
from repro.columnar.compiler import CompiledSpecKernel
from repro.columnar.expr import Eq, Nbr, NodeId
from repro.core.payload import NO_ACK, Envelope, PayloadSnapPif
from repro.core.state import PIF_COLUMNS
from repro.errors import ProtocolError
from repro.graphs import by_name, star
from repro.runtime.daemons import DistributedRandomDaemon, SynchronousDaemon
from repro.runtime.simulator import Simulator

ACTIVE_BACKENDS = ["pure"] + (["numpy"] if numpy_available() else [])

TOPOLOGIES = (("random-tree", 9), ("ring", 6), ("star", 7), ("grid", 9))

#: One request per kind, with the infimum ops in turn.
REQUESTS = (
    ("pif", {"payload": "hello"}),
    ("snapshot", {}),
    ("reset", {}),
    ("infimum", {"op": "min", "offset": 2}),
    ("census", {}),
    ("infimum", {"op": "sum"}),
    ("snapshot", {}),
    ("infimum", {"op": "max", "offset": -1}),
)

STALE = {"stale-message", -1, "stale-ack", 0}


def _corrupted(net, seed: int):
    return PayloadSnapPif.for_network(net).random_configuration(
        net, Random(seed)
    )


def _plain(configuration) -> list[tuple]:
    """States with envelopes unwrapped (they compare by identity, and
    each engine's root stamps its own)."""
    return [
        (
            s.pif,
            s.par,
            s.level,
            s.count,
            s.fok,
            s.msg.value if isinstance(s.msg, Envelope) else s.msg,
            s.ack,
        )
        for s in configuration
    ]


def _serve(engine_name: str, net, requests, **kwargs):
    """Serve ``requests`` on one engine; everything the oracle must match."""
    engine = WaveEngine(net, engine=engine_name, **kwargs)
    service = engine._service
    protocol = service.protocol
    observed = []
    for kind, args in requests:
        serving = engine.run_wave(kind, args)
        final = service.simulator.configuration
        observed.append(
            (
                serving,
                protocol.waves_started,
                protocol.delivered_messages(final),
                protocol.root_result(final),
                dict(engine.app_states),
            )
        )
    return observed


@pytest.fixture(params=ACTIVE_BACKENDS)
def backend(request, monkeypatch) -> str:
    monkeypatch.setenv("REPRO_COLUMNAR_BACKEND", request.param)
    return request.param


@pytest.mark.parametrize("name,n", TOPOLOGIES)
class TestWaveParity:
    """Columnar waves equal incremental waves, kind by kind."""

    def test_clean_start(self, backend: str, name: str, n: int) -> None:
        net = by_name(name, n)
        assert _serve("columnar", net, REQUESTS) == _serve(
            "incremental", net, REQUESTS
        )

    @pytest.mark.parametrize("seed", [3, 11])
    def test_corrupted_start(
        self, backend: str, name: str, n: int, seed: int
    ) -> None:
        net = by_name(name, n)
        start = _corrupted(net, seed)
        columnar = _serve(
            "columnar", net, REQUESTS, initial_configuration=start
        )
        incremental = _serve(
            "incremental", net, REQUESTS, initial_configuration=start
        )
        assert columnar == incremental
        assert all(serving.ok for serving, *_ in columnar)

    def test_resets_between_waves(
        self, backend: str, name: str, n: int
    ) -> None:
        net = by_name(name, n)
        requests = []
        for kind in WAVE_KINDS:
            requests += [("reset", {}), (kind, {}), ("snapshot", {})]
        assert _serve("columnar", net, requests) == _serve(
            "incremental", net, requests
        )


class TestStaleValues:
    @pytest.mark.parametrize("kind", WAVE_KINDS)
    def test_combine_never_sees_stale_garbage(
        self, backend: str, kind: str
    ) -> None:
        net = by_name("random-tree", 12)
        start = _corrupted(net, 5)
        garbage = [(s.msg, s.ack) for s in start]
        assert any(m in STALE or a in STALE for m, a in garbage)
        engine = WaveEngine(
            net, engine="columnar", initial_configuration=start
        )
        protocol = engine._service.protocol
        folded = []
        combine = protocol.combine

        def recording(values):
            folded.append(list(values))
            return combine(values)

        protocol.combine = recording
        for _ in range(3):
            assert engine.run_wave(kind).ok
        assert folded
        # Node 0 legitimately contributes 0 to an infimum fold.
        bad = STALE - {0} if kind == "infimum" else STALE
        for values in folded:
            for value in values:
                assert value is not NO_ACK
                assert not (isinstance(value, (str, int)) and value in bad)


@pytest.mark.parametrize("backend", ACTIVE_BACKENDS)
class TestPayloadCompiledKernel:
    """Compiled payload under an asynchronous daemon, step for step."""

    def test_columnar_run_matches_incremental(
        self, backend: str, monkeypatch
    ) -> None:
        monkeypatch.setenv("REPRO_COLUMNAR_BACKEND", backend)
        net = by_name("random-tree", 9)
        outcomes = {}
        for engine in ("incremental", "columnar"):
            protocol = PayloadSnapPif.for_network(net)
            protocol.outbox = "broadcast-me"
            sim = Simulator(
                protocol,
                net,
                DistributedRandomDaemon(0.5),
                configuration=protocol.random_configuration(net, Random(8)),
                seed=19,
                trace_level="configurations",
                engine=engine,
                validate_engine=(engine == "columnar"),
            )
            result = sim.run(max_steps=150)
            outcomes[engine] = (
                result.steps,
                result.moves,
                result.action_counts,
                sim.trace.schedule(),
                [_plain(record.after) for record in sim.trace],
                protocol.waves_started,
                protocol.delivered_messages(sim.configuration),
                protocol.root_result(sim.configuration),
            )
        assert outcomes["columnar"] == outcomes["incremental"]

    def test_faults_mid_run_match_incremental(
        self, backend: str, monkeypatch
    ) -> None:
        # Targeted faults write payload through apply_updates: a node
        # whose only change is its msg/ack must still be written.
        monkeypatch.setenv("REPRO_COLUMNAR_BACKEND", backend)
        net = by_name("ring", 8)
        corrupt = _corrupted(net, 4)
        outcomes = {}
        for engine in ("incremental", "columnar"):
            protocol = PayloadSnapPif.for_network(net)
            protocol.outbox = "m"
            sim = Simulator(
                protocol,
                net,
                SynchronousDaemon(),
                engine=engine,
                validate_engine=(engine == "columnar"),
            )
            seen = []
            for step in range(80):
                if step == 12:
                    state = sim.configuration[3]
                    sim.perturb_configuration(
                        {3: replace(state, msg="forged", ack="forged")}
                    )
                if step == 40:
                    sim.perturb_configuration({p: corrupt[p] for p in (2, 5)})
                if step == 60:
                    sim.reset_configuration(corrupt)
                sim.step()
                seen.append(_plain(sim.configuration))
            outcomes[engine] = (
                seen,
                protocol.waves_started,
                protocol.root_result(sim.configuration),
            )
        assert outcomes["columnar"] == outcomes["incremental"]


@pytest.mark.skipif(not numpy_available(), reason="numpy backend only")
def test_vector_host_hooks_fire_on_numpy_star(monkeypatch) -> None:
    import numpy as np

    monkeypatch.setenv("REPRO_COLUMNAR_BACKEND", "numpy")
    net = star(1024)
    protocol = PayloadSnapPif.for_network(net)
    protocol.outbox = "wave"
    seen = {}

    def spy(name, hook):
        def wrapped(group):
            out = hook(group)
            seen.setdefault(name, []).append((group.idx, out))
            return out

        return wrapped

    protocol._join_host = spy("join", protocol._join_host)
    protocol._fold_host = spy("fold", protocol._fold_host)
    sim = Simulator(protocol, net, SynchronousDaemon(), engine="columnar")
    sim.run(until=lambda _c: protocol.root_result(_c) is not NO_ACK)
    (idx, out), = seen["join"]
    assert isinstance(idx, np.ndarray) and len(idx) == 1023
    # One vector gather of the parents' envelope references.
    assert out["msg"].dtype == object
    envelope = protocol._current_envelope
    assert all(m is envelope for m in out["msg"])
    leaves = [len(idx) for idx, _ in seen["fold"]]
    assert sorted(leaves) == [1, 1023]
    expected = (0,) + tuple((q,) for q in range(1, 1024))
    assert protocol.root_result(sim.configuration) == expected


class TestHostHookContract:
    """What the compiler promises a host hook, and demands of it."""

    @staticmethod
    def _kernel(backend: str, count_host=None, count_updates=None):
        net = star(4)
        protocol = PayloadSnapPif.for_network(net)
        spec = protocol.columnar_spec()
        root = tuple(
            replace(
                a,
                host=count_host,
                updates=a.updates if count_updates is None else count_updates,
            )
            if a.name == "Count-action"
            else a
            for a in spec.programs["root"]
        )
        spec = replace(spec, programs={**spec.programs, "root": root})
        kernel = CompiledSpecKernel(protocol, net, backend, spec)
        sim = Simulator(
            protocol, net, SynchronousDaemon(), engine="incremental"
        )
        sim.run(max_steps=2)  # root B, then the leaves join
        kernel.load(sim.configuration)
        enabled = kernel.enabled_map()
        assert [a.name for a in enabled[0]] == ["Count-action"]
        return kernel, {0: enabled[0][0]}

    def test_host_needs_payload_fields(self, backend: str) -> None:
        net = star(4)
        protocol = PayloadSnapPif.for_network(net)
        spec = protocol.columnar_spec()
        with pytest.raises(ProtocolError, match="without payload"):
            CompiledSpecKernel(
                protocol, net, backend, replace(spec, schema=PIF_COLUMNS)
            )

    def test_host_may_write_only_payload(self, backend: str) -> None:
        kernel, selection = self._kernel(
            backend, count_host=lambda group: {"count": [5] * len(group)}
        )
        with pytest.raises(ProtocolError, match="payload fields only"):
            kernel.execute_selection(selection)

    def test_payload_only_change_is_written_without_mask_repair(
        self, backend: str
    ) -> None:
        marker = Envelope("marker")
        kernel, selection = self._kernel(
            backend,
            count_host=lambda group: {"msg": group.fill(marker)},
            count_updates={},
        )
        before = kernel.materialize()
        masks_before = kernel.enabled_map()
        repaired = []
        kernel._refresh = repaired.append
        assert kernel.execute_selection(selection) == {0}
        after = kernel.materialize()
        assert after[0].msg is marker
        assert after[0].pif is before[0].pif
        assert after[1:] == before[1:]
        assert kernel.enabled_map() == masks_before
        assert [len(dirty) for dirty in repaired] == [0]

    def test_edge_predicates_cannot_read_payload(self, backend: str) -> None:
        def peek(group):
            group.edges(group.nodes, Eq(Nbr("msg"), NodeId()))
            return {}

        kernel, selection = self._kernel(backend, count_host=peek)
        with pytest.raises(ProtocolError, match="unknown column 'msg'"):
            kernel.execute_selection(selection)

"""The generic guard-expression compiler vs the object engine.

``tests/columnar/test_kernel.py`` pins the snap PIF's compiled kernel to
the object oracle; this module does the same for every *other* protocol
that now declares a :meth:`~repro.runtime.protocol.Protocol.columnar_spec`
(``SelfStabPif``, ``TreePif``, ``SpanningTree``; the payload PIF has
``tests/columnar/test_payload.py``), plus the compiler's own edge cases:

* ``segment_reduce`` on empty CSR segments — a degree-0 node's fold must
  yield the identity without corrupting the *preceding* segment (plain
  ``reduceat`` aliases an empty segment onto its successor's slice);
* degree-0 nodes produced by topology churn, lockstep-validated on both
  backends (and through the vectorized path on numpy);
* compiled-kernel invalidation on ``apply_topology`` — churn-then-step
  must recompile against the new CSR, not reuse the old kernel;
* object-bridge parity for a protocol without a spec (``TreeStackPif``)
  under crash / recover / perturb.
"""

from __future__ import annotations

from random import Random

import pytest

from repro.columnar import numpy_available
from repro.core.pif import SnapPif
from repro.graphs import by_name
from repro.protocols import SelfStabPif, SpanningTree, TreePif, TreeStackPif
from repro.runtime.daemons import CentralDaemon
from repro.runtime.network import Network
from repro.runtime.protocol import Protocol
from repro.runtime.simulator import Simulator

ACTIVE_BACKENDS = ["pure"] + (["numpy"] if numpy_available() else [])

TOPOLOGIES = (
    ("ring", 6),
    ("star", 7),
    ("line", 5),
    ("complete", 5),
    ("random-sparse", 12),
    ("random-tree", 11),
    ("caterpillar", 9),
)

PROTOCOL_KINDS = ("self-stab-pif", "tree-pif", "spanning-tree")


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
    if kind == "self-stab-pif":
        return SelfStabPif(0, net.n)
    if kind == "tree-pif":
        return TreePif(0, _bfs_parents(net))
    return SpanningTree(0, net.n)


def _strip_node(net: Network, victim: int) -> Network:
    """A copy of ``net`` with every edge of ``victim`` removed."""
    return Network(
        {
            p: tuple(q for q in net.neighbors(p) if victim not in (p, q))
            for p in net.nodes
        },
        name=f"{net.name}-iso{victim}",
        require_connected=False,
    )


def _assert_same_enabled(kernel, protocol, config, net) -> None:
    expected = protocol.enabled_map(config, net)
    actual = kernel.enabled_map()
    assert actual == expected
    assert list(actual) == list(expected)
    for p, actions in expected.items():
        assert [a.name for a in actual[p]] == [a.name for a in actions]


@pytest.mark.parametrize("backend", ACTIVE_BACKENDS)
@pytest.mark.parametrize("family,n", TOPOLOGIES)
@pytest.mark.parametrize("kind", PROTOCOL_KINDS)
class TestCompiledProtocolsMatchObjects:
    def test_enabled_maps_match_on_random_configurations(
        self, kind: str, backend: str, family: str, n: int
    ) -> None:
        net = by_name(family, n)
        protocol = _make_protocol(kind, net)
        kernel = protocol.compile_columnar(net, backend)
        assert kernel is not None, f"{kind} must compile on {backend}"
        for seed in range(10):
            config = protocol.random_configuration(net, Random(seed))
            kernel.load(config)
            _assert_same_enabled(kernel, protocol, config, net)

    def test_lockstep_execution_matches_object_engine(
        self, kind: str, backend: str, family: str, n: int
    ) -> None:
        net = by_name(family, n)
        protocol = _make_protocol(kind, net)
        kernel = protocol.compile_columnar(net, backend)
        assert kernel is not None
        rng = Random(hash((kind, family, n, backend)) & 0xFFFF)
        config = protocol.random_configuration(net, Random(24))
        kernel.load(config)
        for _ in range(30):
            enabled = protocol.enabled_map(config, net)
            assert kernel.enabled_map() == enabled
            if not enabled:
                break
            selection = {
                p: rng.choice(actions)
                for p, actions in enabled.items()
                if rng.random() < 0.6
            }
            if not selection:
                continue
            after, dirty = protocol.execute_selection(config, net, selection)
            kernel_dirty = kernel.execute_selection(selection)
            assert set(kernel_dirty) == dirty
            assert kernel.materialize() == after
            config = after


@pytest.mark.skipif(not numpy_available(), reason="numpy not importable")
class TestSegmentReduce:
    """Empty CSR segments must fold to the identity, nothing else."""

    def _np(self):
        import numpy as np

        return np

    def test_trailing_empty_segment_does_not_truncate_predecessor(self):
        np = self._np()
        from repro.columnar import segment_reduce

        # counts=[2, 0]: plain reduceat over clamped offsets would split
        # the first segment in two and report [5, 7] instead of [12, 0].
        values = np.array([5, 7], dtype=np.int64)
        out = segment_reduce(
            np.add, values, np.array([0, 2]), np.array([2, 0]), 0
        )
        assert out.tolist() == [12, 0]

    def test_interior_and_leading_empty_segments(self):
        np = self._np()
        from repro.columnar import segment_reduce

        values = np.array([3, 9], dtype=np.int64)
        out = segment_reduce(
            np.add, values, np.array([0, 1, 1]), np.array([1, 0, 1]), 0
        )
        assert out.tolist() == [3, 0, 9]
        out = segment_reduce(
            np.minimum,
            values,
            np.array([0, 0]),
            np.array([0, 2]),
            1 << 62,
        )
        assert out.tolist() == [1 << 62, 3]

    def test_all_segments_empty(self):
        np = self._np()
        from repro.columnar import segment_reduce

        out = segment_reduce(
            np.add,
            np.array([], dtype=np.int64),
            np.array([0, 0, 0]),
            np.array([0, 0, 0]),
            7,
        )
        assert out.tolist() == [7, 7, 7]

    def test_dense_fast_path_unchanged(self):
        np = self._np()
        from repro.columnar import segment_reduce

        values = np.array([4, 1, 2, 8], dtype=np.int64)
        out = segment_reduce(
            np.add, values, np.array([0, 2]), np.array([2, 2]), 0
        )
        assert out.tolist() == [5, 10]


@pytest.mark.parametrize("backend", ACTIVE_BACKENDS)
class TestDegreeZeroNodes:
    """Churn can strand a node with no neighbors; folds must not alias."""

    def test_enabled_maps_with_isolated_node(self, backend: str) -> None:
        # 64 nodes so the numpy leg crosses VECTOR_MIN_NODES and folds
        # the empty CSR segment through the vectorized reducers.
        net = by_name("random-sparse", 64)
        iso = _strip_node(net, 17)
        protocol = SpanningTree(0, net.n)
        kernel = protocol.compile_columnar(iso, backend)
        assert kernel is not None
        for seed in range(6):
            # States sampled against the *connected* network: the
            # stranded node keeps its now-dangling parent pointer,
            # exactly what apply_topology hands the kernel.
            config = protocol.random_configuration(net, Random(seed))
            kernel.load(config)
            _assert_same_enabled(kernel, protocol, config, iso)

    def test_churn_to_degree_zero_then_step_lockstep(
        self, backend: str, monkeypatch
    ) -> None:
        monkeypatch.setenv("REPRO_COLUMNAR_BACKEND", backend)
        net = by_name("random-sparse", 64)
        protocol = SpanningTree(0, net.n)
        sim = Simulator(
            protocol,
            net,
            CentralDaemon(choice="random"),
            configuration=protocol.random_configuration(net, Random(5)),
            seed=12,
            engine="columnar",
            validate_engine=True,
        )
        for _ in range(10):
            if sim.step() is None:
                break
        sim.apply_topology(_strip_node(net, 17))
        for _ in range(40):
            if sim.step() is None:
                break
        assert (
            protocol.enabled_map(sim.configuration, sim.network)
            == sim._enabled
        )
        # The stranded node ends saturated and parentless.
        state = sim.configuration[17]
        assert (state.dist, state.par) == (protocol.dist_max, None)


@pytest.mark.parametrize("backend", ACTIVE_BACKENDS)
class TestKernelInvalidationOnChurn:
    """apply_topology must recompile against the new CSR, per protocol."""

    @pytest.mark.parametrize("kind", ("snap-pif", "self-stab-pif"))
    def test_churn_then_step_lockstep(
        self, backend: str, kind: str, monkeypatch
    ) -> None:
        monkeypatch.setenv("REPRO_COLUMNAR_BACKEND", backend)
        net = by_name("random-sparse", 10)
        if kind == "snap-pif":
            protocol: Protocol = SnapPif.for_network(net)
        else:
            protocol = SelfStabPif(0, net.n)
        sim = Simulator(
            protocol,
            net,
            CentralDaemon(choice="random"),
            configuration=protocol.random_configuration(net, Random(3)),
            seed=7,
            engine="columnar",
            validate_engine=True,
        )
        for _ in range(8):
            if sim.step() is None:
                break
        churned = by_name("random-dense", 10)
        sim.apply_topology(churned)
        assert sim.network is churned
        # Every post-churn step runs the freshly compiled kernel in
        # lockstep against the object oracle on the *new* topology; a
        # stale kernel would diverge immediately (different CSR).
        for _ in range(30):
            if sim.step() is None:
                break
        assert protocol.enabled_map(sim.configuration, churned) == sim._enabled


@pytest.mark.parametrize("backend", ACTIVE_BACKENDS)
class TestBridgeParityWithoutSpec:
    """A protocol with no columnar_spec must behave identically on the
    object bridge — including under crash / recover / perturb faults."""

    def test_tree_stack_pif_fault_run_parity(
        self, backend: str, monkeypatch
    ) -> None:
        monkeypatch.setenv("REPRO_COLUMNAR_BACKEND", backend)
        net = by_name("caterpillar", 10)
        outcomes = {}
        for engine in ("incremental", "columnar"):
            protocol = TreeStackPif(0, net.n)
            rng = Random(41)
            sim = Simulator(
                protocol,
                net,
                CentralDaemon(choice="random"),
                configuration=protocol.random_configuration(net, Random(6)),
                seed=23,
                trace_level="selections",
                engine=engine,
                validate_engine=True,
            )
            corrupt = protocol.random_configuration(net, rng)
            for step in range(60):
                if step == 10:
                    sim.crash([2, 5])
                if step == 25:
                    sim.recover()
                if step == 40:
                    node = rng.randrange(net.n)
                    sim.perturb_configuration({node: corrupt[node]})
                if sim.step() is None:
                    break
            outcomes[engine] = (
                sim.steps,
                sim.moves,
                sim.action_counts,
                sim.trace.schedule(),
                sim.configuration,
            )
        assert outcomes["columnar"] == outcomes["incremental"]

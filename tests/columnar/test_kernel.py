"""The compiled snap-PIF spec kernel vs the object engine, bit for bit.

Every test drives the kernel and ``Protocol.enabled_map`` /
``Protocol.execute_selection`` from identical configurations and
asserts identical enabled maps, successors and dirty sets — the same
oracle relationship ``REPRO_ENGINE_VALIDATE`` enforces at runtime,
exercised here over adversarially random configurations (where
correction actions and malformed trees actually fire).
"""

from __future__ import annotations

from random import Random

import pytest

from repro.columnar import numpy_available
from repro.core.pif import SnapPif
from repro.graphs import by_name, ring, star
from repro.runtime.network import Network

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


def _kernel_for(protocol: SnapPif, net: Network, backend: str):
    kernel = protocol.compile_columnar(net, backend)
    assert kernel is not None, "SnapPif must compile on every backend"
    return kernel


def _assert_same_enabled(kernel, protocol, config, net) -> None:
    expected = protocol.enabled_map(config, net)
    actual = kernel.enabled_map()
    assert actual == expected
    assert list(actual) == list(expected)  # ascending-node-id order
    for p, actions in expected.items():
        assert [a.name for a in actual[p]] == [a.name for a in actions]


@pytest.mark.parametrize("backend", ACTIVE_BACKENDS)
@pytest.mark.parametrize("family,n", TOPOLOGIES)
class TestMaskEquality:
    def test_enabled_maps_match_on_random_configurations(
        self, backend: str, family: str, n: int
    ) -> None:
        net = by_name(family, n)
        protocol = SnapPif.for_network(net)
        kernel = _kernel_for(protocol, net, backend)
        for seed in range(12):
            config = protocol.random_configuration(net, Random(seed))
            kernel.load(config)
            _assert_same_enabled(kernel, protocol, config, net)

    def test_lockstep_execution_matches_object_engine(
        self, backend: str, family: str, n: int
    ) -> None:
        net = by_name(family, n)
        protocol = SnapPif.for_network(net)
        kernel = _kernel_for(protocol, net, backend)
        rng = Random(hash((family, n, backend)) & 0xFFFF)
        config = protocol.random_configuration(net, Random(42))
        kernel.load(config)
        for _ in range(40):
            enabled = protocol.enabled_map(config, net)
            assert kernel.enabled_map() == enabled
            if not enabled:
                break
            # A random daemon: random node subset, random action each.
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


@pytest.mark.parametrize("backend", ACTIVE_BACKENDS)
class TestKernelFaults:
    def test_apply_updates_matches_replace(self, backend: str) -> None:
        net = by_name("random-sparse", 10)
        protocol = SnapPif.for_network(net)
        kernel = _kernel_for(protocol, net, backend)
        config = protocol.initial_configuration(net)
        kernel.load(config)
        corrupt = protocol.random_configuration(net, Random(5))
        updates = {3: corrupt[3], 7: corrupt[7]}
        kernel.apply_updates(updates)
        expected = config.replace(updates)
        assert kernel.materialize() == expected
        _assert_same_enabled(kernel, protocol, expected, net)

    def test_initial_configuration_root_alone_enabled(
        self, backend: str
    ) -> None:
        net = star(6)
        protocol = SnapPif.for_network(net)
        kernel = _kernel_for(protocol, net, backend)
        kernel.load(protocol.initial_configuration(net))
        enabled = kernel.enabled_map()
        assert list(enabled) == [0]
        assert [a.name for a in enabled[0]] == ["B-action"]


@pytest.mark.skipif(not numpy_available(), reason="numpy not importable")
class TestVectorizedPath:
    """Networks past VECTOR_MIN_NODES take the gather/reduceat path."""

    @pytest.mark.parametrize("family", ["ring", "random-tree", "random-sparse"])
    def test_large_network_lockstep(self, family: str) -> None:
        net = by_name(family, 96)
        protocol = SnapPif.for_network(net)
        kernel = _kernel_for(protocol, net, "numpy")
        rng = Random(17)
        config = protocol.random_configuration(net, Random(17))
        kernel.load(config)
        _assert_same_enabled(kernel, protocol, config, net)
        for _ in range(15):
            enabled = protocol.enabled_map(config, net)
            if not enabled:
                break
            # Synchronous-style selections keep the dirty region large,
            # so every refresh crosses the vectorization threshold.
            selection = {p: actions[0] for p, actions in enabled.items()}
            after, dirty = protocol.execute_selection(config, net, selection)
            kernel_dirty = kernel.execute_selection(selection)
            assert set(kernel_dirty) == dirty
            assert kernel.enabled_map() == protocol.enabled_map(after, net)
            config = after

    def test_backends_agree_exactly(self) -> None:
        net = by_name("random-sparse", 64)
        protocol = SnapPif.for_network(net)
        pure = _kernel_for(protocol, net, "pure")
        vec = _kernel_for(protocol, net, "numpy")
        for seed in range(6):
            config = protocol.random_configuration(net, Random(seed))
            pure.load(config)
            vec.load(config)
            assert pure.enabled_map() == vec.enabled_map()


class TestCompileGating:
    def test_snap_pif_compiles(self) -> None:
        net = ring(5)
        protocol = SnapPif.for_network(net)
        assert protocol.compile_columnar(net, "pure") is not None

    def test_payload_subclass_compiles_with_host_hooks(self) -> None:
        from repro.core.payload import PayloadSnapPif

        net = ring(5)
        protocol = PayloadSnapPif.for_network(net)
        kernel = protocol.compile_columnar(net, "pure")
        assert kernel is not None
        assert kernel.validates_successor is False

    def test_anonymous_subclass_refuses_to_compile(self) -> None:
        net = ring(5)

        class Tweaked(SnapPif):
            pass

        protocol = Tweaked.for_network(net)
        assert protocol.compile_columnar(net, "pure") is None

    def test_base_protocol_hook_returns_none(self) -> None:
        from repro.runtime.protocol import Protocol

        assert Protocol.compile_columnar(object(), ring(4), "pure") is None

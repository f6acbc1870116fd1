"""Unit tests for the PIF cycle monitor (the executable specification)."""

from __future__ import annotations

from random import Random

import pytest

from repro.core.monitor import CycleReport, PifCycleMonitor
from repro.core.pif import SnapPif
from repro.core.state import Phase
from repro.errors import SpecificationViolation
from repro.graphs import line, random_connected, ring
from repro.protocols import SelfStabPif
from repro.runtime.daemons import DistributedRandomDaemon
from repro.runtime.simulator import Simulator
from repro.runtime.trace import StepRecord

from tests.core.helpers import S, cfg


class TestCycleReport:
    def test_pif_conditions(self) -> None:
        report = CycleReport(start_step=0)
        report.received.update({0, 1, 2})
        report.acked.update({1, 2})
        assert report.pif1_holds(3)
        assert report.pif2_holds(3)
        assert not report.pif1_holds(4)

    def test_ok_requires_completion_and_no_violation(self) -> None:
        report = CycleReport(start_step=0)
        assert not report.ok
        report.completed = True
        assert report.ok
        report.violations.append("boom")
        assert not report.ok


class TestHappyPath:
    def test_monitor_tracks_complete_cycle(self) -> None:
        net = line(4)
        pif = SnapPif.for_network(net)
        monitor = PifCycleMonitor(pif, net)
        sim = Simulator(pif, net, monitors=[monitor])
        sim.run(until=lambda _c: len(monitor.completed_cycles) >= 1)
        report = monitor.completed_cycles[0]
        assert report.received == set(net.nodes)
        assert report.acked == set(net.nodes) - {0}
        assert report.height == 3
        assert report.root_feedback_step is not None
        assert report.end_step is not None and report.end_step > report.start_step
        assert report.ok

    def test_active_cycle_visible_midway(self) -> None:
        net = line(4)
        pif = SnapPif.for_network(net)
        monitor = PifCycleMonitor(pif, net)
        sim = Simulator(pif, net, monitors=[monitor])
        sim.step()  # root B-action
        assert monitor.active_cycle is not None
        assert monitor.active_cycle.received == {0}

    def test_reports_reset_on_start(self) -> None:
        net = line(3)
        pif = SnapPif.for_network(net)
        monitor = PifCycleMonitor(pif, net)
        sim = Simulator(pif, net, monitors=[monitor])
        sim.step()
        monitor.on_start(sim.configuration)
        assert monitor.active_cycle is None


class TestCycleMemory:
    """Clean cycles share the monitor's sets; others keep their own."""

    def _clean_run(self, cycles: int):
        net = line(4)
        pif = SnapPif.for_network(net)
        monitor = PifCycleMonitor(pif, net)
        sim = Simulator(pif, net, monitors=[monitor])
        sim.run(until=lambda _c: monitor.completed_count >= cycles)
        return net, monitor

    def test_completed_count_tracks_completed_cycles(self) -> None:
        _net, monitor = self._clean_run(3)
        assert monitor.completed_count == 3
        assert len(monitor.completed_cycles) == 3

    def test_full_cycles_share_one_pair_of_sets(self) -> None:
        net, monitor = self._clean_run(2)
        first, second = monitor.completed_cycles
        assert first.received == set(net.nodes)
        assert first.acked == set(net.nodes) - {0}
        assert first.received is second.received
        assert first.acked is second.acked

    def test_aborted_and_partial_cycles_keep_their_own_sets(self) -> None:
        net, monitor = self._clean_run(1)
        full = monitor.completed_cycles[0]
        # Aborted: the root initiates, then corrects its own wave.
        monitor.on_step(None, StepRecord(10, {0: "B-action"}, 0), None)
        monitor.on_step(None, StepRecord(11, {0: "B-correction"}, 0), None)
        aborted = monitor.reports[-1]
        assert not aborted.completed
        assert aborted.received == {0}
        # Partial: initiated and still open.
        monitor.on_step(None, StepRecord(12, {0: "B-action"}, 0), None)
        partial = monitor.active_cycle
        assert partial is not None
        for report in (aborted, partial):
            assert isinstance(report.received, set)
            assert report.received is not full.received
            assert report.acked is not full.acked
        assert aborted.received is not partial.received
        assert monitor.completed_count == 1

    def test_violating_cycle_keeps_its_own_sets(self) -> None:
        sim, monitor = TestViolationDetection()._corrupted_selfstab_run()
        sim.run(max_steps=len(TestViolationDetection.SCHEDULE))
        first = monitor.completed_cycles[0]
        assert isinstance(first.received, set)
        assert first.received == {0, 1}


class TestViolationDetection:
    #: A legal distributed-daemon execution of the *self-stabilizing*
    #: baseline on the line 0-1-2-3-4, starting with a stale feedback
    #: chain on 2-3-4.  The wave 0 → 1 feeds back immediately — node 1
    #: sees node 2 "done" (stale F with Par = 1) — so the root completes
    #: the cycle although 2, 3, 4 never received the message.
    SCHEDULE = [
        {0: "B-action"},
        {1: "B-action"},
        {1: "F-action"},
        {0: "F-action"},
        {4: "C-action"},
        {3: "C-action"},
        {2: "C-action"},
        {1: "C-action"},
        {0: "C-action"},
    ]

    def _corrupted_selfstab_run(self):
        from repro.runtime.daemons import ReplayDaemon

        net = line(5)
        protocol = SelfStabPif(0, net.n)
        initial = cfg(
            S(Phase.C, par=None, level=0),
            S(Phase.C, par=0, level=1),
            S(Phase.F, par=1, level=2),
            S(Phase.F, par=2, level=3),
            S(Phase.F, par=3, level=4),
        )
        monitor = PifCycleMonitor(protocol, net)
        sim = Simulator(
            protocol,
            net,
            ReplayDaemon(self.SCHEDULE),
            configuration=initial,
            monitors=[monitor],
        )
        return sim, monitor

    def test_selfstab_first_wave_violates_pif1(self) -> None:
        sim, monitor = self._corrupted_selfstab_run()
        sim.run(max_steps=len(self.SCHEDULE))
        assert monitor.completed_cycles, "baseline wave should complete"
        first = monitor.completed_cycles[0]
        assert not first.ok
        assert first.received == {0, 1}
        assert any("[PIF1]" in v for v in first.violations)
        assert any("[PIF2]" in v for v in first.violations)

    def test_strict_mode_raises(self) -> None:
        sim, monitor = self._corrupted_selfstab_run()
        monitor.strict = True
        with pytest.raises(SpecificationViolation):
            sim.run(max_steps=len(self.SCHEDULE))

    def test_snap_pif_blocks_the_same_attack(self) -> None:
        """The same stale chain cannot fool the snap PIF: node 1's
        feedback needs the Fok wave, which needs Count_r = N, which
        needs everyone in the tree."""
        net = line(5)
        pif = SnapPif.for_network(net)
        initial = cfg(
            S(Phase.C, par=None, level=0),
            S(Phase.C, par=0, level=1),
            S(Phase.F, par=1, level=2),
            S(Phase.F, par=2, level=3),
            S(Phase.F, par=3, level=4),
        )
        monitor = PifCycleMonitor(pif, net, strict=True)
        sim = Simulator(pif, net, configuration=initial, monitors=[monitor])
        sim.run(
            until=lambda _c: len(monitor.completed_cycles) >= 1,
            max_steps=10_000,
        )
        assert monitor.completed_cycles
        assert monitor.completed_cycles[0].ok
        assert monitor.completed_cycles[0].received == set(net.nodes)

    def test_snap_pif_never_violates_under_fuzzing(self) -> None:
        for seed in range(15):
            net = random_connected(7, 0.3, seed=seed)
            pif = SnapPif.for_network(net)
            monitor = PifCycleMonitor(pif, net, strict=True)
            sim = Simulator(
                pif,
                net,
                DistributedRandomDaemon(0.5),
                configuration=pif.random_configuration(net, Random(seed)),
                seed=seed,
                monitors=[monitor],
            )
            sim.run(
                until=lambda _c: len(monitor.completed_cycles) >= 2,
                max_steps=30_000,
            )
            assert len(monitor.completed_cycles) >= 2
            assert monitor.all_cycles_ok()

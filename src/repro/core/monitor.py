"""Executable specification of the PIF scheme (Definition 2 + Specification 1).

:class:`PifCycleMonitor` observes a simulation and checks, for every
wave the root *initiates* (its ``B-action`` — the computation step the
specification quantifies over), the two PIF-cycle conditions:

* **[PIF1]** every ``p ≠ r`` receives the broadcast message ``m`` — i.e.
  executes a ``B-action`` whose chosen parent already belongs to the
  root's wave (provenance matters: a processor attaching to a *stale*
  broadcast tree has received garbage, not ``m``);
* **[PIF2]** by the time the root feeds back, every ``p ≠ r`` has sent an
  acknowledgment that reached the root through the wave tree — i.e.
  executed its ``F-action`` as a member of the wave.

A *snap-stabilizing* PIF satisfies both conditions for every initiated
wave, from **any** starting configuration.  The monitor therefore is the
oracle used by the randomized falsifier, the exhaustive model checker
and the baseline comparison (where the self-stabilizing PIF visibly
violates PIF1 on its first cycles).

The monitor also measures, per completed cycle, the steps/rounds/moves
between the initiating ``B-action`` and the return to the clean
configuration — the quantity bounded by ``5h + 5`` in Theorem 4 — plus
the height ``h`` of the tree actually built.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import AbstractSet, Protocol as TypingProtocol

from repro.core.state import Phase, PifState
from repro.errors import SpecificationViolation
from repro.runtime.network import Network
from repro.runtime.protocol import Context
from repro.runtime.state import Configuration
from repro.runtime.trace import StepRecord

__all__ = ["WaveProtocol", "CycleReport", "PifCycleMonitor"]

#: Non-root actions that demote a processor out of the wave.
_DEMOTIONS = ("B-correction", "F-correction")


class WaveProtocol(TypingProtocol):
    """What the monitor needs from a PIF-like protocol."""

    @property
    def root(self) -> int: ...

    def join_parent(self, ctx: Context) -> int | None:
        """The parent the node's B-action would choose in ``ctx``."""


@dataclass
class CycleReport:
    """Measurements and verdicts for one initiated PIF wave."""

    #: Step index of the initiating root B-action.
    start_step: int
    end_step: int | None = None
    #: Rounds elapsed from initiation to cycle completion (back to clean).
    rounds: int = 0
    moves: int = 0
    #: Processors that received ``m`` (root included).  Once a cycle
    #: completes with every processor received and acknowledged, this
    #: and :attr:`acked` become the monitor's shared frozensets, so a
    #: long run keeps O(1) memory per clean cycle.
    received: AbstractSet[int] = field(default_factory=set)
    #: Non-root processors whose acknowledgment joined the feedback.
    acked: AbstractSet[int] = field(default_factory=set)
    #: Height of the tree built during this wave.
    height: int = 0
    #: Step at which the root executed its F-action, if it did.
    root_feedback_step: int | None = None
    violations: list[str] = field(default_factory=list)
    completed: bool = False

    def pif1_holds(self, n: int) -> bool:
        """[PIF1]: all ``n`` processors received the broadcast."""
        return len(self.received) == n

    def pif2_holds(self, n: int) -> bool:
        """[PIF2]: all ``n - 1`` non-root processors acknowledged."""
        return len(self.acked) == n - 1

    @property
    def ok(self) -> bool:
        """The cycle completed with no recorded violation."""
        return self.completed and not self.violations


class PifCycleMonitor:
    """Online checker of the PIF specification (see module docstring).

    Parameters
    ----------
    protocol, network:
        The observed protocol (supplying root identity and the
        B-action parent-choice function) and its network.
    strict:
        When true, raise :class:`~repro.errors.SpecificationViolation`
        the moment a condition fails; otherwise record violations in the
        cycle reports (used when *measuring* failure rates of the
        non-snap baseline).
    quarantine:
        Nodes excluded from the judged wave subtree — the byzantine
        containment story.  A quarantined node is never admitted to the
        wave membership set, its [PIF1]/[PIF2] obligations are waived,
        and its demotions are not violations; the specification is
        judged *on the rest*.  Because wave membership is provenance
        (``parent ∈ wave``), a processor attaching *through* a
        quarantined relay has not received ``m`` from a trusted path
        and still counts against [PIF1] — quarantine shrinks the
        obligation set, never the evidence bar.  The root cannot be
        quarantined (there would be no waves to judge).
    """

    def __init__(
        self,
        protocol: WaveProtocol,
        network: Network,
        *,
        strict: bool = False,
        quarantine: "frozenset[int] | tuple[int, ...]" = (),
    ) -> None:
        self.protocol = protocol
        self.network = network
        self.strict = strict
        self.quarantine = frozenset(quarantine)
        if protocol.root in self.quarantine:
            raise ValueError(
                f"the root ({protocol.root}) cannot be quarantined — "
                f"no waves would remain to judge"
            )
        self.reports: list[CycleReport] = []
        self._completed: list[CycleReport] = []
        #: ``(network, all received, all acked)`` — the shared sets a
        #: full cycle's report points at, rebuilt when the topology
        #: changes.
        self._full: (
            tuple[Network, frozenset[int], frozenset[int]] | None
        ) = None
        self._active: CycleReport | None = None
        self._in_wave: set[int] = set()
        self._rounds_seen = 0
        self._feedback_done = False

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    @property
    def active_cycle(self) -> CycleReport | None:
        """The report of the wave in progress, if any."""
        return self._active

    @property
    def completed_cycles(self) -> list[CycleReport]:
        """Reports of all completed cycles so far."""
        return list(self._completed)

    @property
    def completed_count(self) -> int:
        """How many cycles have completed so far (O(1))."""
        return len(self._completed)

    def all_cycles_ok(self) -> bool:
        """Every *completed* cycle satisfied PIF1 and PIF2."""
        return all(r.ok for r in self.completed_cycles)

    # ------------------------------------------------------------------
    # Monitor interface
    # ------------------------------------------------------------------
    def on_start(self, configuration: Configuration) -> None:
        """Reset the per-run state (the monitor may be reused)."""
        self._active = None
        self._in_wave = set()
        self._rounds_seen = 0
        self._feedback_done = False

    def on_network(self, network: Network) -> None:
        """Follow a live topology change (chaos campaigns).

        The monitor judges [PIF1]/[PIF2] against ``network.nodes`` and
        reads parent choices through the network, so it must track the
        simulator's current topology.  The simulator restarts monitors
        (:meth:`on_start`) right after calling this — a wave straddling
        a topology change is not judged (the specification quantifies
        over waves initiated in a fixed topology).
        """
        self.network = network

    def on_step(
        self, before: Configuration, record: StepRecord, after: Configuration
    ) -> None:
        self._rounds_seen += record.rounds_completed
        root = self.protocol.root
        selection = record.selection

        if self._active is None:
            if selection.get(root) == "B-action":
                self._begin_wave(record)
            return

        report = self._active
        report.moves += len(selection)
        report.rounds += record.rounds_completed

        # Process the root first: if its action closes the wave (the
        # C-action after feedback, or an abort), the other moves of the
        # same step belong to no wave — a simultaneous non-root B-action
        # can only be attaching to stale garbage, since the root was not
        # broadcasting in the pre-step configuration.
        if root in selection:
            self._observe_root(selection[root], record, after)
            if self._active is None:
                return
        # Non-root moves in ascending node order.  Only joins,
        # acknowledgments and demotions bear on the verdict; the other
        # moves (Fok, Count, C) need no look.  Quarantined processors
        # are outside the judged subtree: they neither join the wave
        # nor owe receipt/acknowledgment, and their demotions are
        # expected, not violations.
        in_wave = self._in_wave
        quarantine = self.quarantine
        network = self.network
        join_parent = self.protocol.join_parent
        for node, action in sorted(selection.items()):
            if node == root:
                continue
            if action == "F-action":
                if node in in_wave:
                    report.acked.add(node)
            elif action == "B-action":
                if node in quarantine:
                    continue
                # A processor attaching to a stale tree did not receive
                # m; nothing to record (PIF1 accounting catches it).
                if join_parent(Context(node, network, before)) in in_wave:
                    in_wave.add(node)
                    report.received.add(node)
                    state = after[node]
                    if (
                        isinstance(state, PifState)
                        and state.level > report.height
                    ):
                        report.height = state.level
            elif action in _DEMOTIONS:
                if node in in_wave:
                    self._violate(
                        report,
                        f"wave member {node} was demoted by {action} "
                        f"(a legitimate wave member must never turn "
                        f"abnormal)",
                    )
                    in_wave.discard(node)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _begin_wave(self, record: StepRecord) -> None:
        report = CycleReport(start_step=record.index)
        report.received.add(self.protocol.root)
        self._in_wave = {self.protocol.root}
        self._feedback_done = False
        self._active = report
        self.reports.append(report)

    def _observe_root(
        self, action: str, record: StepRecord, after: Configuration
    ) -> None:
        assert self._active is not None
        report = self._active
        if action == "F-action":
            report.root_feedback_step = record.index
            expected = set(self.network.nodes) - self.quarantine
            missing = sorted(expected - report.received)
            if missing:
                self._violate(
                    report,
                    f"[PIF1] root fed back but {len(missing)} processor(s) "
                    f"never received m: {missing}",
                )
            missing = sorted(expected - {self.protocol.root} - report.acked)
            if missing:
                self._violate(
                    report,
                    f"[PIF2] root fed back without acknowledgment from "
                    f"{len(missing)} processor(s): {missing}",
                )
            self._feedback_done = True
        elif action == "C-action":
            if self._feedback_done:
                self._finish_wave(record)
            else:
                self._violate(report, "root cleaned without feeding back")
                self._abort_wave(record)
        elif action == "B-correction":
            self._violate(report, "root aborted the initiated wave (B-correction)")
            self._abort_wave(record)
        elif action == "B-action":
            self._violate(report, "root re-broadcast inside an open cycle")

    def _finish_wave(self, record: StepRecord) -> None:
        report = self._active
        assert report is not None
        report.end_step = record.index
        report.completed = True
        if not report.violations:
            full = self._full
            if full is None or full[0] is not self.network:
                received = frozenset(self.network.nodes) - self.quarantine
                full = (
                    self.network,
                    received,
                    received - {self.protocol.root},
                )
                self._full = full
            if report.received == full[1] and report.acked == full[2]:
                report.received = full[1]
                report.acked = full[2]
        self._completed.append(report)
        self._active = None
        self._in_wave = set()

    def _abort_wave(self, record: StepRecord) -> None:
        assert self._active is not None
        self._active.end_step = record.index
        self._active.completed = False
        self._active = None
        self._in_wave = set()

    def _violate(self, report: CycleReport, message: str) -> None:
        report.violations.append(message)
        if self.strict:
            raise SpecificationViolation(message)

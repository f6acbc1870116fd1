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

    def array_feed(self, protocol, network: Network, spec) -> bool:
        """Whether :meth:`on_step` can judge steps from ``record.columns``.

        True when the simulated ``protocol`` is this monitor's on the
        same network and its columnar ``spec`` names the columns its
        B-action writes with the parent ``join_parent`` picks on the
        pre-step configuration and the joiner's level
        (``ColumnarSpec.join_columns``).  The simulator then runs such
        steps on index arrays and calls :meth:`on_step` with ``before``
        and ``after`` set to ``None``.
        """
        return (
            protocol is self.protocol
            and network == self.network
            and getattr(spec, "join_columns", None) is not None
        )

    def on_step(
        self,
        before: Configuration | None,
        record: StepRecord,
        after: Configuration | None,
    ) -> None:
        self._rounds_seen += record.rounds_completed
        root = self.protocol.root
        selection = record.selection
        root_action = selection.get(root)

        if self._active is None:
            if root_action == "B-action":
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
        if root_action is not None:
            self._observe_root(root_action, record)
            if self._active is None:
                return
        if record.columns is not None:
            moves = self._moves_from_columns(record.columns)
        else:
            moves = self._moves_from_objects(selection, before, after)
        self._judge(report, *moves)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _moves_from_objects(self, selection, before, after):
        """The non-root moves that bear on the verdict, from the
        selection and the two configurations.

        Returns ``(acks, joiners, parents, levels, demotions)``: the
        F-action nodes, the non-quarantined B-action nodes ascending
        with the parent ``join_parent`` picks on ``before`` and their
        level in ``after``, and ``(node, action)`` for demotions,
        ascending.  Fok, Count and C moves need no look.
        """
        root = self.protocol.root
        quarantine = self.quarantine
        acks: list[int] = []
        joiners: list[int] = []
        demotions: list[tuple[int, str]] = []
        for node, action in sorted(selection.items()):
            if node == root:
                continue
            if action == "F-action":
                acks.append(node)
            elif action == "B-action":
                if node not in quarantine:
                    joiners.append(node)
            elif action in _DEMOTIONS:
                demotions.append((node, action))
        network = self.network
        join_parent = self.protocol.join_parent
        parents = [join_parent(Context(q, network, before)) for q in joiners]
        levels = []
        for q in joiners:
            state = after[q]
            levels.append(state.level if isinstance(state, PifState) else 0)
        return acks, joiners, parents, levels, demotions

    def _moves_from_columns(self, columns):
        """:meth:`_moves_from_objects` from an array step's action
        groups: a joiner's parent and level are the values its B-action
        group wrote to ``columns.join_columns``."""
        root = self.protocol.root
        quarantine = self.quarantine
        parent_col, level_col = columns.join_columns
        acks: list[int] = []
        joins: list[tuple[list[int], list[int], list[int]]] = []
        demotions: list[tuple[int, str]] = []
        for group in columns.groups:
            name = group.name
            if name == "F-action":
                acks.extend(group.nodes())
            elif name == "B-action":
                nodes = group.nodes()
                parents = group.values(parent_col)
                levels = group.values(level_col)
                if root in nodes or quarantine:
                    keep = [
                        i
                        for i, q in enumerate(nodes)
                        if q != root and q not in quarantine
                    ]
                    nodes = [nodes[i] for i in keep]
                    parents = [parents[i] for i in keep]
                    levels = [levels[i] for i in keep]
                joins.append((nodes, parents, levels))
            elif name in _DEMOTIONS:
                demotions.extend((q, name) for q in group.nodes() if q != root)
        if root in acks:
            acks.remove(root)
        if len(joins) == 1:
            joiners, parents, levels = joins[0]
        else:
            merged = sorted(
                item for nodes, ps, ls in joins for item in zip(nodes, ps, ls)
            )
            joiners = [q for q, _, _ in merged]
            parents = [p for _, p, _ in merged]
            levels = [lv for _, _, lv in merged]
        demotions.sort()
        return acks, joiners, parents, levels, demotions

    def _judge(self, report, acks, joiners, parents, levels, demotions):
        """Apply one step's non-root moves to the wave in progress.

        The verdict is that of walking the moves in ascending node
        order: a join counts when its parent is a wave member at that
        point of the walk.  A wave member demoted, or a node joining,
        at a lower id in the same step changes that, so such steps take
        the walk; otherwise every parent's membership is the pre-step
        one and the joins are judged together.  Quarantined processors
        are outside the judged subtree: they neither join the wave nor
        owe receipt/acknowledgment, and their demotions are expected,
        not violations (the callers leave them out of ``joiners``).
        """
        in_wave = self._in_wave
        # A node's own membership changes only through its own move,
        # so acknowledgments need no ordering.
        if acks:
            report.acked.update(in_wave.intersection(acks))
        demoted = [(q, action) for q, action in demotions if q in in_wave]
        ordered = bool(demoted)
        if joiners and not ordered:
            ordered = not set(joiners).isdisjoint(parents)
        if ordered:
            walk = sorted(
                [(q, 0, i) for i, q in enumerate(joiners)]
                + [(q, 1, action) for q, action in demoted]
            )
            for q, kind, item in walk:
                if kind == 0:
                    if parents[item] in in_wave:
                        self._join(report, [q], [levels[item]])
                elif q in in_wave:
                    self._violate(
                        report,
                        f"wave member {q} was demoted by {item} "
                        f"(a legitimate wave member must never turn "
                        f"abnormal)",
                    )
                    in_wave.discard(q)
            return
        if joiners:
            # A processor attaching to a stale tree did not receive m;
            # nothing to record (PIF1 accounting catches it).
            if in_wave.issuperset(parents):
                self._join(report, joiners, levels)
                return
            joined = [i for i, p in enumerate(parents) if p in in_wave]
            if joined:
                self._join(
                    report,
                    [joiners[i] for i in joined],
                    [levels[i] for i in joined],
                )

    def _join(self, report, nodes, levels) -> None:
        self._in_wave.update(nodes)
        report.received.update(nodes)
        top = max(levels)
        if top > report.height:
            report.height = top

    def _begin_wave(self, record: StepRecord) -> None:
        report = CycleReport(start_step=record.index)
        report.received.add(self.protocol.root)
        self._in_wave = {self.protocol.root}
        self._feedback_done = False
        self._active = report
        self.reports.append(report)

    def _observe_root(self, action: str, record: StepRecord) -> None:
        assert self._active is not None
        report = self._active
        if action == "F-action":
            report.root_feedback_step = record.index
            _, expected, expected_acks = self._full_sets()
            missing = sorted(expected - report.received)
            if missing:
                self._violate(
                    report,
                    f"[PIF1] root fed back but {len(missing)} processor(s) "
                    f"never received m: {missing}",
                )
            missing = sorted(expected_acks - report.acked)
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
            full = self._full_sets()
            if report.received == full[1] and report.acked == full[2]:
                report.received = full[1]
                report.acked = full[2]
        self._completed.append(report)
        self._active = None
        self._in_wave = set()

    def _full_sets(self) -> tuple[Network, frozenset[int], frozenset[int]]:
        """``(network, every judged node, every judged non-root node)``,
        rebuilt when the topology changes."""
        full = self._full
        if full is None or full[0] is not self.network:
            received = frozenset(self.network.nodes) - self.quarantine
            full = (self.network, received, received - {self.protocol.root})
            self._full = full
        return full

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

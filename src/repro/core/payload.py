"""Message-carrying PIF: broadcast a value ``V``, aggregate the feedback.

The paper's specification speaks of the root broadcasting a *message*
``m`` and collecting acknowledgments.  The core algorithm
(:mod:`repro.core.pif`) carries no application data — phases and counts
are the message in the shared-memory model.  This module extends it with
an explicit payload, which is what the applications (reliable broadcast,
reset, snapshot, distributed infimum) build on:

* the root's ``B-action`` additionally stamps the wave's value ``V``
  (taken from the protocol's *outbox*) into its ``msg`` variable;
* a joining processor's ``B-action`` copies its chosen parent's ``msg``
  — so ``msg`` provenance follows the B-tree exactly;
* every ``F-action`` computes an aggregated acknowledgment
  ``ack = combine([local_value(p), ack of each child])`` — by the
  ``BLeaf`` guard all children have fed back when a processor does, so
  the fold is well-defined; the root's ``ack`` after its own
  ``F-action`` is the wave's global result (e.g. a distributed infimum
  or a snapshot).

The snap property guarantees that, for every wave the root initiates,
each processor's ``msg`` equals ``V`` and every processor's local value
is folded into the root's ``ack`` exactly once.

Note: the outbox read makes the root's B-action *impure* with respect to
the protocol object (deliberately — applications swap the outbox between
waves).  Use the plain :class:`~repro.core.pif.SnapPif` for model
checking.

On the columnar engine the PIF core runs fully compiled
(:func:`~repro.core.pif.snap_pif_spec`); ``msg`` and ``ack`` are payload
fields of :data:`PAYLOAD_PIF_COLUMNS`, and three host hooks compute them
per action group: the root's B stamps the envelope, a joining B gathers
its new parent's ``msg``, and an F folds the acks of its children.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from random import Random
from typing import Callable, Sequence

from repro.columnar.expr import And, Const, Eq, Nbr, NodeId
from repro.columnar.schema import ColumnSchema
from repro.core.pif import SnapPif, snap_pif_spec
from repro.core.state import (
    PHASE_CODES,
    PIF_COLUMNS,
    Phase,
    PifConstants,
    PifState,
)
from repro.runtime.network import Network
from repro.runtime.protocol import Action, Context

__all__ = [
    "Envelope",
    "NO_ACK",
    "PAYLOAD_PIF_COLUMNS",
    "PayloadPifState",
    "PayloadSnapPif",
    "TaggedAck",
]


class _NoAck:
    """Sentinel for 'no acknowledgment computed yet'."""

    _instance: "_NoAck | None" = None

    def __new__(cls) -> "_NoAck":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "NO_ACK"


#: Placeholder stored in ``ack`` before a processor's F-action.
NO_ACK = _NoAck()


class Envelope:
    """The wave's message wrapper, compared by *identity*.

    The root wraps each broadcast value in a fresh ``Envelope``; joiners
    copy the reference along the B-tree.  Holding the current envelope
    object is therefore proof of having received *this* wave's message —
    garbage states cannot forge it even if they happen to contain an
    equal value.
    """

    __slots__ = ("value",)

    def __init__(self, value: object) -> None:
        self.value = value

    def __repr__(self) -> str:
        return f"Envelope({self.value!r})"


@dataclass(frozen=True, slots=True)
class TaggedAck:
    """An acknowledgment stamped with the wave epoch that produced it.

    Stale processors (members of garbage broadcast trees in the initial
    configuration) can legally execute F-actions while a wave is in
    flight; their folds would otherwise feed arbitrary garbage to the
    application's ``combine``.  Acks are therefore tagged with the
    current wave epoch and a fold only consumes child acks carrying the
    *same* epoch — application combine functions never see stale data.
    (The root's result needs no such protection in principle — the snap
    property keeps garbage out of the legal tree — but the stale trees'
    own folds run the same application code.)
    """

    epoch: int
    value: object


@dataclass(frozen=True, slots=True)
class PayloadPifState(PifState):
    """PIF state extended with the broadcast value and the feedback fold."""

    msg: object = None
    ack: object = NO_ACK


#: The columnar layout of :class:`PayloadPifState`: the five PIF
#: columns, plus ``msg`` and ``ack`` held by reference.
PAYLOAD_PIF_COLUMNS = ColumnSchema(
    state_type=PayloadPifState,
    fields=PIF_COLUMNS.fields,
    payload=("msg", "ack"),
)

#: Fold-body predicate of an F-action's fold: neighbor ``q`` is a child
#: of the folding node that has fed back (``Par_q = p ∧ Pif_q = F``).
_CHILD_FED_BACK = And(
    Eq(Nbr("par"), NodeId()), Eq(Nbr("pif"), Const(PHASE_CODES[Phase.F]))
)


def _local_value_default(node: int) -> object:
    return node


def _combine_default(values: Sequence[object]) -> object:
    return tuple(values)


class PayloadSnapPif(SnapPif):
    """Snap PIF carrying a broadcast value and folding feedback values.

    Parameters
    ----------
    constants:
        Protocol constants (see :class:`~repro.core.state.PifConstants`).
    local_value:
        Per-node contribution folded into the feedback (default: the
        node identifier).
    combine:
        Fold over ``[local_value(p), ack_child_1, …]`` computed at each
        F-action (default: tuple packing — a raw collection).
    """

    name = "snap-pif-payload"

    def __init__(
        self,
        constants: PifConstants,
        *,
        local_value: Callable[[int], object] | None = None,
        combine: Callable[[Sequence[object]], object] | None = None,
    ) -> None:
        super().__init__(constants)
        self.local_value = local_value or _local_value_default
        self.combine = combine or _combine_default
        #: Value stamped on the next root B-action.
        self.outbox: object = None
        #: Number of waves the root initiated (application bookkeeping).
        self.waves_started = 0
        #: Envelope of the wave in flight (identity = membership proof).
        self._current_envelope: Envelope | None = None
        self._root_program = tuple(
            self._wrap(a, is_root=True) for a in self._root_program
        )
        self._non_root_program = tuple(
            self._wrap(a, is_root=False) for a in self._non_root_program
        )

    # ------------------------------------------------------------------
    # Program decoration
    # ------------------------------------------------------------------
    def _wrap(self, action: Action, *, is_root: bool) -> Action:
        base = action.statement

        if action.name == "B-action" and is_root:

            def root_b(ctx: Context) -> PayloadPifState:
                state = base(ctx)
                assert isinstance(state, PayloadPifState)
                self.waves_started += 1
                self._current_envelope = Envelope(self.outbox)
                return state.replace(msg=self._current_envelope, ack=NO_ACK)

            return Action(action.name, action.guard, root_b, action.correction)

        if action.name == "B-action":

            def join_b(ctx: Context) -> PayloadPifState:
                state = base(ctx)
                assert isinstance(state, PayloadPifState)
                assert state.par is not None
                parent = ctx.neighbor_state(state.par)
                assert isinstance(parent, PayloadPifState)
                return state.replace(msg=parent.msg, ack=NO_ACK)

            return Action(action.name, action.guard, join_b, action.correction)

        if action.name == "F-action":

            def feedback(ctx: Context) -> PayloadPifState:
                state = base(ctx)
                assert isinstance(state, PayloadPifState)
                epoch = self.waves_started
                # Stale processors (garbage broadcast trees) legally
                # execute F-actions too; only holders of the current
                # wave's envelope (received through B-actions, compared
                # by identity) take part in the application fold —
                # neither ``local_value`` nor ``combine`` runs for
                # anything stale.
                if (
                    self._current_envelope is None
                    or state.msg is not self._current_envelope
                ):
                    return state.replace(ack=NO_ACK)
                values: list[object] = [self.local_value(ctx.node)]
                for _q, sq in ctx.neighbor_states():
                    assert isinstance(sq, PayloadPifState)
                    if (
                        sq.par == ctx.node
                        and sq.pif is Phase.F
                        and isinstance(sq.ack, TaggedAck)
                        and sq.ack.epoch == epoch
                    ):
                        values.append(sq.ack.value)
                return state.replace(
                    ack=TaggedAck(epoch, self.combine(values))
                )

            return Action(action.name, action.guard, feedback, action.correction)

        return action

    # ------------------------------------------------------------------
    # Columnar form
    # ------------------------------------------------------------------
    def columnar_spec(self):
        """The compiled PIF core plus three payload host hooks.

        Guards and the integer statements are :func:`snap_pif_spec`
        unchanged — the wrapped actions read and write the same five
        columns.  ``msg`` and ``ack`` are payload fields, computed per
        action group by :meth:`_stamp_host` (root B), :meth:`_join_host`
        (B elsewhere) and :meth:`_fold_host` (every F), which do what
        :meth:`_wrap`'s statements do, node for node.
        """
        if type(self) is not PayloadSnapPif:
            return None
        hosts = {
            ("root", "B-action"): self._stamp_host,
            ("node", "B-action"): self._join_host,
            ("root", "F-action"): self._fold_host,
            ("node", "F-action"): self._fold_host,
        }
        spec = snap_pif_spec(self.constants)
        programs = {
            role: tuple(
                replace(a, host=hosts.get((role, a.name))) for a in program
            )
            for role, program in spec.programs.items()
        }
        return replace(spec, schema=PAYLOAD_PIF_COLUMNS, programs=programs)

    def _stamp_host(self, group) -> dict[str, object]:
        """Root B: start a wave and stamp its fresh envelope."""
        self.waves_started += 1
        self._current_envelope = Envelope(self.outbox)
        return {
            "msg": group.fill(self._current_envelope),
            "ack": group.fill(NO_ACK),
        }

    def _join_host(self, group) -> dict[str, object]:
        """Joining B: copy the chosen parent's ``msg`` (one gather)."""
        msg = group.payload["msg"]
        return {
            "msg": group.take(msg, group.new["par"]),
            "ack": group.fill(NO_ACK),
        }

    def _fold_host(self, group) -> dict[str, object]:
        """F: fold holders of the current envelope, ``NO_ACK`` elsewhere.

        A holder's fold is ``[local_value(p)]`` plus the acks of its
        children that fed back in this epoch, in local order — the list
        :meth:`_wrap`'s statement builds — so neither ``local_value``
        nor ``combine`` ever runs for a stale node or sees a stale ack.
        """
        nodes = group.nodes
        acks: list[object] = [NO_ACK] * len(nodes)
        envelope = self._current_envelope
        if envelope is None:
            return {"ack": acks}
        msg = group.payload["msg"]
        holders = [i for i, p in enumerate(nodes) if msg[p] is envelope]
        if not holders:
            return {"ack": acks}
        epoch = self.waves_started
        ack = group.payload["ack"]
        children: dict[int, list[object]] = {}
        for p, q in zip(
            *group.edges([nodes[i] for i in holders], _CHILD_FED_BACK)
        ):
            tagged = ack[q]
            if isinstance(tagged, TaggedAck) and tagged.epoch == epoch:
                children.setdefault(p, []).append(tagged.value)
        for i in holders:
            p = nodes[i]
            values = [self.local_value(p)]
            values.extend(children.get(p, ()))
            acks[i] = TaggedAck(epoch, self.combine(values))
        return {"ack": acks}

    # ------------------------------------------------------------------
    # State constructors
    # ------------------------------------------------------------------
    def initial_state(self, node: int, network: Network) -> PayloadPifState:
        base = super().initial_state(node, network)
        return PayloadPifState(
            pif=base.pif,
            par=base.par,
            level=base.level,
            count=base.count,
            fok=base.fok,
            msg=None,
            ack=NO_ACK,
        )

    def random_state(
        self, node: int, network: Network, rng: Random
    ) -> PayloadPifState:
        base = super().random_state(node, network, rng)
        stale_msg = rng.choice((None, "stale-message", -1))
        stale_ack = rng.choice((NO_ACK, "stale-ack", 0))
        return PayloadPifState(
            pif=base.pif,
            par=base.par,
            level=base.level,
            count=base.count,
            fok=base.fok,
            msg=stale_msg,
            ack=stale_ack,
        )

    # ------------------------------------------------------------------
    # Application-facing accessors
    # ------------------------------------------------------------------
    def root_result(self, configuration) -> object:
        """The root's aggregated ``ack`` (valid after its F-action).

        Returns the unwrapped fold value of the most recent wave, or
        :data:`NO_ACK` if the root holds no acknowledgment for it.
        """
        state = configuration[self.constants.root]
        assert isinstance(state, PayloadPifState)
        if (
            isinstance(state.ack, TaggedAck)
            and state.ack.epoch == self.waves_started
        ):
            return state.ack.value
        return NO_ACK

    def delivered_messages(self, configuration) -> dict[int, object]:
        """Each node's currently held ``msg`` (envelopes unwrapped).

        A node that never received a wave (or holds pre-fault garbage)
        reports its raw ``msg`` contents.
        """
        result: dict[int, object] = {}
        for node, state in enumerate(configuration):
            assert isinstance(state, PayloadPifState)
            msg = state.msg
            result[node] = msg.value if isinstance(msg, Envelope) else msg
        return result

"""Baseline: a self-stabilizing (but **not** snap-stabilizing) PIF.

The paper's *Contribution* section contrasts snap-stabilization with the
prior self-stabilizing PIFs for arbitrary networks [12, 23]: a
self-stabilizing PIF only guarantees that *eventually* the waves it runs
are correct — when a processor starts a wave to propagate a value ``V``
before stabilization has completed, some processors may never receive
``V`` even though the root collects what looks like a complete feedback.

The texts of [12, 23] are not available offline, so this module is a
faithful reconstruction of that *class* of protocol (documented
substitution, DESIGN.md §2): it keeps the same B/F/C wave skeleton,
parent/level variables, minimum-level parent choice and
``GoodPif``/``GoodLevel`` corrections as the snap PIF, but drops the
three mechanisms that produce snap-stabilization:

* no ``Count``/``Fok`` machinery and no knowledge of ``N`` — the root
  feeds back when its local neighborhood looks finished;
* no ``Leaf`` guard on joining — a processor with stale children can
  enter a wave;
* feedback relies on neighbors being "done" (``Pif ≠ C``), which stale F
  processors satisfy *without having received the message*.

Consequences, measured in experiment E7: from a corrupted configuration
the first wave(s) can violate [PIF1]; after the corrections have cleaned
the garbage (self-stabilization), every later wave is a correct PIF
cycle.
"""

from __future__ import annotations

from random import Random
from typing import Sequence

from repro.columnar.expr import (
    ActionSpec,
    Add,
    And,
    ColumnarSpec,
    Const,
    Eq,
    Lt,
    Nbr,
    NbrAll,
    NbrArgMinFirst,
    NbrExists,
    NbrId,
    NbrMin,
    Ne,
    NodeId,
    Not,
    Or,
    Own,
    Ptr,
)
from repro.core.state import PIF_COLUMNS, Phase, PifState
from repro.errors import ProtocolError
from repro.runtime.network import Network
from repro.runtime.protocol import Action, Context, Protocol

__all__ = ["SelfStabPif"]


class SelfStabPif(Protocol):
    """Self-stabilizing PIF for arbitrary rooted networks (non-snap baseline).

    Reuses :class:`~repro.core.state.PifState` with ``count`` pinned to 1
    and ``fok`` pinned to ``False`` (the fields exist but are unused), so
    the fault injector and the cycle monitor work unchanged.
    """

    name = "self-stab-pif"

    def __init__(self, root: int, n: int, l_max: int | None = None) -> None:
        super().__init__()
        if n < 1:
            raise ProtocolError(f"N must be positive, got {n}")
        self.root = root
        self.n = n
        self.l_max = l_max if l_max is not None else max(1, n - 1)
        self._root_program = self._build_root_program()
        self._non_root_program = self._build_non_root_program()

    # ------------------------------------------------------------------
    # State helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _own(ctx: Context) -> PifState:
        state = ctx.state
        assert isinstance(state, PifState)
        return state

    def _parent_state(self, ctx: Context) -> PifState:
        own = self._own(ctx)
        assert own.par is not None
        ps = ctx.neighbor_state(own.par)
        assert isinstance(ps, PifState)
        return ps

    # ------------------------------------------------------------------
    # Predicates
    # ------------------------------------------------------------------
    def _normal(self, ctx: Context) -> bool:
        """``GoodPif ∧ GoodLevel`` — the only well-formedness this baseline checks."""
        if ctx.node == self.root:
            return True
        own = self._own(ctx)
        if own.pif is Phase.C:
            return True
        ps = self._parent_state(ctx)
        if ps.pif is not own.pif and ps.pif is not Phase.B:
            return False
        return own.level == ps.level + 1

    def _potential(self, ctx: Context) -> list[int]:
        """Minimum-level broadcasting neighbors (no Fok filter, no Leaf guard).

        Each neighbor state is read once; the result is memoized in the
        per-configuration evaluation cache when the context carries one.
        """
        cache = ctx.cache
        if cache is not None:
            hit = cache.get((ctx.node, "ss_potential"))
            if hit is not None:
                return hit
        candidates = []
        for q, sq in ctx.neighbor_states():
            assert isinstance(sq, PifState)
            if sq.pif is Phase.B and sq.par != ctx.node and sq.level < self.l_max:
                candidates.append((q, sq.level))
        if candidates:
            best = min(level for _q, level in candidates)
            result = [q for q, level in candidates if level == best]
        else:
            result = []
        if cache is not None:
            cache[(ctx.node, "ss_potential")] = result
        return result

    def join_parent(self, ctx: Context) -> int | None:
        """The parent B-action would pick (cycle-monitor hook)."""
        candidates = self._potential(ctx)
        return candidates[0] if candidates else None

    def _neighborhood_done(self, ctx: Context) -> bool:
        """Every neighbor looks finished with respect to ``p``.

        A neighbor is "done" when it is active (``Pif ≠ C``) and, if it
        designates ``p`` as its parent, it has fed back.  This is the
        guard that a stale F processor satisfies **without ever having
        received the message** — the source of the baseline's first-wave
        delivery failures.
        """
        own = self._own(ctx)
        for q, sq in ctx.neighbor_states():
            assert isinstance(sq, PifState)
            if q == own.par:
                continue
            if sq.pif is Phase.C:
                return False
            if sq.par == ctx.node and sq.pif is not Phase.F:
                return False
        return True

    def _leaf(self, ctx: Context) -> bool:
        for _q, sq in ctx.neighbor_states():
            assert isinstance(sq, PifState)
            if sq.pif is not Phase.C and sq.par == ctx.node:
                return False
        return True

    def _b_free(self, ctx: Context) -> bool:
        return all(
            sq.pif is not Phase.B  # type: ignore[union-attr]
            for _q, sq in ctx.neighbor_states()
        )

    # ------------------------------------------------------------------
    # Programs
    # ------------------------------------------------------------------
    def _build_root_program(self) -> tuple[Action, ...]:
        def broadcast_guard(ctx: Context) -> bool:
            own = self._own(ctx)
            return own.pif is Phase.C and all(
                sq.pif is Phase.C  # type: ignore[union-attr]
                for _q, sq in ctx.neighbor_states()
            )

        def feedback_guard(ctx: Context) -> bool:
            own = self._own(ctx)
            return own.pif is Phase.B and self._neighborhood_done(ctx)

        def cleaning_guard(ctx: Context) -> bool:
            own = self._own(ctx)
            return own.pif is Phase.F and all(
                sq.pif is Phase.C  # type: ignore[union-attr]
                for _q, sq in ctx.neighbor_states()
            )

        return (
            Action(
                "B-action",
                broadcast_guard,
                lambda ctx: self._own(ctx).replace(pif=Phase.B),
            ),
            Action(
                "F-action",
                feedback_guard,
                lambda ctx: self._own(ctx).replace(pif=Phase.F),
            ),
            Action(
                "C-action",
                cleaning_guard,
                lambda ctx: self._own(ctx).replace(pif=Phase.C),
            ),
        )

    def _build_non_root_program(self) -> tuple[Action, ...]:
        def broadcast_guard(ctx: Context) -> bool:
            # No Leaf guard: joining with stale children is allowed —
            # the key difference from the snap PIF.
            return self._own(ctx).pif is Phase.C and bool(self._potential(ctx))

        def broadcast_statement(ctx: Context) -> PifState:
            parent = self.join_parent(ctx)
            if parent is None:
                raise ProtocolError(
                    f"B-action at node {ctx.node} with empty potential set"
                )
            level = ctx.neighbor_state(parent).level + 1  # type: ignore[union-attr]
            return self._own(ctx).replace(
                pif=Phase.B, par=parent, level=level
            )

        def feedback_guard(ctx: Context) -> bool:
            own = self._own(ctx)
            return (
                own.pif is Phase.B
                and self._normal(ctx)
                and self._neighborhood_done(ctx)
            )

        def cleaning_guard(ctx: Context) -> bool:
            own = self._own(ctx)
            return (
                own.pif is Phase.F
                and self._normal(ctx)
                and self._leaf(ctx)
                and self._b_free(ctx)
            )

        def abnormal_b(ctx: Context) -> bool:
            return self._own(ctx).pif is Phase.B and not self._normal(ctx)

        def abnormal_f(ctx: Context) -> bool:
            return self._own(ctx).pif is Phase.F and not self._normal(ctx)

        return (
            Action("B-action", broadcast_guard, broadcast_statement),
            Action(
                "F-action",
                feedback_guard,
                lambda ctx: self._own(ctx).replace(pif=Phase.F),
            ),
            Action(
                "C-action",
                cleaning_guard,
                lambda ctx: self._own(ctx).replace(pif=Phase.C),
            ),
            Action(
                "B-correction",
                abnormal_b,
                lambda ctx: self._own(ctx).replace(pif=Phase.F),
                correction=True,
            ),
            Action(
                "F-correction",
                abnormal_f,
                lambda ctx: self._own(ctx).replace(pif=Phase.C),
                correction=True,
            ),
        )

    # ------------------------------------------------------------------
    # Columnar form
    # ------------------------------------------------------------------
    def columnar_spec(self) -> ColumnarSpec | None:
        """The baseline's guards in guard-expression IR.

        Reuses ``PIF_COLUMNS`` (``count``/``fok`` stay pinned — no
        action ever writes them).  Phase codes: B=0, F=1, C=2.
        """
        if type(self) is not SelfStabPif:
            return None
        B, F, C = 0, 1, 2
        is_b = Eq(Own("pif"), Const(B))
        is_f = Eq(Own("pif"), Const(F))
        is_c = Eq(Own("pif"), Const(C))
        all_c = NbrAll(Eq(Nbr("pif"), Const(C)))
        # Potential_p: broadcasting neighbors not pointing at p, below
        # the level cap (no Fok filter, no Leaf guard — the baseline).
        pot = And(
            Eq(Nbr("pif"), Const(B)),
            Ne(Nbr("par"), NodeId()),
            Lt(Nbr("level"), Const(self.l_max)),
        )
        # _neighborhood_done: every q is either p's parent, or active
        # (Pif ≠ C) and — when it designates p — already fed back.  The
        # root's par encodes as -1, which no neighbor id equals, so the
        # same formula serves both roles.
        done = NbrAll(
            Or(
                Eq(NbrId(), Own("par")),
                And(
                    Ne(Nbr("pif"), Const(C)),
                    Or(Ne(Nbr("par"), NodeId()), Eq(Nbr("pif"), Const(F))),
                ),
            )
        )
        leaf = Not(
            NbrExists(And(Ne(Nbr("pif"), Const(C)), Eq(Nbr("par"), NodeId())))
        )
        b_free = Not(NbrExists(Eq(Nbr("pif"), Const(B))))
        # GoodPif ∧ GoodLevel (trivially true in phase C).
        parent_pif = Ptr("par", "pif")
        normal = Or(
            is_c,
            And(
                Or(Eq(parent_pif, Own("pif")), Eq(parent_pif, Const(B))),
                Eq(Own("level"), Add(Ptr("par", "level"), Const(1))),
            ),
        )
        root_actions = (
            ActionSpec("B-action", And(is_c, all_c), {"pif": Const(B)}),
            ActionSpec("F-action", And(is_b, done), {"pif": Const(F)}),
            ActionSpec("C-action", And(is_f, all_c), {"pif": Const(C)}),
        )
        node_actions = (
            ActionSpec(
                "B-action",
                And(is_c, NbrExists(pot)),
                {
                    "pif": Const(B),
                    "par": NbrArgMinFirst(Nbr("level"), where=pot),
                    "level": Add(NbrMin(Nbr("level"), where=pot), Const(1)),
                },
            ),
            ActionSpec("F-action", And(is_b, normal, done), {"pif": Const(F)}),
            ActionSpec(
                "C-action",
                And(is_f, normal, leaf, b_free),
                {"pif": Const(C)},
            ),
            ActionSpec(
                "B-correction", And(is_b, Not(normal)), {"pif": Const(F)}
            ),
            ActionSpec(
                "F-correction", And(is_f, Not(normal)), {"pif": Const(C)}
            ),
        )
        root = self.root
        return ColumnarSpec(
            schema=PIF_COLUMNS,
            programs={"root": root_actions, "node": node_actions},
            roles=lambda p: "root" if p == root else "node",
            bulk_role="node",
            # ``par`` is the first minimal-level member of the pre-step
            # Potential_p in local order: join_parent.
            join_columns=("par", "level"),
        )

    # ------------------------------------------------------------------
    # Protocol interface
    # ------------------------------------------------------------------
    def actions(self, node: int, network: Network) -> Sequence[Action]:
        self._check_network(network)
        if node == self.root:
            return self._root_program
        return self._non_root_program

    def initial_state(self, node: int, network: Network) -> PifState:
        self._check_network(network)
        if node == self.root:
            return PifState(pif=Phase.C, par=None, level=0, count=1, fok=False)
        return PifState(
            pif=Phase.C,
            par=network.neighbors(node)[0],
            level=1,
            count=1,
            fok=False,
        )

    def random_state(self, node: int, network: Network, rng: Random) -> PifState:
        self._check_network(network)
        phase = rng.choice((Phase.B, Phase.F, Phase.C))
        if node == self.root:
            return PifState(pif=phase, par=None, level=0, count=1, fok=False)
        return PifState(
            pif=phase,
            par=rng.choice(network.neighbors(node)),
            level=rng.randint(1, self.l_max),
            count=1,
            fok=False,
        )

    def _check_network(self, network: Network) -> None:
        if network.n != self.n:
            raise ProtocolError(
                f"protocol configured for N={self.n} but network has "
                f"{network.n} processors"
            )

"""The snap-stabilizing PIF protocol (the paper's contribution).

:class:`SnapPif` wires the per-node programs of Algorithms 1 and 2 into
the :class:`~repro.runtime.protocol.Protocol` interface so it can run
under any daemon of :mod:`repro.runtime.daemons`, be fuzzed from
arbitrary configurations, and be exhaustively model checked.

Quick start::

    from repro import PifCycleMonitor, Simulator, SnapPif, line

    net = line(8)
    protocol = SnapPif.for_network(net)        # root = 0, N known at root
    monitor = PifCycleMonitor(protocol, net)
    sim = Simulator(protocol, net, monitors=[monitor])
    sim.run(until=lambda c: monitor.completed_count >= 1)
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
    Le,
    Lt,
    Min2,
    Nbr,
    NbrAll,
    NbrArgMinFirst,
    NbrExists,
    NbrMin,
    NbrSum,
    Ne,
    NodeId,
    Not,
    Or,
    Own,
    Ptr,
)
from repro.core.actions import non_root_program, root_program
from repro.core.macros import chosen_parent
from repro.core.state import PIF_COLUMNS, Phase, PifConstants, PifState
from repro.errors import ProtocolError
from repro.runtime.network import Network
from repro.runtime.protocol import Action, Context, Protocol
from repro.runtime.state import Configuration

__all__ = ["SnapPif", "snap_pif_spec"]


def snap_pif_spec(constants: PifConstants) -> ColumnarSpec:
    """Algorithms 1 and 2 as guard-expression IR.

    The declarative form of what ``snap_pif_kernel.py`` used to
    hand-transcribe: every guard is a boolean combination of own reads,
    parent gathers (``Par_p ∈ Neig_p``) and neighborhood folds.
    Subexpressions are shared *as objects* (``Sum_p``, ``Potential_p``
    membership, ``Normal``…) so both evaluators fold each of them once
    per node.  Phase codes are fixed by ``PIF_COLUMNS``: B=0, F=1, C=2.
    """
    k = constants
    B, F, C = 0, 1, 2
    is_b = Eq(Own("pif"), Const(B))
    is_f = Eq(Own("pif"), Const(F))
    is_c = Eq(Own("pif"), Const(C))
    n_is_b = Eq(Nbr("pif"), Const(B))
    child = Eq(Nbr("par"), NodeId())
    # Sum_p = 1 + Σ Count_q over B-children at the right level that have
    # not been counted yet (¬Fok_q).
    sum_member = And(
        n_is_b,
        child,
        Eq(Nbr("level"), Add(Own("level"), Const(1))),
        Not(Nbr("fok")),
    )
    sums = Add(Const(1), NbrSum(Nbr("count"), where=sum_member))
    all_clean = NbrAll(Eq(Nbr("pif"), Const(C)))
    has_b = NbrExists(n_is_b)
    n_prime = Const(k.n_prime)
    count_cap = Min2(sums, n_prime)

    # --- Algorithm 1: the root -------------------------------------
    good_r = And(
        Or(Not(Own("fok")), Eq(Own("count"), Const(k.n))),
        Or(Own("fok"), Le(Own("count"), sums)),
    )
    root_actions = [
        ActionSpec(
            "B-action",
            And(is_c, all_clean),
            {
                "pif": Const(B),
                "count": Const(1),
                "fok": Const(1 if k.n == 1 else 0),
            },
        ),
        ActionSpec(
            "F-action",
            And(is_b, good_r, Own("fok"), Not(has_b)),
            {"pif": Const(F)},
        ),
        ActionSpec("C-action", And(is_f, all_clean), {"pif": Const(C)}),
        ActionSpec(
            "Count-action",
            And(
                is_b,
                good_r,
                Not(Own("fok")),
                Or(Lt(Own("count"), count_cap), Eq(sums, Const(k.n))),
            ),
            {"count": count_cap, "fok": Eq(sums, Const(k.n))},
        ),
    ]
    if k.corrections:
        root_actions.append(
            ActionSpec("B-correction", And(is_b, Not(good_r)), {"pif": Const(C)})
        )

    # --- Algorithm 2: everyone else --------------------------------
    prepot_terms = [n_is_b, Not(child), Lt(Nbr("level"), Const(k.l_max))]
    if k.fok_join_guard:
        prepot_terms.append(Not(Nbr("fok")))
    prepot = And(*prepot_terms)
    has_prepot = NbrExists(prepot)
    has_active_child = NbrExists(And(Ne(Nbr("pif"), Const(C)), child))
    has_b_child = NbrExists(And(n_is_b, child))
    parent_pif = Ptr("par", "pif")
    parent_fok = Ptr("par", "fok")
    good_level = Eq(Own("level"), Add(Ptr("par", "level"), Const(1)))
    normal_b = And(
        Eq(parent_pif, Const(B)),
        good_level,
        Not(And(Own("fok"), Not(parent_fok))),
        Or(Own("fok"), Le(Own("count"), sums)),
    )
    normal_f = And(
        Or(Eq(parent_pif, Const(F)), Eq(parent_pif, Const(B))),
        good_level,
        Not(And(Eq(parent_pif, Const(B)), Not(parent_fok))),
    )
    b_guard = [is_c, has_prepot]
    if k.leaf_guard:
        b_guard.append(Not(has_active_child))
    node_actions = [
        ActionSpec(
            "B-action",
            And(*b_guard),
            {
                "pif": Const(B),
                # min_{≻p}(Potential_p): first minimal-level member in
                # local order, level = that minimum + 1.
                "par": NbrArgMinFirst(Nbr("level"), where=prepot),
                "level": Add(NbrMin(Nbr("level"), where=prepot), Const(1)),
                "count": Const(1),
                "fok": Const(0),
            },
        ),
        ActionSpec(
            "Fok-action",
            And(is_b, normal_b, Ne(Own("fok"), parent_fok)),
            {"fok": Const(1)},
        ),
        ActionSpec(
            "F-action",
            And(is_b, normal_b, Own("fok"), Not(has_b_child)),
            {"pif": Const(F)},
        ),
        ActionSpec(
            "C-action",
            And(is_f, normal_f, Not(has_active_child), Not(has_b)),
            {"pif": Const(C)},
        ),
        ActionSpec(
            "Count-action",
            And(is_b, normal_b, Not(Own("fok")), Lt(Own("count"), count_cap)),
            {"count": count_cap},
        ),
    ]
    if k.corrections:
        node_actions.append(
            ActionSpec(
                "B-correction", And(is_b, Not(normal_b)), {"pif": Const(F)}
            )
        )
        node_actions.append(
            ActionSpec(
                "F-correction", And(is_f, Not(normal_f)), {"pif": Const(C)}
            )
        )

    root = k.root
    return ColumnarSpec(
        schema=PIF_COLUMNS,
        programs={"root": tuple(root_actions), "node": tuple(node_actions)},
        roles=lambda p: "root" if p == root else "node",
        bulk_role="node",
    )


class SnapPif(Protocol):
    """Snap-stabilizing PIF for arbitrary rooted networks (ICDCS 2002)."""

    name = "snap-pif"

    def __init__(self, constants: PifConstants) -> None:
        super().__init__()
        self.constants = constants
        self._root_program = root_program(constants)
        self._non_root_program = non_root_program(constants)

    @classmethod
    def for_network(
        cls,
        network: Network,
        root: int = 0,
        *,
        n_prime: int | None = None,
        l_max: int | None = None,
        leaf_guard: bool = True,
        fok_join_guard: bool = True,
        corrections: bool = True,
    ) -> "SnapPif":
        """Instantiate with the canonical constants for ``network``."""
        return cls(
            PifConstants.for_network(
                network,
                root,
                n_prime=n_prime,
                l_max=l_max,
                leaf_guard=leaf_guard,
                fok_join_guard=fok_join_guard,
                corrections=corrections,
            )
        )

    @property
    def root(self) -> int:
        """The initiator ``r``."""
        return self.constants.root

    # ------------------------------------------------------------------
    # Protocol interface
    # ------------------------------------------------------------------
    def actions(self, node: int, network: Network) -> Sequence[Action]:
        self._check_network(network)
        if node == self.constants.root:
            return self._root_program
        return self._non_root_program

    def initial_state(self, node: int, network: Network) -> PifState:
        """The normal starting configuration has ``Pif_p = C`` everywhere.

        The remaining variables are irrelevant in phase ``C``; they are
        set to arbitrary in-domain values (``par`` = locally smallest
        neighbor, ``level`` = 1, ``count`` = 1).
        """
        self._check_network(network)
        if node == self.constants.root:
            return PifState(pif=Phase.C, par=None, level=0, count=1, fok=False)
        return PifState(
            pif=Phase.C,
            par=network.neighbors(node)[0],
            level=1,
            count=1,
            fok=False,
        )

    def random_state(self, node: int, network: Network, rng: Random) -> PifState:
        """Sample uniformly from the full variable domains (fault model)."""
        self._check_network(network)
        k = self.constants
        phase = rng.choice((Phase.B, Phase.F, Phase.C))
        count = rng.randint(1, k.n_prime)
        fok = rng.random() < 0.5
        if node == k.root:
            return PifState(pif=phase, par=None, level=0, count=count, fok=fok)
        return PifState(
            pif=phase,
            par=rng.choice(network.neighbors(node)),
            level=rng.randint(1, k.l_max),
            count=count,
            fok=fok,
        )

    def sanitize_state(
        self, node: int, state: PifState, network: Network
    ) -> PifState:
        """Re-domain a state after topology churn.

        ``Par_p ∈ Neig_p`` is the only topology-dependent domain; a
        parent pointer dangling across a removed edge is re-pointed at
        the locally smallest neighbor.  The value is deliberately
        arbitrary — it is garbage either way, and the snap guarantees
        cover arbitrary garbage — but it must be *in domain* so guards
        can legally read it (``Context.neighbor_state`` refuses
        non-neighbor reads).
        """
        self._check_network(network)
        if node == self.constants.root:
            return state
        if state.par is not None and not network.has_edge(node, state.par):
            return state.replace(par=network.neighbors(node)[0])
        return state

    def columnar_spec(self):
        """Algorithms 1/2 in guard-expression IR (see DESIGN.md §12).

        Only the unmodified :class:`SnapPif` declares a spec:
        subclasses wrap the programs with extra state and semantics the
        columns do not model, so they fall back to the object bridge
        unless they declare their own spec (as
        :class:`~repro.core.payload.PayloadSnapPif` does).
        """
        if type(self) is not SnapPif:
            return None
        return snap_pif_spec(self.constants)

    # ------------------------------------------------------------------
    # PIF-specific helpers
    # ------------------------------------------------------------------
    def join_parent(self, ctx: Context) -> int | None:
        """The parent ``B-action`` would choose at ``ctx`` (monitor hook)."""
        return chosen_parent(ctx, self.constants)

    def root_state(self, configuration: Configuration) -> PifState:
        """The root's state in ``configuration``."""
        state = configuration[self.constants.root]
        assert isinstance(state, PifState)
        return state

    def all_clean(self, configuration: Configuration) -> bool:
        """``∀p, Pif_p = C`` — the normal starting configuration."""
        return all(
            isinstance(s, PifState) and s.pif is Phase.C for s in configuration
        )

    def _check_network(self, network: Network) -> None:
        if network.n != self.constants.n:
            raise ProtocolError(
                f"protocol configured for N={self.constants.n} but network "
                f"has {network.n} processors"
            )

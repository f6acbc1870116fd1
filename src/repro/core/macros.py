"""The macros of Algorithms 1 and 2: ``Sum_Set``, ``Sum``, ``Pre_Potential``, ``Potential``.

All functions take the executing processor's :class:`~repro.runtime.protocol.Context`
plus the protocol :class:`~repro.core.state.PifConstants` and read only
the processor's own state and its neighbors' states, exactly as the
locally shared memory model allows.

Interpretation notes (see DESIGN.md §1.1):

* ``Sum_Set_p`` uses ``¬Fok_q`` — a child whose own Fok flag has risen no
  longer feeds its count to the parent (the paper prints ``¬Fok_p``,
  inconsistent with the other conjuncts which all constrain ``q``).
* ``Potential_p`` minimizes levels over ``Pre_Potential_p`` (the paper's
  ``Set_p`` is read as ``Pre_Potential_p``, the only set in scope).

Performance notes (see docs/API.md «Performance model»):

* The member-set macros return ``(q, state_q)`` pairs internally
  (:func:`sum_members`, :func:`pre_potential_members`,
  :func:`potential_members`), so each neighbor state is read exactly
  once per evaluation — no re-fetch through ``ctx.neighbor_state`` with
  its ``has_edge`` validation on the hot path.
* When the context carries an evaluation cache (``ctx.cache``), results
  are memoized under ``(node, name)`` keys.  Several guards at the same
  node re-derive the same macros against the same configuration (e.g.
  ``NewCount`` needs ``Sum_p`` both directly and via
  ``Normal → GoodCount``); the cache collapses those repeats to one
  evaluation per configuration.
"""

from __future__ import annotations

from repro.core.state import Phase, PifConstants, PifState
from repro.runtime.protocol import Context

__all__ = [
    "sum_set",
    "sum_members",
    "sum_value",
    "pre_potential",
    "pre_potential_members",
    "potential",
    "potential_members",
    "chosen_parent",
]


def sum_members(ctx: Context, k: PifConstants) -> list[tuple[int, PifState]]:
    """``Sum_Set_p`` with states attached: ``[(q, state_q), …]``."""
    cache = ctx.cache
    if cache is not None:
        hit = cache.get((ctx.node, "sum_members"))
        if hit is not None:
            return hit
    own = ctx.state
    assert isinstance(own, PifState)
    child_level = own.level + 1
    members = []
    for q, sq in ctx.neighbor_states():
        assert isinstance(sq, PifState)
        if (
            sq.pif is Phase.B
            and sq.par == ctx.node
            and sq.level == child_level
            and not sq.fok
        ):
            members.append((q, sq))
    if cache is not None:
        cache[(ctx.node, "sum_members")] = members
    return members


def sum_set(ctx: Context, k: PifConstants) -> list[int]:
    """``Sum_Set_p``: broadcasting children one level below, not yet in the Fok wave.

    ``{q ∈ Neig_p :: (Pif_q = B) ∧ (Par_q = p) ∧ (L_q = L_p + 1) ∧ ¬Fok_q}``
    """
    return [q for q, _sq in sum_members(ctx, k)]


def sum_value(ctx: Context, k: PifConstants) -> int:
    """``Sum_p = 1 + Σ_{q ∈ Sum_Set_p} Count_q``."""
    cache = ctx.cache
    if cache is not None:
        hit = cache.get((ctx.node, "sum_value"))
        if hit is not None:
            return hit
    total = 1
    for _q, sq in sum_members(ctx, k):
        total += sq.count
    if cache is not None:
        cache[(ctx.node, "sum_value")] = total
    return total


def pre_potential_members(
    ctx: Context, k: PifConstants
) -> list[tuple[int, PifState]]:
    """``Pre_Potential_p`` with states attached: ``[(q, state_q), …]``."""
    cache = ctx.cache
    if cache is not None:
        hit = cache.get((ctx.node, "pre_potential_members"))
        if hit is not None:
            return hit
    members = []
    for q, sq in ctx.neighbor_states():
        assert isinstance(sq, PifState)
        if sq.pif is not Phase.B:
            continue
        if sq.par == ctx.node:
            continue
        if sq.level >= k.l_max:
            continue
        if k.fok_join_guard and sq.fok:
            continue
        members.append((q, sq))
    if cache is not None:
        cache[(ctx.node, "pre_potential_members")] = members
    return members


def pre_potential(ctx: Context, k: PifConstants) -> list[int]:
    """``Pre_Potential_p``: neighbors ``p`` could accept the broadcast from.

    ``{q ∈ Neig_p :: (Pif_q = B) ∧ (Par_q ≠ p) ∧ (L_q < L_max) ∧ ¬Fok_q}``

    The ``¬Fok_q`` conjunct (removable via the ``fok_join_guard``
    ablation switch) prevents attaching below a subtree whose count has
    already been frozen into the root's total.
    """
    return [q for q, _sq in pre_potential_members(ctx, k)]


def potential_members(
    ctx: Context, k: PifConstants
) -> list[tuple[int, PifState]]:
    """``Potential_p`` with states attached: ``[(q, state_q), …]``."""
    cache = ctx.cache
    if cache is not None:
        hit = cache.get((ctx.node, "potential_members"))
        if hit is not None:
            return hit
    candidates = pre_potential_members(ctx, k)
    if candidates:
        best = min(sq.level for _q, sq in candidates)
        members = [(q, sq) for q, sq in candidates if sq.level == best]
    else:
        members = []
    if cache is not None:
        cache[(ctx.node, "potential_members")] = members
    return members


def potential(ctx: Context, k: PifConstants) -> list[int]:
    """``Potential_p``: the minimum-level members of ``Pre_Potential_p``.

    Choosing a minimum-level parent is what makes every parent path
    chordless (proof of Theorem 4).
    """
    return [q for q, _sq in potential_members(ctx, k)]


def chosen_parent(ctx: Context, k: PifConstants) -> int | None:
    """``min_{≻p}(Potential_p)``: the parent B-action would pick, or ``None``.

    The minimum is taken in the processor's local neighbor order, which
    is the iteration order of ``ctx.neighbors`` — ``potential`` preserves
    it, so the first element is the local minimum.
    """
    if ctx.cache is not None:
        candidates = potential_members(ctx, k)
        return candidates[0][0] if candidates else None
    # Uncached (the monitor's per-join query): one pass keeping the
    # first member of minimal level, which is ``potential``'s head.
    best = None
    best_level = 0
    for q, sq in pre_potential_members(ctx, k):
        if best is None or sq.level < best_level:
            best = q
            best_level = sq.level
    return best

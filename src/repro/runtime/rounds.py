"""Round accounting per the paper's definition (Dolev, Israeli, Moran).

Given a computation ``e``, the *first round* of ``e`` is the minimal
prefix containing the execution of one action — a protocol action or the
*disable action* — of every processor continuously enabled from the first
configuration.  The second round is the first round of the remaining
suffix, and so on.  Rounds capture the execution rate of the slowest
processor and are the time unit of every bound proved in the paper.

:class:`RoundCounter` implements this incrementally: it tracks the set
of processors that were enabled when the current round began and have
been *continuously enabled and inactive* since.  A processor leaves the
set by executing any action, or by becoming disabled without executing
(the disable action).  The round completes when the set empties.

The counter keeps that state in one of two stores with the same
interface: Python sets and an age dict (the object engines, the pure
backend), or numpy arrays over the node ids (the columnar engine's
numpy backend, where a step arrives as index arrays — DESIGN.md §11).
The round rule itself — when a round completes and what the next one
owes — is :class:`RoundCounter`'s, written once for both.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import AbstractSet, Iterable, Iterator

__all__ = ["RoundCounter"]


class RoundCounter:
    """Incremental round counter for a single computation.

    Usage: construct with the initially enabled set, then call
    :meth:`observe_step` once per computation step with the processors
    that executed an action and the set enabled in the *next*
    configuration.  With ``size`` (the number of processors) the state
    lives in numpy arrays; ``executed`` may then be an index array and
    ``enabled_after`` a boolean flag array of length ``size``.
    """

    __slots__ = ("_store", "_completed", "_excluded")

    def __init__(
        self,
        initially_enabled: Iterable[int],
        *,
        excluded: Iterable[int] = (),
        size: int | None = None,
    ) -> None:
        self._excluded: frozenset[int] = frozenset(excluded)
        self._store = (
            _SetStore(self._excluded)
            if size is None
            else _ArrayStore(size, self._excluded)
        )
        self._store.restart(initially_enabled)
        self._completed = 0

    @property
    def completed_rounds(self) -> int:
        """Number of fully completed rounds so far."""
        return self._completed

    @property
    def pending(self) -> frozenset[int]:
        """Processors still owed an action in the current round."""
        return self._store.pending_set()

    @property
    def ages(self) -> Mapping[int, int]:
        """Consecutive-steps-enabled per currently enabled processor."""
        return self._store.ages

    @property
    def excluded(self) -> frozenset[int]:
        """Processors excluded from round accounting (crashed)."""
        return self._excluded

    def restart(self, enabled: Iterable[int]) -> None:
        """Restart the round in progress from a new enabled set.

        Used when a transient fault replaces the configuration mid-run:
        the completed-round count is preserved, the interrupted round's
        bookkeeping is discarded.  The excluded (crashed) set survives
        the restart — a memory fault does not revive a dead processor.
        """
        self._store.restart(enabled)

    def set_excluded(
        self, excluded: Iterable[int], enabled_now: Iterable[int]
    ) -> int:
        """Replace the excluded set mid-run (crash / recovery).

        A crashed processor is no longer *continuously enabled* — its
        pending obligation is dropped exactly as if it had executed the
        disable action, and its enabled-age streak resets.  A recovered
        processor that is enabled re-enters the age table at 1 but joins
        round bookkeeping only from the *next* round (it was not
        continuously enabled from the current round's start).

        Returns the number of rounds completed by this change (1 when
        dropping crashed processors emptied the current round's pending
        set, else 0).
        """
        excluded = frozenset(excluded)
        newly = excluded - self._excluded
        self._excluded = excluded
        store = self._store
        emptied = store.exclude(newly, excluded, enabled_now)
        completed = 0
        if store.done():
            if emptied:
                completed = 1
                self._completed += 1
            store.begin(enabled_now)
        return completed

    def observe_step(
        self, executed: AbstractSet[int], enabled_after: AbstractSet[int]
    ) -> int:
        """Account for one computation step.

        Parameters
        ----------
        executed:
            Processors that executed a protocol action in this step.
        enabled_after:
            Processors enabled in the configuration *after* the step.

        Returns the number of rounds completed by this step (0 or more;
        more than one only if the round emptied and the next round's
        enabled set is empty too — which cannot happen because an empty
        enabled set means the computation is terminal).
        """
        store = self._store
        # Ages: executing or becoming disabled resets the streak, and
        # excluded (crashed) processors carry no age at all — daemons
        # must not count them against fairness.  Round bookkeeping:
        # drop processors that acted, or that were neutralized (disable
        # action = enabled before, not after, no action executed).
        store.advance(executed, enabled_after)
        if store.done():
            self._completed += 1
            store.begin(enabled_after)
            return 1
        return 0


class _SetStore:
    """Round state as a pending set and an age dict."""

    __slots__ = ("pending", "ages", "excluded")

    def __init__(self, excluded: frozenset[int]) -> None:
        self.excluded = excluded
        self.pending: set[int] = set()
        self.ages: dict[int, int] = {}

    def pending_set(self) -> frozenset[int]:
        return frozenset(self.pending)

    def done(self) -> bool:
        return not self.pending

    def begin(self, enabled: Iterable[int]) -> None:
        excluded = self.excluded
        self.pending = {p for p in enabled if p not in excluded}

    def restart(self, enabled: Iterable[int]) -> None:
        self.pending = set(enabled) - self.excluded
        self.ages = {p: 1 for p in self.pending}

    def exclude(
        self, newly: frozenset[int], excluded: frozenset[int], enabled_now
    ) -> bool:
        self.excluded = excluded
        pending = self.pending
        emptied = bool(pending) and not (pending - newly)
        pending -= newly
        ages = self.ages
        for p in newly:
            ages.pop(p, None)
        for p in enabled_now:
            if p not in excluded and p not in ages:
                ages[p] = 1
        return emptied

    def advance(self, executed, enabled_after) -> None:
        excluded = self.excluded
        ages = self.ages
        new_ages: dict[int, int] = {}
        for p in enabled_after:
            if p in excluded:
                continue
            if p in executed or p not in ages:
                new_ages[p] = 1
            else:
                new_ages[p] = ages[p] + 1
        self.ages = new_ages
        self.pending = {
            p for p in self.pending if p not in executed and p in enabled_after
        }


class _ArrayStore:
    """Round state as numpy arrays over the node ids.

    ``pending`` is a boolean flag per node; ``age`` holds each node's
    streak, 0 for a disabled or excluded one.
    """

    __slots__ = ("np", "size", "pending", "age", "excluded", "ages")

    def __init__(self, size: int, excluded: frozenset[int]) -> None:
        import numpy as np

        self.np = np
        self.size = size
        self.excluded = self.flags(excluded) if excluded else None
        self.pending = np.zeros(size, dtype=bool)
        self.age = np.zeros(size, dtype=np.int64)
        self.ages = AgeView(self)

    def flags(self, nodes):
        """A fresh boolean array with ``nodes`` (a flag array or any
        iterable of ids) set."""
        np = self.np
        if isinstance(nodes, np.ndarray):
            return nodes.copy()
        out = np.zeros(self.size, dtype=bool)
        out[np.fromiter(nodes, dtype=np.int64)] = True
        return out

    def _active(self, nodes):
        """``flags(nodes)`` minus the excluded processors."""
        out = self.flags(nodes)
        if self.excluded is not None:
            out &= ~self.excluded
        return out

    def pending_set(self) -> frozenset[int]:
        return frozenset(self.np.flatnonzero(self.pending).tolist())

    def done(self) -> bool:
        return not self.pending.any()

    def begin(self, enabled) -> None:
        self.pending = self._active(enabled)

    def restart(self, enabled) -> None:
        self.pending = self._active(enabled)
        self.age = self.pending.astype(self.np.int64)

    def exclude(self, newly, excluded, enabled_now) -> bool:
        self.excluded = self.flags(excluded) if excluded else None
        gone = self.flags(newly)
        pending = self.pending
        emptied = bool(pending.any()) and not (pending & ~gone).any()
        pending &= ~gone
        age = self.age
        age[gone] = 0
        age[(age == 0) & self._active(enabled_now)] = 1
        return emptied

    def advance(self, executed, enabled_after) -> None:
        np = self.np
        if not isinstance(executed, np.ndarray):
            executed = np.fromiter(executed, dtype=np.int64)
        on = self._active(enabled_after)
        age = self.age
        age += 1
        age *= on
        age[executed] = on[executed]
        pending = self.pending
        pending &= on
        pending[executed] = False


class AgeView(Mapping):
    """``{node: age}`` over an array store, for daemons that read ages.

    ``array`` is the per-node age (0 for nodes without one).
    """

    __slots__ = ("_store",)

    def __init__(self, store: _ArrayStore) -> None:
        self._store = store

    @property
    def array(self):
        return self._store.age

    def __getitem__(self, node: int) -> int:
        if not 0 <= node < self._store.size:
            raise KeyError(node)
        age = int(self._store.age[node])
        if not age:
            raise KeyError(node)
        return age

    def __iter__(self) -> Iterator[int]:
        return iter(self._store.np.flatnonzero(self._store.age).tolist())

    def __len__(self) -> int:
        return int(self._store.np.count_nonzero(self._store.age))

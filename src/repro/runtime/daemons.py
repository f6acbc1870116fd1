"""Daemons (schedulers) for the guarded-action model.

The paper assumes a *weakly fair distributed* daemon: at every
computation step the daemon activates a non-empty subset of the enabled
processors, and a continuously enabled processor is eventually
activated.  The distributed daemon is the most general adversary —
synchronous, central and locally central daemons are all special cases —
so a protocol proved correct under it is correct under all of them.

This module provides:

* :class:`SynchronousDaemon` — all enabled processors fire (one round per
  step); the reference scheduler for complexity measurements.
* :class:`CentralDaemon` — exactly one processor fires per step.
* :class:`LocallyCentralDaemon` — a maximal set of pairwise non-adjacent
  enabled processors fires.
* :class:`DistributedRandomDaemon` — each enabled processor fires with a
  given probability (at least one always fires).
* :class:`AdversarialDaemon` — starves processors as long as weak
  fairness permits, firing minimal subsets of the *youngest* enabled
  processors; used to stress the round bounds.
* :class:`ReplayDaemon` — replays a recorded schedule (trace replay).
* :class:`WeaklyFairDaemon` — wrapper enforcing weak fairness on any
  inner daemon via a starvation patience threshold.

A daemon's :meth:`Daemon.select` receives the enabled map (node → list
of enabled actions, in program order), the per-node *ages* (number of
consecutive steps each node has been enabled, ``1`` meaning freshly
enabled) and a seeded RNG, and must return a non-empty ``{node: action}``
selection.

On the columnar engine's numpy backend the enabled map may arrive as an
:class:`~repro.runtime.selection.EnabledView` over the kernel's guard
masks.  :class:`SynchronousDaemon` and :class:`CentralDaemon` with the
``"first"`` action policy then select on its index array and return an
:class:`~repro.runtime.selection.ArraySelection`, drawing exactly the
RNG values their dict path draws (:attr:`Daemon.selects_masks`).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from random import Random
from typing import Mapping, Sequence

from repro.errors import ReplayError, ScheduleError
from repro.runtime.network import Network
from repro.runtime.protocol import Action
from repro.runtime.selection import EnabledView

__all__ = [
    "Daemon",
    "SynchronousDaemon",
    "CentralDaemon",
    "LocallyCentralDaemon",
    "DistributedRandomDaemon",
    "AdversarialDaemon",
    "ReplayDaemon",
    "RoundRobinDaemon",
    "WeaklyFairDaemon",
]


def _pick_action(actions: Sequence[Action], policy: str, rng: Random) -> Action:
    """Choose one enabled action according to ``policy``.

    ``"first"`` follows program order (the paper lists normal actions
    before corrections, and guards of distinct normal actions are
    designed to be near-exclusive); ``"random"`` lets the adversary pick.
    """
    if policy == "first":
        return actions[0]
    if policy == "random":
        return rng.choice(list(actions))
    raise ScheduleError(f"unknown action policy {policy!r}")


class Daemon(ABC):
    """Base class for schedulers."""

    name: str = "daemon"

    #: How to resolve several simultaneously enabled actions at one node.
    action_policy: str = "first"

    def __init__(self, *, action_policy: str = "first") -> None:
        if action_policy not in ("first", "random"):
            raise ScheduleError(f"unknown action policy {action_policy!r}")
        self.action_policy = action_policy

    @abstractmethod
    def select(
        self,
        enabled: Mapping[int, Sequence[Action]],
        *,
        network: Network,
        step: int,
        ages: Mapping[int, int],
        rng: Random,
    ) -> dict[int, Action]:
        """Return a non-empty selection ``{node: action}``."""

    def reset(self) -> None:
        """Clear any internal scheduling state (between runs)."""

    @property
    def selects_masks(self) -> bool:
        """Whether :meth:`select` picks from an ``EnabledView``'s index
        array (returning an ``ArraySelection``) instead of its dict."""
        return False

    def _choose(self, actions: Sequence[Action], rng: Random) -> Action:
        return _pick_action(actions, self.action_policy, rng)


class SynchronousDaemon(Daemon):
    """Activate every enabled processor at every step.

    One computation step equals exactly one round, which makes this the
    canonical daemon for measuring round complexities.
    """

    name = "synchronous"

    @property
    def selects_masks(self) -> bool:
        return (
            self.action_policy == "first"
            and type(self).select is SynchronousDaemon.select
        )

    def select(
        self,
        enabled: Mapping[int, Sequence[Action]],
        *,
        network: Network,
        step: int,
        ages: Mapping[int, int],
        rng: Random,
    ) -> dict[int, Action]:
        if isinstance(enabled, EnabledView) and self.action_policy == "first":
            return enabled.first(enabled.nodes)
        return {p: self._choose(actions, rng) for p, actions in enabled.items()}


class CentralDaemon(Daemon):
    """Activate exactly one enabled processor per step.

    ``choice`` controls which: ``"random"`` (default), ``"oldest"`` (the
    longest continuously enabled — a fair sequential scheduler) or
    ``"lowest"`` (smallest identifier — deterministic).
    """

    name = "central"

    def __init__(self, *, choice: str = "random", action_policy: str = "first") -> None:
        super().__init__(action_policy=action_policy)
        if choice not in ("random", "oldest", "lowest"):
            raise ScheduleError(f"unknown central choice {choice!r}")
        self._choice = choice

    @property
    def selects_masks(self) -> bool:
        return (
            self.action_policy == "first"
            and type(self).select is CentralDaemon.select
        )

    def select(
        self,
        enabled: Mapping[int, Sequence[Action]],
        *,
        network: Network,
        step: int,
        ages: Mapping[int, int],
        rng: Random,
    ) -> dict[int, Action]:
        if isinstance(enabled, EnabledView) and self.action_policy == "first":
            return enabled.first(self._pick_index(enabled.nodes, ages, rng))
        nodes = list(enabled)
        if self._choice == "random":
            p = rng.choice(nodes)
        elif self._choice == "oldest":
            p = max(nodes, key=lambda q: (ages.get(q, 0), -q))
        else:
            p = min(nodes)
        return {p: self._choose(enabled[p], rng)}

    def _pick_index(self, nodes, ages: Mapping[int, int], rng: Random):
        """The dict path's pick over an ascending index array, as a
        one-element slice of it (same RNG draws)."""
        if self._choice == "random":
            # Random.choice draws _randbelow(len(seq)), as on the list.
            i = rng.choice(range(len(nodes)))
        elif self._choice == "oldest":
            # ``ages`` is the array round store's view; argmax takes the
            # first maximum, i.e. the smallest id.
            i = int(ages.array[nodes].argmax())
        else:
            i = 0
        return nodes[i : i + 1]


class LocallyCentralDaemon(Daemon):
    """Activate a maximal independent set of enabled processors.

    No two neighbors fire in the same step, a common intermediate
    adversary between central and distributed daemons.
    """

    name = "locally-central"

    def select(
        self,
        enabled: Mapping[int, Sequence[Action]],
        *,
        network: Network,
        step: int,
        ages: Mapping[int, int],
        rng: Random,
    ) -> dict[int, Action]:
        nodes = list(enabled)
        rng.shuffle(nodes)
        chosen: dict[int, Action] = {}
        blocked: set[int] = set()
        for p in nodes:
            if p in blocked:
                continue
            chosen[p] = self._choose(enabled[p], rng)
            blocked.add(p)
            blocked.update(network.neighbors(p))
        return chosen


class DistributedRandomDaemon(Daemon):
    """Activate each enabled processor independently with probability ``p``.

    At least one processor always fires (the daemon must make progress).
    With ``p = 1.0`` this degenerates to the synchronous daemon; small
    ``p`` approximates a highly asynchronous system.
    """

    name = "distributed-random"

    def __init__(
        self, probability: float = 0.5, *, action_policy: str = "first"
    ) -> None:
        super().__init__(action_policy=action_policy)
        if not 0.0 < probability <= 1.0:
            raise ScheduleError(
                f"activation probability must be in (0, 1], got {probability}"
            )
        self.probability = probability

    def select(
        self,
        enabled: Mapping[int, Sequence[Action]],
        *,
        network: Network,
        step: int,
        ages: Mapping[int, int],
        rng: Random,
    ) -> dict[int, Action]:
        chosen = {
            p: self._choose(actions, rng)
            for p, actions in enabled.items()
            if rng.random() < self.probability
        }
        if not chosen:
            p = rng.choice(list(enabled))
            chosen[p] = self._choose(enabled[p], rng)
        return chosen


class AdversarialDaemon(Daemon):
    """A starvation-maximizing daemon (still weakly fair via patience).

    Strategy: every step, fire only the single *most recently* enabled
    processor (smallest age), postponing long-enabled processors; any
    processor whose age reaches ``patience`` is forced to fire.  This
    stretches rounds as far as weak fairness allows and produces
    worst-case-ish executions for the stabilization bounds.
    """

    name = "adversarial"

    def __init__(self, *, patience: int = 8, action_policy: str = "random") -> None:
        super().__init__(action_policy=action_policy)
        if patience < 1:
            raise ScheduleError(f"patience must be >= 1, got {patience}")
        self.patience = patience

    def select(
        self,
        enabled: Mapping[int, Sequence[Action]],
        *,
        network: Network,
        step: int,
        ages: Mapping[int, int],
        rng: Random,
    ) -> dict[int, Action]:
        chosen: dict[int, Action] = {}
        for p, actions in enabled.items():
            if ages.get(p, 1) >= self.patience:
                chosen[p] = self._choose(actions, rng)
        if chosen:
            return chosen
        youngest = min(enabled, key=lambda q: (ages.get(q, 1), q))
        return {youngest: self._choose(enabled[youngest], rng)}


class RoundRobinDaemon(Daemon):
    """Deterministic fair scheduler: one processor per step, cycling.

    Visits processors in identifier order, skipping disabled ones; the
    strongest *deterministic* fairness (every enabled processor fires at
    least once every ``n`` of its enabled steps).  Useful for
    reproducible sequential executions without an RNG.
    """

    name = "round-robin"

    def __init__(self, *, action_policy: str = "first") -> None:
        super().__init__(action_policy=action_policy)
        self._next = 0

    def reset(self) -> None:
        self._next = 0

    def select(
        self,
        enabled: Mapping[int, Sequence[Action]],
        *,
        network: Network,
        step: int,
        ages: Mapping[int, int],
        rng: Random,
    ) -> dict[int, Action]:
        n = network.n
        for offset in range(n):
            p = (self._next + offset) % n
            if p in enabled:
                self._next = (p + 1) % n
                return {p: self._choose(enabled[p], rng)}
        raise ScheduleError("no enabled processor to select")


class ReplayDaemon(Daemon):
    """Replay a previously recorded schedule.

    ``schedule`` is a sequence of ``{node: action name}`` mappings, one
    per step (e.g. taken from a :class:`~repro.runtime.trace.Trace`).
    Raises :class:`~repro.errors.ReplayError` — carrying the schedule
    step index, the offending node/action, and the expected-vs-enabled
    map — if the schedule is exhausted or the recorded selection is no
    longer enabled.  Replay is only meaningful on the same initial
    configuration and protocol.
    """

    name = "replay"

    def __init__(self, schedule: Sequence[Mapping[int, str]]) -> None:
        super().__init__(action_policy="first")
        self._schedule = [dict(sel) for sel in schedule]
        self._cursor = 0

    def reset(self) -> None:
        self._cursor = 0

    @property
    def cursor(self) -> int:
        """Index of the next schedule entry to replay."""
        return self._cursor

    @property
    def exhausted(self) -> bool:
        """True once every scheduled step has been replayed."""
        return self._cursor >= len(self._schedule)

    @staticmethod
    def _enabled_names(
        enabled: Mapping[int, Sequence[Action]]
    ) -> dict[int, list[str]]:
        return {p: [a.name for a in actions] for p, actions in enabled.items()}

    def select(
        self,
        enabled: Mapping[int, Sequence[Action]],
        *,
        network: Network,
        step: int,
        ages: Mapping[int, int],
        rng: Random,
    ) -> dict[int, Action]:
        index = self._cursor
        if index >= len(self._schedule):
            raise ReplayError(
                f"replay schedule exhausted after {len(self._schedule)} "
                f"step(s) but the computation wants step {step}",
                step_index=index,
                reason="exhausted",
                enabled=self._enabled_names(enabled),
            )
        wanted = self._schedule[index]
        self._cursor += 1
        chosen: dict[int, Action] = {}
        for p, action_name in wanted.items():
            actions = enabled.get(p)
            if actions is None:
                raise ReplayError(
                    f"replay step {index}: node {p} expected to execute "
                    f"{action_name!r} but is not enabled "
                    f"(enabled: {sorted(enabled)})",
                    step_index=index,
                    reason="node-not-enabled",
                    node=p,
                    action=action_name,
                    enabled=self._enabled_names(enabled),
                )
            match = next((a for a in actions if a.name == action_name), None)
            if match is None:
                raise ReplayError(
                    f"replay step {index}: action {action_name!r} not enabled "
                    f"at node {p} (enabled: {[a.name for a in actions]})",
                    step_index=index,
                    reason="action-not-enabled",
                    node=p,
                    action=action_name,
                    enabled=self._enabled_names(enabled),
                )
            chosen[p] = match
        if not chosen:
            raise ReplayError(
                f"replay step {index}: empty selection",
                step_index=index,
                reason="empty-step",
                enabled=self._enabled_names(enabled),
            )
        return chosen


class WeaklyFairDaemon(Daemon):
    """Enforce weak fairness on an arbitrary inner daemon.

    After the inner daemon selects, every processor continuously enabled
    for at least ``patience`` steps is added to the selection (with its
    first enabled action).  Wrapping any daemon in this class guarantees
    the weak fairness assumption of the paper's model.
    """

    name = "weakly-fair"

    def __init__(self, inner: Daemon, *, patience: int = 32) -> None:
        super().__init__(action_policy=inner.action_policy)
        if patience < 1:
            raise ScheduleError(f"patience must be >= 1, got {patience}")
        self.inner = inner
        self.patience = patience
        self.name = f"weakly-fair({inner.name})"

    def reset(self) -> None:
        self.inner.reset()

    def select(
        self,
        enabled: Mapping[int, Sequence[Action]],
        *,
        network: Network,
        step: int,
        ages: Mapping[int, int],
        rng: Random,
    ) -> dict[int, Action]:
        chosen = dict(
            self.inner.select(
                enabled, network=network, step=step, ages=ages, rng=rng
            )
        )
        for p, actions in enabled.items():
            if p not in chosen and ages.get(p, 1) >= self.patience:
                chosen[p] = actions[0]
        return chosen

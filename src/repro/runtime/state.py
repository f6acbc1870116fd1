"""Per-processor states and global configurations.

States are small immutable (frozen dataclass) objects; a global
configuration is an immutable tuple of per-processor states.  Both are
hashable so the exhaustive model checker can memoize visited
configurations, and so traces can be compared structurally in tests.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Iterator, Mapping, Sequence, TypeVar

from repro.errors import ProtocolError

__all__ = ["NodeState", "Configuration", "LazyConfiguration", "InternTable"]


class NodeState:
    """Marker base class for immutable per-processor states.

    Concrete protocols subclass this with ``@dataclass(frozen=True,
    slots=True)``.  The base class provides a convenient ``replace``
    helper mirroring :func:`dataclasses.replace`.
    """

    def replace(self: "S", **changes: Any) -> "S":
        """Return a copy of this state with ``changes`` applied."""
        return dataclasses.replace(self, **changes)  # type: ignore[type-var]


S = TypeVar("S", bound=NodeState)


class Configuration:
    """A global configuration: one :class:`NodeState` per processor.

    The paper's ``γ``.  Immutable, hashable, and indexable by node
    identifier.
    """

    __slots__ = ("_states", "_hash")

    def __init__(self, states: tuple[NodeState, ...] | list[NodeState]) -> None:
        self._states: tuple[NodeState, ...] = tuple(states)
        self._hash: int | None = None

    @property
    def states(self) -> tuple[NodeState, ...]:
        """The per-processor states, indexed by node identifier."""
        return self._states

    def __getitem__(self, node: int) -> NodeState:
        return self._states[node]

    def __iter__(self) -> Iterator[NodeState]:
        return iter(self._states)

    def __len__(self) -> int:
        return len(self._states)

    def replace(self, updates: Mapping[int, NodeState]) -> "Configuration":
        """Return a new configuration with the given node states replaced.

        ``updates`` maps node identifiers to their new states.  Returns
        ``self`` (the same object, not merely an equal one) when
        ``updates`` is empty or every replacement is the node's current
        state object — no-op computation steps allocate nothing, and
        downstream identity checks (``after is before``) keep working.

        Validation and application happen in a single pass; an unknown
        node raises :class:`~repro.errors.ProtocolError` without a
        partially built copy escaping.
        """
        if not updates:
            return self
        states = self._states
        n = len(states)
        copied: list[NodeState] | None = None
        for node, state in updates.items():
            if not 0 <= node < n:
                raise ProtocolError(f"update for unknown node {node}")
            if copied is None:
                if state is states[node]:
                    continue
                copied = list(states)
            copied[node] = state
        if copied is None:
            return self
        return Configuration(tuple(copied))

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Configuration):
            return NotImplemented
        return self._states == other._states

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self._states)
        return self._hash

    def __repr__(self) -> str:
        inner = ", ".join(f"{i}:{s!r}" for i, s in enumerate(self._states))
        return f"Configuration({inner})"


class LazyConfiguration(Configuration):
    """A configuration whose states are built on first read.

    ``source`` returns the states (any sequence) when first needed;
    until then the object holds nothing but ``source``.  The columnar
    engine hands these out as snapshots and resolves a live one before
    its next write (:meth:`repro.columnar.block.ColumnBlock.snapshot`),
    so a snapshot always shows the configuration of the step it was
    taken at.  Every :class:`Configuration` method works unchanged: the
    unset ``_states`` slot falls through to :meth:`__getattr__`, which
    resolves, and later reads take the plain slot.
    """

    __slots__ = ("_source", "__weakref__")

    def __init__(self, source: Callable[[], Sequence[NodeState]]) -> None:
        self._hash = None
        self._source: Callable[[], Sequence[NodeState]] | None = source

    @property
    def resolved(self) -> bool:
        """Whether the states have been built."""
        return self._source is None

    def resolve(self, states: Sequence[NodeState] | None = None) -> None:
        """Build the states now: ``states`` when given, else ``source()``.

        ``source`` may itself resolve this object with explicit states
        (the column block does, to adopt it as its cached view).
        """
        if self._source is None:
            return
        if states is None:
            states = self._source()
            if self._source is None:
                return
        self._source = None
        self._states = tuple(states)

    def __getattr__(self, name: str) -> Any:
        if name == "_states" and self._source is not None:
            self.resolve()
            return self._states
        raise AttributeError(name)

    def __reduce__(self):
        # Pickles and copies as the plain configuration it stands for.
        return (Configuration, (self.states,))


class InternTable:
    """Canonicalizing table for :class:`Configuration` objects.

    ``intern`` maps every equal configuration to one representative
    object, so memo keys and visited-set members built from interned
    configurations share storage, their cached hashes are computed once,
    and equality checks between them short-circuit on identity.  The
    table grows with the number of *distinct* configurations seen — the
    same asymptotic footprint as any visited set holding them.
    """

    __slots__ = ("_table", "hits", "misses")

    def __init__(self) -> None:
        self._table: dict[Configuration, Configuration] = {}
        #: Lookups resolved to an already-interned object.
        self.hits = 0
        #: Lookups that inserted a new representative.
        self.misses = 0

    def __len__(self) -> int:
        return len(self._table)

    def intern(self, configuration: Configuration) -> Configuration:
        """Return the canonical object equal to ``configuration``."""
        canonical = self._table.get(configuration)
        if canonical is not None:
            self.hits += 1
            return canonical
        self._table[configuration] = configuration
        self.misses += 1
        return configuration

"""Array-native step views: the enabled set and a selection as index arrays.

On the numpy backend with a compiled kernel, :meth:`Simulator.step
<repro.runtime.simulator.Simulator.step>` carries a step as index arrays
from the daemon to the observers (DESIGN.md §11).  The objects here are
what it hands around:

* :class:`EnabledView` — the selectable nodes as an ascending index
  array over the kernel's guard masks.  It is a ``Mapping[int,
  list[Action]]``, so anything that reads it as the enabled map gets
  one, built on first read.
* :class:`ArraySelection` — a selection grouped by ``(role, action)``,
  each :class:`StepGroup` holding its nodes as an ascending index
  array and reading what the step wrote to them from the kernel's
  columns.  It is a ``Mapping[int, Action]`` built on first read, and
  :meth:`ArraySelection.names` is the ``{node: action name}`` view a
  :class:`~repro.runtime.trace.StepRecord` carries.

Nothing in this module imports numpy; the kernel that builds the views
supplies the arrays.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Iterator, Sequence

from repro.runtime.protocol import Action

__all__ = ["ArraySelection", "EnabledView", "SelectionNames", "StepGroup"]


class StepGroup:
    """The selected nodes of one ``(role, action)`` pair.

    ``idx`` holds them in ascending order (an int64 ndarray for a large
    group, else a list).  ``cols`` is the kernel's column dict.
    """

    __slots__ = ("role", "name", "bit", "idx", "_cols")

    def __init__(self, role: str, name: str, bit: int, idx, cols) -> None:
        self.role = role
        self.name = name
        self.bit = bit
        self.idx = idx
        self._cols = cols

    def __len__(self) -> int:
        return len(self.idx)

    def nodes(self) -> list[int]:
        """``idx`` as a list of ints."""
        idx = self.idx
        return idx if isinstance(idx, list) else idx.tolist()

    def values(self, field: str) -> list[int]:
        """Column ``field`` at ``idx``, as encoded ints.

        Read after the step and before the next one, these are the
        values the step wrote (a column the action updates holds its
        new value whether or not it changed).
        """
        column = self._cols[field]
        idx = self.idx
        if isinstance(idx, list):
            return [int(column[p]) for p in idx]
        return column[idx].tolist()

    def __repr__(self) -> str:
        return f"StepGroup({self.role!r}, {self.name!r}, {len(self)} nodes)"


class EnabledView(Mapping):
    """The enabled map over ``nodes``, read from a kernel's masks.

    ``nodes`` is an ascending index array of enabled (and selectable)
    processors.  Reading the view as a mapping builds ``{node: enabled
    actions}`` once, through the kernel's memoized action lists.
    """

    __slots__ = ("nodes", "_kernel", "_map")

    def __init__(self, kernel, nodes) -> None:
        self.nodes = nodes
        self._kernel = kernel
        self._map: dict[int, list[Action]] | None = None

    def first(self, nodes) -> "ArraySelection":
        """Select ``nodes`` (ascending), each with its first enabled action."""
        return self._kernel.first_selection(nodes)

    def as_dict(self) -> dict[int, list[Action]]:
        """The enabled map itself (built once; do not mutate)."""
        found = self._map
        if found is None:
            found = self._map = self._kernel.enabled_map(self.nodes)
        return found

    _full = as_dict

    def __len__(self) -> int:
        return len(self.nodes)

    def __getitem__(self, node: int) -> list[Action]:
        return self._full()[node]

    def __iter__(self) -> Iterator[int]:
        return iter(self._full())

    def __repr__(self) -> str:
        return f"EnabledView({len(self)} nodes)"


class ArraySelection(Mapping):
    """A daemon's selection as action groups of index arrays.

    ``groups`` are ordered by their first node, which is the order the
    action groups first appear in an ascending walk of the selection —
    the order the dict path forms them.  Read as a mapping it is
    ``{node: Action}`` in ascending node order.
    """

    __slots__ = ("groups", "size", "join_columns", "_kernel", "_map")

    def __init__(
        self,
        kernel,
        groups: Sequence[StepGroup],
        join_columns: tuple[str, str] | None = None,
    ) -> None:
        self.groups = list(groups)
        #: The kernel spec's ``join_columns`` (see ``ColumnarSpec``).
        self.join_columns = join_columns
        self.size = sum(len(g) for g in self.groups)
        self._kernel = kernel
        self._map: dict[int, Action] | None = None

    def action_name(self, node: int) -> str | None:
        """The action ``node`` executes, or ``None`` if it is not selected."""
        for group in self.groups:
            idx = group.idx
            if isinstance(idx, list):
                if node in idx:
                    return group.name
                continue
            i = int(idx.searchsorted(node))
            if i < len(idx) and int(idx[i]) == node:
                return group.name
        return None

    def names(self) -> "SelectionNames":
        """A new ``{node: action name}`` view, built on first read (not
        cached here: a view refers to its selection, and a cached one
        would make the pair a reference cycle)."""
        return SelectionNames(self)

    def _pairs(self) -> tuple[list[int], list[StepGroup]]:
        """Selected nodes ascending, each with its group."""
        groups = self.groups
        if len(groups) == 1:
            group = groups[0]
            return group.nodes(), [group] * len(group)
        tagged = sorted(
            (p, i) for i, g in enumerate(groups) for p in g.nodes()
        )
        return [p for p, _ in tagged], [groups[i] for _, i in tagged]

    def _full(self) -> dict[int, Action]:
        found = self._map
        if found is None:
            nodes, groups = self._pairs()
            action = self._kernel.action_at
            found = self._map = {
                p: action(p, g.bit) for p, g in zip(nodes, groups)
            }
        return found

    def __len__(self) -> int:
        return self.size

    def __getitem__(self, node: int) -> Action:
        return self._full()[node]

    def __iter__(self) -> Iterator[int]:
        return iter(self._full())

    def __contains__(self, node: object) -> bool:
        if type(node) is int:
            return self.action_name(node) is not None
        return node in self._full()

    def __repr__(self) -> str:
        return f"ArraySelection({self.groups!r})"


class SelectionNames(Mapping):
    """``{node: action name}`` of an :class:`ArraySelection`, lazily."""

    __slots__ = ("_selection", "_map")

    def __init__(self, selection: ArraySelection) -> None:
        self._selection = selection
        self._map: dict[int, str] | None = None

    def _full(self) -> dict[int, str]:
        found = self._map
        if found is None:
            nodes, groups = self._selection._pairs()
            found = self._map = {p: g.name for p, g in zip(nodes, groups)}
        return found

    def get(self, node, default=None):
        if self._map is None and type(node) is int:
            name = self._selection.action_name(node)
            return default if name is None else name
        return self._full().get(node, default)

    def __len__(self) -> int:
        return self._selection.size

    def __getitem__(self, node: int) -> str:
        return self._full()[node]

    def __iter__(self) -> Iterator[int]:
        return iter(self._full())

    def __contains__(self, node: object) -> bool:
        return node in self._selection

    def __repr__(self) -> str:
        return repr(self._full())

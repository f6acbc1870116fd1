"""Column schemas: the declarative bridge between node states and columns.

A :class:`ColumnSchema` describes how one frozen-dataclass
:class:`~repro.runtime.state.NodeState` type maps onto a set of flat
integer columns — one :class:`ColumnField` per variable, each with an
``encode`` (attribute value → int) and ``decode`` (int → attribute
value) pair.  Protocols declare their schema next to the state type it
describes (e.g. ``PIF_COLUMNS`` beside
:class:`~repro.core.state.PifState`), and the columnar engine uses it
for the bidirectional converters between object configurations and
:class:`~repro.columnar.block.ColumnBlock` storage.

The module is deliberately dependency-free (no imports from
``repro.core`` or ``repro.runtime``) so that core modules can declare
schemas without creating an import cycle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence

__all__ = [
    "ColumnField",
    "ColumnSchema",
    "DECODE_MEMO_CAP",
    "identity_int",
    "bool_field",
]

#: Most rows a schema's decode memo holds before it is emptied.  The
#: memo is shared by every block of the schema, so the cap is fixed
#: rather than per network.  Hits come from nodes moving in lockstep
#: (a synchronous star's leaves share a handful of rows), which a small
#: memo already catches; a large one only adds resident memory on
#: networks whose rows are mostly distinct.
DECODE_MEMO_CAP = 4096


def identity_int(value: Any) -> int:
    """The encode/decode pair for plain integer variables."""
    return int(value)


@dataclass(frozen=True)
class ColumnField:
    """One state variable laid out as a flat integer column.

    Parameters
    ----------
    name:
        Column name (also the keyword used to construct the state).
    typecode:
        ``array.array`` typecode for the pure-python backend (``"b"``
        for small enums/flags, ``"q"`` for full-range integers).  The
        numpy backend derives its dtype from the same code.
    encode, decode:
        Value ↔ int converters.  ``decode(encode(v)) == v`` must hold
        for every in-domain value ``v`` — the round-trip property the
        columnar equivalence tests assert.
    """

    name: str
    typecode: str = "q"
    encode: Callable[[Any], int] = identity_int
    decode: Callable[[int], Any] = identity_int


def bool_field(name: str) -> ColumnField:
    """A boolean variable stored as 0/1 in a signed-byte column."""
    return ColumnField(name, typecode="b", encode=int, decode=bool)


@dataclass(frozen=True)
class ColumnSchema:
    """How a node-state type maps onto per-variable columns.

    ``state_type`` is constructed by keyword from decoded field values
    (``state_type(**{field.name: field.decode(raw)})``), so the field
    names must match the dataclass's init parameters.
    """

    state_type: type
    fields: tuple[ColumnField, ...]
    #: Column names in field order (computed once).
    names: tuple[str, ...] = field(init=False, repr=False, compare=False)
    #: Row tuple -> decoded state, capped at :data:`DECODE_MEMO_CAP`.
    _memo: dict = field(
        init=False, repr=False, compare=False, default_factory=dict
    )

    def __post_init__(self) -> None:
        names = tuple(f.name for f in self.fields)
        if len(set(names)) != len(names):
            raise ValueError(
                f"duplicate column names in schema: {list(names)}"
            )
        object.__setattr__(self, "names", names)

    def encode_state(self, state: Any) -> tuple[int, ...]:
        """Encode one state object into its column row."""
        return tuple(f.encode(getattr(state, f.name)) for f in self.fields)

    def decode_row(self, row: Sequence[int]) -> Any:
        """The state object of one column row.

        Equal rows decode to one shared object (states are immutable):
        the memo keeps the last decodes, up to
        :data:`DECODE_MEMO_CAP` rows, and is emptied when full.
        """
        key = tuple(row)
        memo = self._memo
        state = memo.get(key)
        if state is None:
            state = self.state_type(
                **{f.name: f.decode(v) for f, v in zip(self.fields, key)}
            )
            if len(memo) >= DECODE_MEMO_CAP:
                memo.clear()
            memo[key] = state
        return state

    def decode_rows(self, rows: Iterable[tuple[int, ...]]) -> list[Any]:
        """:meth:`decode_row` over many row tuples."""
        memo = self._memo
        get = memo.get
        decode = self.decode_row
        out = []
        append = out.append
        for row in rows:
            state = get(row)
            append(decode(row) if state is None else state)
        return out

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

A schema may also name *payload* fields: object-valued state variables
(a payload PIF's ``msg`` and ``ack``) stored by reference, one Python
object per node, beside the integer columns.  Guards and IR updates
never read them — only host hooks do (see
:class:`~repro.columnar.expr.ActionSpec`) — so they carry no encoding.

The module is deliberately dependency-free (no imports from
``repro.core`` or ``repro.runtime``) so that core modules can declare
schemas without creating an import cycle.
"""

from __future__ import annotations

import dataclasses
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

    ``state_type`` is constructed from the decoded field values plus
    the payload values (``state_type(**{field.name: field.decode(raw),
    ...})``, or positionally when its init parameters are exactly the
    field names then the payload names), so the field names must match
    the dataclass's init parameters.  ``payload`` names the
    object-valued fields, kept by reference and never encoded.
    """

    state_type: type
    fields: tuple[ColumnField, ...]
    payload: tuple[str, ...] = ()
    #: Column names in field order (computed once).
    names: tuple[str, ...] = field(init=False, repr=False, compare=False)
    #: Row key -> decoded state, capped at :data:`DECODE_MEMO_CAP`.
    _memo: dict = field(
        init=False, repr=False, compare=False, default_factory=dict
    )
    #: Integer row -> its decoded field values (payload schemas only),
    #: capped the same way.
    _heads: dict = field(
        init=False, repr=False, compare=False, default_factory=dict
    )
    #: Field values in ``names + payload`` order -> state.
    _build: Callable[[tuple], Any] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        names = tuple(f.name for f in self.fields)
        everything = names + tuple(self.payload)
        if len(set(everything)) != len(everything):
            raise ValueError(
                f"duplicate column names in schema: {list(everything)}"
            )
        object.__setattr__(self, "names", names)
        state_type = self.state_type
        init = (
            [f.name for f in dataclasses.fields(state_type) if f.init]
            if dataclasses.is_dataclass(state_type)
            else None
        )
        if init == list(everything):
            # Positional construction skips a kwargs dict per decode.
            def build(values: tuple) -> Any:
                return state_type(*values)

        else:

            def build(values: tuple) -> Any:
                return state_type(**dict(zip(everything, values)))

        object.__setattr__(self, "_build", build)

    def encode_state(self, state: Any) -> tuple[int, ...]:
        """Encode one state object into its (integer) column row."""
        return tuple(f.encode(getattr(state, f.name)) for f in self.fields)

    def payload_of(self, state: Any) -> tuple[object, ...]:
        """One state object's payload values, in ``payload`` order."""
        return tuple(getattr(state, name) for name in self.payload)

    def decode_row(
        self, row: Sequence[int], payload: Sequence[object] = ()
    ) -> Any:
        """The state object of one integer row and its payload values.

        Equal rows decode to one shared object (states are immutable):
        the memo keeps the last decodes, up to
        :data:`DECODE_MEMO_CAP` rows, and is emptied when full.  Payload
        values enter the memo key by ``id()`` — they need not be
        hashable (a snapshot's acks hold dicts) — and the memoized
        state keeps them alive, so a key's ids cannot be reused while
        the entry exists.
        """
        return self.decode_rows([tuple(row)], [[v] for v in payload])[0]

    def decode_rows(
        self,
        rows: Iterable[tuple[int, ...]],
        payload: Sequence[Sequence[object]] = (),
    ) -> list[Any]:
        """:meth:`decode_row` over many rows.

        ``payload`` holds one sequence per payload field, aligned with
        ``rows`` (column-wise, as the block gathers them).
        """
        get = self._memo.get
        miss = self._miss
        out = []
        append = out.append
        if not self.payload:
            for row in rows:
                state = get(row)
                append(miss(row, row, ()) if state is None else state)
            return out
        keys = zip(rows, *(map(id, col) for col in payload))
        for key, extra in zip(keys, zip(*payload)):
            state = get(key)
            append(miss(key, key[0], extra) if state is None else state)
        return out

    def _miss(self, key: tuple, head: tuple, extra: tuple) -> Any:
        """Decode and memoize the state of ``key`` (``head`` + ``extra``)."""
        # Payload rows that differ only in payload share one decode of
        # their integer head (a star's leaves feed back with one row and
        # distinct acks).
        heads = self._heads
        values = heads.get(head)
        if values is None:
            values = tuple(f.decode(v) for f, v in zip(self.fields, head))
            if extra:
                if len(heads) >= DECODE_MEMO_CAP:
                    heads.clear()
                heads[head] = values
        state = self._build(values + extra)
        memo = self._memo
        if len(memo) >= DECODE_MEMO_CAP:
            memo.clear()
        memo[key] = state
        return state

"""Columnar state storage: one flat array per variable.

A :class:`ColumnBlock` holds a whole configuration as per-variable flat
arrays indexed by node id — the columnar transpose of the object
engine's tuple-of-states :class:`~repro.runtime.state.Configuration`.
Writes are in-place and O(written nodes); the object engine instead
copies the full state tuple on every step, which is the O(N)-per-step
cost the columnar engine removes.

Bidirectional conversion keeps the object-level API alive: monitors,
traces, model checkers and the chaos replay oracle all receive ordinary
:class:`Configuration` objects materialized on demand.  Materialization
is incremental: every write records the written nodes as *stale*, and
the next :meth:`ColumnBlock.materialize` decodes only those — one
gather per field over the stale index, rows decoded through the
schema's memo — and patches the previous per-node state list.
Unwritten nodes keep their exact state objects, and the assembled
``Configuration`` is reused until any write happens, so a no-op step
returns the *same* configuration object, preserving the identity
guarantee the incremental engine's dirty-set filtering established.

:meth:`ColumnBlock.snapshot` hands out the same configuration without
decoding it: a :class:`~repro.runtime.state.LazyConfiguration` that
decodes on first read.  The block keeps a weak reference to it, and
every write first resolves it if it is still referenced, so a snapshot
nobody keeps costs nothing and one somebody keeps shows its own
version; once resolved it *is* the block's cached configuration.

Payload fields of the schema live in :attr:`ColumnBlock.payload`, one
reference per node (a list on the pure backend, a ``dtype=object``
ndarray on numpy); they are written through the same two calls and
decoded alongside the integer columns.
"""

from __future__ import annotations

import weakref
from typing import Sequence

from repro.columnar.backend import make_column, make_objects
from repro.columnar.schema import ColumnSchema
from repro.runtime.state import Configuration, LazyConfiguration, NodeState

__all__ = ["ColumnBlock"]


class ColumnBlock:
    """Flat per-variable columns for one configuration.

    ``columns`` maps field name → backing array (``array.array`` or
    ndarray, per backend) and ``payload`` maps each payload field name
    → its reference column.  Kernels read both directly; all writes
    must go through :meth:`write_row` / :meth:`write_columns` so
    materialization stays honest.
    """

    __slots__ = (
        "schema",
        "backend",
        "n",
        "columns",
        "payload",
        "_cols",
        "_payload_cols",
        "_targets",
        "_states",
        "_config",
        "_lazy",
        "_stale",
        "_stale_arrays",
        "_stale_count",
        "_all_stale",
    )

    def __init__(
        self, schema: ColumnSchema, backend: str, configuration: Configuration
    ) -> None:
        self.schema = schema
        self.backend = backend
        self.n = len(configuration)
        rows = [schema.encode_state(state) for state in configuration]
        self.columns = {
            f.name: make_column(
                backend, f.typecode, (row[i] for row in rows)
            )
            for i, f in enumerate(schema.fields)
        }
        self.payload = {
            name: make_objects(
                backend, (getattr(state, name) for state in configuration)
            )
            for name in schema.payload
        }
        #: The columns in schema field order, then the payload columns.
        self._cols = tuple(self.columns[name] for name in schema.names)
        self._payload_cols = tuple(self.payload[n] for n in schema.payload)
        #: Every writable column by name.
        self._targets = {**self.columns, **self.payload}
        # Per-node decoded states, seeded with the exact objects of the
        # source configuration (no decode needed until a write).
        self._states: list[NodeState] = list(configuration.states)
        self._config: Configuration | None = configuration
        #: Weak reference to the unresolved snapshot of this version.
        self._lazy: weakref.ref | None = None
        self._clear_stale()

    # ------------------------------------------------------------------
    # Stale-node bookkeeping
    # ------------------------------------------------------------------
    def _clear_stale(self) -> None:
        #: Nodes written one at a time, and index arrays written whole.
        #: Duplicates are harmless (a re-decode is idempotent); once the
        #: recorded count exceeds ``n`` the lists collapse into
        #: ``_all_stale`` so their memory stays O(n) even when nothing
        #: materializes.
        self._stale: list[int] = []
        self._stale_arrays: list = []
        self._stale_count = 0
        self._all_stale = False

    def settle(self) -> None:
        """Resolve a snapshot of this version still held somewhere
        (before every write, and before the block is dropped)."""
        ref = self._lazy
        if ref is not None:
            lazy = ref()
            if lazy is not None and not lazy.resolved:
                lazy.resolve()
            self._lazy = None

    def _note_stale(self, count: int) -> None:
        self._config = None
        self._stale_count += count
        if self._stale_count > self.n and not self._all_stale:
            self._all_stale = True
            self._stale = []
            self._stale_arrays = []

    # ------------------------------------------------------------------
    # Row and column writes
    # ------------------------------------------------------------------
    def read_row(self, p: int) -> tuple[int, ...]:
        """Node ``p``'s raw integer column values, in schema field order."""
        return tuple(int(col[p]) for col in self._cols)

    def write_row(
        self, p: int, row: Sequence[int], payload: Sequence[object] = ()
    ) -> None:
        """Overwrite node ``p``'s columns and mark it stale.

        ``payload``, when given, holds the new payload values in schema
        order.
        """
        self.settle()
        for col, value in zip(self._cols, row):
            col[p] = value
        for col, value in zip(self._payload_cols, payload):
            col[p] = value
        if not self._all_stale:
            self._stale.append(p)
        self._note_stale(1)

    def write_columns(self, idx, values: Sequence[tuple[str, object]]) -> None:
        """Whole-column writes: ``columns[name][idx] = vals`` per field.

        ``idx`` is an index array (ndarray on the numpy backend, any int
        sequence on the pure one) and ``values`` pairs each written
        field — integer or payload — with one value per index (an
        object ndarray for a payload field on numpy).  Fields not
        listed keep their values.  An empty ``idx`` writes nothing and
        invalidates nothing.
        """
        size = len(idx)
        if not size:
            return
        self.settle()
        columns = self._targets
        if self.backend == "numpy":
            for name, vals in values:
                columns[name][idx] = vals
        else:
            for name, vals in values:
                col = columns[name]
                for p, v in zip(idx, vals):
                    col[p] = v
        if not self._all_stale:
            self._stale_arrays.append(idx)
        self._note_stale(size)

    def _refresh(self) -> None:
        """Decode every stale node and patch the per-node state list."""
        if self._all_stale:
            idx = range(self.n)
        else:
            numpy = self.backend == "numpy"
            idx = list(self._stale)
            for arr in self._stale_arrays:
                idx.extend(arr.tolist() if numpy else arr)
        self._clear_stale()
        if not idx:
            return
        # A handful of nodes read faster one element at a time than
        # through a fancy-index gather.
        if self.backend == "numpy" and len(idx) > 8:
            import numpy as np

            at = np.asarray(idx, dtype=np.int64)
            gathered = [col[at].tolist() for col in self._cols]
            payload = [col[at].tolist() for col in self._payload_cols]
        else:
            gathered = [[int(col[p]) for p in idx] for col in self._cols]
            payload = [[col[p] for p in idx] for col in self._payload_cols]
        decoded = self.schema.decode_rows(zip(*gathered), payload)
        states = self._states
        for p, state in zip(idx, decoded):
            states[p] = state

    # ------------------------------------------------------------------
    # Object-level conversion
    # ------------------------------------------------------------------
    def materialize(self) -> Configuration:
        """The block as an object :class:`Configuration` (cached).

        Consecutive calls with no intervening write return the same
        object, and unwritten nodes reuse their previously decoded
        state objects — successive materializations share storage the
        same way object-engine successors share unwritten states.
        """
        config = self._config
        if config is None:
            self._refresh()
            states = tuple(self._states)
            ref = self._lazy
            lazy = ref() if ref is not None else None
            self._lazy = None
            if lazy is not None and not lazy.resolved:
                # A snapshot of this version is out: it becomes the
                # cached object, so both views stay one object.
                lazy.resolve(states)
                config = lazy
            else:
                config = Configuration(states)
            self._config = config
        return config

    def snapshot(self, source=None) -> Configuration:
        """This version as a configuration, decoded only when read.

        Returns the cached configuration when there is one, else a
        :class:`~repro.runtime.state.LazyConfiguration` — the same
        object until the next write, at which point the block resolves
        it first if anything still references it.  ``source`` is what
        the snapshot calls to resolve (default :meth:`materialize`; it
        must end in this block's :meth:`materialize`).
        """
        config = self._config
        if config is not None:
            return config
        ref = self._lazy
        lazy = ref() if ref is not None else None
        if lazy is None:
            lazy = LazyConfiguration(source or self.materialize)
            self._lazy = weakref.ref(lazy)
        return lazy

    def load(self, configuration: Configuration) -> None:
        """Re-encode every column from ``configuration`` (transient fault)."""
        if len(configuration) != self.n:
            raise ValueError(
                f"configuration has {len(configuration)} states for an "
                f"{self.n}-node block"
            )
        self.settle()
        for f, column in zip(self.schema.fields, self._cols):
            encode = f.encode
            for p, state in enumerate(configuration.states):
                column[p] = encode(getattr(state, f.name))
        for name, column in zip(self.schema.payload, self._payload_cols):
            for p, state in enumerate(configuration.states):
                column[p] = getattr(state, name)
        self._states = list(configuration.states)
        self._config = configuration
        self._lazy = None
        self._clear_stale()

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
"""

from __future__ import annotations

from typing import Sequence

from repro.columnar.backend import make_column
from repro.columnar.schema import ColumnSchema
from repro.runtime.state import Configuration, NodeState

__all__ = ["ColumnBlock"]


class ColumnBlock:
    """Flat per-variable columns for one configuration.

    ``columns`` maps field name → backing array (``array.array`` or
    ndarray, per backend).  Kernels read the arrays directly; all
    writes must go through :meth:`write_row` / :meth:`write_columns`
    so materialization stays honest.
    """

    __slots__ = (
        "schema",
        "backend",
        "n",
        "columns",
        "_cols",
        "_states",
        "_config",
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
        #: The columns in schema field order.
        self._cols = tuple(self.columns[name] for name in schema.names)
        # Per-node decoded states, seeded with the exact objects of the
        # source configuration (no decode needed until a write).
        self._states: list[NodeState] = list(configuration.states)
        self._config: Configuration | None = configuration
        self._clear_stale()

    # ------------------------------------------------------------------
    # Stale-node bookkeeping
    # ------------------------------------------------------------------
    def _clear_stale(self) -> None:
        #: Nodes written one at a time, and index arrays written whole.
        #: Duplicates are harmless (a re-decode is idempotent); once the
        #: recorded count exceeds ``n`` the lists collapse into
        #: ``_all_stale`` so their memory stays O(n) even when nothing
        #: materializes (the object-statement kernels never do).
        self._stale: list[int] = []
        self._stale_arrays: list = []
        self._stale_count = 0
        self._all_stale = False

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
        """Node ``p``'s raw column values, in schema field order."""
        return tuple(int(col[p]) for col in self._cols)

    def write_row(self, p: int, row: Sequence[int]) -> None:
        """Overwrite node ``p``'s columns and mark it stale."""
        for col, value in zip(self._cols, row):
            col[p] = value
        if not self._all_stale:
            self._stale.append(p)
        self._note_stale(1)

    def write_columns(self, idx, values: Sequence[tuple[str, object]]) -> None:
        """Whole-column writes: ``columns[name][idx] = vals`` per field.

        ``idx`` is an index array (ndarray on the numpy backend, any int
        sequence on the pure one) and ``values`` pairs each written
        field with one value per index.  Fields not listed keep their
        values.  An empty ``idx`` writes nothing and invalidates
        nothing.
        """
        size = len(idx)
        if not size:
            return
        columns = self.columns
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
        else:
            gathered = [[int(col[p]) for p in idx] for col in self._cols]
        states = self._states
        for p, state in zip(idx, self.schema.decode_rows(zip(*gathered))):
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
            config = Configuration(tuple(self._states))
            self._config = config
        return config

    def load(self, configuration: Configuration) -> None:
        """Re-encode every column from ``configuration`` (transient fault)."""
        if len(configuration) != self.n:
            raise ValueError(
                f"configuration has {len(configuration)} states for an "
                f"{self.n}-node block"
            )
        for f, column in zip(self.schema.fields, self._cols):
            encode = f.encode
            for p, state in enumerate(configuration.states):
                column[p] = encode(getattr(state, f.name))
        self._states = list(configuration.states)
        self._config = configuration
        self._clear_stale()

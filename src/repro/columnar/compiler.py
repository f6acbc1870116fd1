"""Generic guard-expression compiler: spec → columnar kernel.

:class:`CompiledSpecKernel` turns a protocol's declarative
:class:`~repro.columnar.expr.ColumnarSpec` into a kernel satisfying the
columnar engine interface (``load`` / ``enabled_map`` /
``execute_selection`` / ``apply_updates``), replacing the per-protocol
hand transcription the snap-PIF kernel used to be.  The same expression
tree is evaluated two ways:

* **scalar** — each IR node compiles once into a small closure
  (``fn(cols, p, memo)`` for owner scope, ``fn(cols, p, q)`` for fold
  bodies); neighborhood folds run as loops over the node's CSR slice
  and are memoized per node pass, so subexpressions shared between
  guards (``Sum_p``, ``Potential_p``…) are folded once.  Used by the
  pure backend always and by the numpy backend on small dirty regions.
* **vectorized** (numpy backend, regions ≥ :data:`VECTOR_MIN_NODES`) —
  the tree is interpreted over whole-region arrays: own reads become
  fancy indexing, parent gathers a clamped take, and folds one
  :func:`segment_reduce` over the gathered edge arrays.

Mask-bit ``i`` of a node equals guard ``i`` of its role's program —
DESIGN.md §12 argues why both evaluators agree with per-node
``Action.enabled``, and ``tests/columnar`` cross-checks all three.

Degree-0 nodes (churn can isolate a node mid-run) are handled in
:func:`segment_reduce` itself: empty CSR segments are dropped from the
``reduceat`` index list and patched with the fold identity, instead of
aliasing the next segment's result (``np.ufunc.reduceat`` gives an
empty segment the *single element* at its offset, and clamping offsets
corrupts the preceding segment).

A step is two phases.  Phase 1 (:meth:`CompiledSpecKernel.pending_updates`)
evaluates every statement against the pre-step columns and writes
nothing — the simultaneous-write semantics of the model.  On the numpy
backend a group of ≥ :data:`VECTOR_MIN_NODES` nodes running the same
action, and any non-bulk node with that many neighbors (a star's root),
is interpreted over arrays and yields ``(changed index array,
[(field, values)])``; the rest run the scalar closures and yield rows.
Phase 2 (:meth:`CompiledSpecKernel.write_pending`) lands each vector
group with one ``col[idx] = vals`` per field.  Mask repair then gathers
``dirty ∪ N(dirty)`` from the CSR index and re-evaluates it the same
two ways.

Actions with a host hook (:class:`~repro.columnar.expr.ActionSpec`)
also compute the schema's payload fields: phase 1 calls the hook once
per action group with a :class:`HostGroup` view of the pre-step state
and the IR's new values, and phase 2 lands the returned payload with
the integer writes.  A node whose only change is a payload field is
written and marked stale for decode but needs no mask repair (guards
never read payload).  Hooks may be impure, so such kernels opt out of
successor lockstep validation (``validates_successor``).
"""

from __future__ import annotations

import time
import weakref
from operator import is_not as _is_not
from typing import Callable, Iterable, Mapping, NamedTuple

from repro import telemetry as _telemetry
from repro.columnar.backend import make_column, make_objects
from repro.columnar.block import ColumnBlock
from repro.columnar.csr import CSRIndex
from repro.columnar.expr import (
    Add,
    And,
    ColumnarSpec,
    Const,
    Eq,
    Expr,
    FOLDS,
    Ge,
    Gt,
    Le,
    Lt,
    Min2,
    Nbr,
    NbrAll,
    NbrArgMinFirst,
    NbrExists,
    NbrId,
    NbrMin,
    NbrSum,
    Ne,
    NodeId,
    Not,
    Or,
    Own,
    Ptr,
    Sub,
)
from repro.errors import ProtocolError
from repro.runtime.network import Network
from repro.runtime.protocol import Action, Protocol
from repro.runtime.state import Configuration, NodeState
from repro.telemetry.registry import TIME_BOUNDS

__all__ = [
    "CompiledSpecKernel",
    "HostGroup",
    "VECTOR_MIN_NODES",
    "csr_for",
    "segment_reduce",
]

#: Below this many affected nodes the numpy backend evaluates masks
#: scalarly — gather/reduce setup costs more than the fold it replaces.
VECTOR_MIN_NODES = 48

#: Sentinel larger than any in-domain column value (levels, counts and
#: node ids are all bounded by N' ≤ 2^62); min folds use it as identity.
_BIG = 1 << 62

_MISSING = object()

#: One CSR index per Network, shared by every kernel compiled for it.
#: Weakly keyed — Network objects are immutable (topology churn swaps
#: the whole Network, and the runtime recompiles), so a cached index
#: can never go stale, and transient networks do not leak.
_CSR_CACHE: "weakref.WeakKeyDictionary[Network, CSRIndex]" = (
    weakref.WeakKeyDictionary()
)


def csr_for(network: Network) -> CSRIndex:
    """The (cached) CSR neighbor index of ``network``."""
    csr = _CSR_CACHE.get(network)
    if csr is None:
        csr = CSRIndex(network)
        _CSR_CACHE[network] = csr
    return csr


def segment_reduce(ufunc, values, offsets, counts, identity):
    """Per-segment ``ufunc`` reduction that is safe for empty segments.

    ``values`` is the concatenation of variable-length segments;
    ``offsets[i]`` is segment ``i``'s start and ``counts[i]`` its
    length (0 allowed).  Returns one reduced value per segment, with
    empty segments yielding ``identity``.

    Plain ``ufunc.reduceat(values, offsets)`` is wrong for empty
    segments twice over: a zero-length segment returns the single
    element ``values[offset]`` (aliasing the *next* segment's first
    element), and a trailing empty segment's offset equals
    ``len(values)``, which ``reduceat`` rejects.  Clamping offsets is
    also wrong — it silently truncates the preceding non-empty segment.
    The sound fix: reduce only the non-empty segments (their offsets
    are strictly increasing and in range by construction) and fill the
    empty ones with the identity.
    """
    import numpy as np

    if int(counts.min(initial=1)) > 0:
        return ufunc.reduceat(values, offsets)
    out_dtype = values.dtype
    out = np.full(counts.shape, identity, dtype=out_dtype)
    nz = np.nonzero(counts)[0]
    if nz.size:
        out[nz] = ufunc.reduceat(values, offsets[nz])
    return out


def _csr_slices(indptr, nodes):
    """``(counts, offsets, pos)`` of ``nodes``' concatenated CSR slices.

    ``counts[i]`` is node ``i``'s degree, ``offsets[i]`` where its slice
    starts in the concatenation, and ``pos`` every edge's position in
    the CSR ``indices`` array, node by node in local order (zero-degree
    nodes contribute no edges).
    """
    import numpy as np

    starts = indptr[nodes]
    counts = indptr[nodes + 1] - starts
    offsets = np.cumsum(counts) - counts
    pos = (
        np.arange(int(counts.sum()), dtype=np.int64)
        - np.repeat(offsets, counts)
        + np.repeat(starts, counts)
    )
    return counts, offsets, pos


class _Scope(NamedTuple):
    """One whole-region vector evaluation scope (see ``_vector_scope``)."""

    A: object
    vn: Callable
    ve: Callable
    truthy: Callable
    owner: object
    nbr: object


class HostGroup:
    """One action group as its host hook sees it in phase 1.

    ``idx`` holds the group's nodes in selection order (an int64 ndarray
    on the numpy backend, a list on the pure one).  ``payload`` holds
    the pre-step payload columns and ``new`` maps each field the
    action's IR updates to its new values, aligned with ``idx``;
    :meth:`edges` reads the pre-step integer columns through IR.  All
    of it is read-only: the kernel lands what the hook returns in
    phase 2.
    """

    __slots__ = ("idx", "new", "payload", "_kernel")

    def __init__(self, kernel: "CompiledSpecKernel", idx, new) -> None:
        self.idx = idx
        self.new = new
        self.payload = kernel.block.payload
        self._kernel = kernel

    def __len__(self) -> int:
        return len(self.idx)

    @property
    def nodes(self) -> list[int]:
        """``idx`` as a list of ints."""
        idx = self.idx
        return idx if isinstance(idx, list) else idx.tolist()

    def fill(self, value: object):
        """One reference to ``value`` per node, in payload storage form."""
        return make_objects(self._kernel.backend, [value] * len(self.idx))

    def take(self, column, at):
        """``column``'s entries at the node ids ``at`` (one vector gather
        on numpy; a payload column yields references, not copies)."""
        if isinstance(column, list):
            return [column[q] for q in at]
        return column[at]

    def edges(self, nodes, where: Expr) -> tuple[list[int], list[int]]:
        """See :meth:`CompiledSpecKernel.host_edges`."""
        return self._kernel.host_edges(nodes, where)


def _validate_expr(
    expr: Expr, *, in_guard: bool, fields: frozenset, where: str
) -> None:
    """Static checks the evaluators rely on (fail at compile, not step)."""

    def visit(e: Expr, in_fold: bool) -> None:
        if isinstance(e, (Nbr, NbrId)) and not in_fold:
            raise ProtocolError(
                f"{where}: {type(e).__name__} outside a neighborhood fold"
            )
        if isinstance(e, (Own, Nbr)) and e.field not in fields:
            raise ProtocolError(
                f"{where}: unknown column {e.field!r}"
            )
        if isinstance(e, Ptr) and (
            e.field not in fields or e.ptr_field not in fields
        ):
            raise ProtocolError(
                f"{where}: unknown column in Ptr({e.ptr_field!r}, {e.field!r})"
            )
        if isinstance(e, FOLDS):
            if in_fold:
                raise ProtocolError(
                    f"{where}: neighborhood folds cannot nest"
                )
            if isinstance(e, NbrMin):
                if in_guard and e.default is None:
                    raise ProtocolError(
                        f"{where}: NbrMin in a guard must provide a "
                        f"default (scalar and vectorized evaluation "
                        f"would diverge on an empty match set)"
                    )
                visit(e.value, True)
                if e.where is not None:
                    visit(e.where, True)
                if e.default is not None:
                    visit(e.default, False)  # defaults are owner-scope
                return
            for child in e.children():
                visit(child, True)
            return
        for child in e.children():
            visit(child, in_fold)

    visit(expr, False)


class CompiledSpecKernel:
    """Columnar kernel compiled from one ``(protocol, network, spec)``."""

    def __init__(
        self,
        protocol: Protocol,
        network: Network,
        backend: str,
        spec: ColumnarSpec,
    ) -> None:
        self.protocol = protocol
        self.network = network
        self.backend = backend
        self.spec = spec
        self.schema = spec.schema
        self.csr = csr_for(network)
        self.n = network.n
        #: Whether the lockstep validator may re-execute selections
        #: against the object engine (false when host hooks exist: an
        #: impure hook must run exactly once per step).
        self.validates_successor = not spec.has_host_hooks

        schema_names = set(self.schema.names)
        static_cols: dict[str, object] = {}
        if spec.statics:
            for name, builder in spec.statics.items():
                if name in schema_names:
                    raise ProtocolError(
                        f"static column {name!r} collides with a schema column"
                    )
                values = [int(v) for v in builder(network)]
                if len(values) != self.n:
                    raise ProtocolError(
                        f"static column {name!r} has {len(values)} values "
                        f"for an {self.n}-node network"
                    )
                static_cols[name] = make_column(backend, "q", values)
        self._static_cols = static_cols
        fields = frozenset(schema_names | set(static_cols))
        self._fields = fields

        # Role table + spec/object program agreement (checks run against
        # one representative node per role; node_actions also triggers
        # the protocol's own network validation).
        roles = spec.roles
        programs = spec.programs
        role_keys: list[str] = []
        for p in range(self.n):
            role = roles(p)
            if role not in programs:
                raise ProtocolError(
                    f"node {p} has role {role!r} with no program in the spec"
                )
            role_keys.append(role)
        self._role_keys = role_keys
        self._nonbulk = [
            p for p in range(self.n) if role_keys[p] != spec.bulk_role
        ]
        #: Whether the numpy interpreters may run at all.
        self._vector = backend == "numpy" and self.n > 1
        #: Non-bulk nodes whose folds are wide enough to evaluate as
        #: arrays even alone (a star's root folds over every leaf).
        self._wide = (
            frozenset(
                p
                for p in self._nonbulk
                if self.csr.degree(p) >= VECTOR_MIN_NODES
            )
            if self._vector
            else frozenset()
        )
        representatives: dict[str, int] = {}
        for p, role in enumerate(role_keys):
            representatives.setdefault(role, p)
        for role, rep in representatives.items():
            spec_names = [a.name for a in programs[role]]
            object_names = [a.name for a in protocol.node_actions(rep, network)]
            if spec_names != object_names:
                raise ProtocolError(
                    f"columnar spec for role {role!r} disagrees with the "
                    f"object program at node {rep}: "
                    f"{spec_names} != {object_names}"
                )

        # Compile guards and statement updates per role.
        field_index = {name: i for i, name in enumerate(self.schema.names)}
        self._field_index = field_index
        self._guards: dict[str, tuple[Callable, ...]] = {}
        self._dispatch: dict[str, dict[str, tuple]] = {}
        self._aspecs = {
            role: {a.name: a for a in program}
            for role, program in programs.items()
        }
        for role, program in programs.items():
            guard_fns = []
            dispatch: dict[str, tuple] = {}
            for bit, aspec in enumerate(program):
                where = f"role {role!r}, action {aspec.name!r}"
                _validate_expr(
                    aspec.guard, in_guard=True, fields=fields, where=where
                )
                guard_fns.append(self._compile_node(aspec.guard))
                compiled = []
                for fname, uexpr in aspec.updates.items():
                    if fname not in field_index:
                        raise ProtocolError(
                            f"{where}: update target {fname!r} is not "
                            f"a schema column"
                        )
                    _validate_expr(
                        uexpr, in_guard=False, fields=fields, where=where
                    )
                    compiled.append(
                        (field_index[fname], self._compile_node(uexpr))
                    )
                if aspec.host is not None and not self.schema.payload:
                    raise ProtocolError(
                        f"{where}: host hook on a schema without payload "
                        f"fields"
                    )
                dispatch[aspec.name] = (bit, tuple(compiled), aspec.host)
            self._guards[role] = tuple(guard_fns)
            self._dispatch[role] = dispatch

        #: ``node << _mask_width | mask`` -> that node's enabled actions.
        self._mask_actions: dict[int, list[Action]] = {}
        self._mask_width = max(len(program) for program in programs.values())
        self.block: ColumnBlock | None = None
        self.cols: dict[str, object] = {}
        # Guard masks: an int64 array on the numpy backend (the enabled
        # set is its nonzero index), a list plus an explicit enabled set
        # on the pure one.
        if backend == "numpy":
            import numpy as np

            self._masks = np.zeros(self.n, dtype=np.int64)
        else:
            self._masks = [0] * self.n
        self._enabled: set[int] = set()
        #: ``id(expr) -> (expr, closure)`` for :meth:`host_edges`.
        self._edge_preds: dict[int, tuple[Expr, Callable]] = {}

    # ------------------------------------------------------------------
    # Kernel interface (used by ColumnarRuntime)
    # ------------------------------------------------------------------
    def load(self, configuration: Configuration) -> None:
        """(Re-)encode the columns and recompute every mask."""
        if self.block is None or len(configuration) != self.n:
            self.block = ColumnBlock(self.schema, self.backend, configuration)
            self.cols = {**self.block.columns, **self._static_cols}
        else:
            self.block.load(configuration)
        self._enabled.clear()
        self._recompute_masks(range(self.n))

    def materialize(self) -> Configuration:
        return self.block.materialize()

    def enabled_map(self) -> dict[int, list[Action]]:
        """``{node: enabled actions}`` in ascending node order.

        Byte-identical (same keys, same order, same ``Action`` objects)
        to :meth:`Protocol.enabled_map` on the materialized
        configuration — the property the lockstep validator asserts.
        A node's list is memoized per mask and shared between steps,
        as the incremental engine shares unchanged entries; callers
        must not mutate it (``Simulator.enabled()`` hands out copies).
        """
        masks = self._masks
        width = self._mask_width
        if self.backend == "numpy":
            import numpy as np

            on = np.flatnonzero(masks)
            nodes = on.tolist()
            keys = ((on << width) | masks[on]).tolist()
        else:
            nodes = sorted(self._enabled)
            keys = [p << width | masks[p] for p in nodes]
        memo = self._mask_actions
        found = list(map(memo.get, keys))
        if None in found:
            protocol = self.protocol
            network = self.network
            low = (1 << width) - 1
            for i, key in enumerate(keys):
                if found[i] is None:
                    mask = key & low
                    program = protocol.node_actions(key >> width, network)
                    found[i] = memo[key] = [
                        a
                        for bit, a in enumerate(program)
                        if mask >> bit & 1
                    ]
        return dict(zip(nodes, found))

    def execute_selection(self, selection: Mapping[int, Action]) -> set[int]:
        """One computation step: simultaneous writes, dirty-region repair.

        Returns every written node; masks are repaired around the nodes
        whose integer columns changed.
        """
        # Phase 1: every statement reads the pre-step columns.
        pending = self.pending_updates(selection.items())
        # Phase 2: all writes land simultaneously.
        dirty = self.write_pending(pending)
        if dirty:
            rows, groups = pending
            if not groups:
                self._refresh(dirty)
            elif self.backend == "numpy":
                # The vector path ran: hand mask repair an index array.
                import numpy as np

                parts = [repair for _, _, repair in groups]
                parts.append(np.array([p for p, _ in rows], dtype=np.int64))
                self._refresh(np.concatenate(parts))
            else:
                repair = [p for p, _ in rows]
                for _, _, part in groups:
                    repair.extend(part)
                self._refresh(repair)
        return dirty

    def pending_updates(self, items: Iterable[tuple[int, Action]]):
        """Phase 1 of a step: statements evaluated on pre-step columns.

        ``items`` is ``(node, action)`` pairs.  Returns ``(rows,
        groups)`` without writing anything: ``rows`` lists the changed
        scalar-path nodes as ``(node, new_row)``; ``groups`` lists each
        vector-path or host-hooked group as ``(written index array,
        [(field, values)], mask-repair index array)``.
        :meth:`write_pending` lands both.  Pure with respect to kernel
        state when the spec has no host hooks (column reads stay within
        one hop of the given nodes), which is what lets the region
        stepper evaluate disjoint regions concurrently (DESIGN.md §14).
        The vector path is bit-identical to the scalar one because both
        interpret the same IR over int64.
        """
        role_keys = self._role_keys
        dispatch_by_role = self._dispatch
        by_action: dict[tuple[str, str], list[int]] = {}
        for p, action in items:
            key = (role_keys[p], action.name)
            nodes = by_action.get(key)
            if nodes is None:
                if key[1] not in dispatch_by_role[key[0]]:
                    raise ProtocolError(
                        f"action {key[1]!r} is not in node {p}'s program"
                    )
                nodes = by_action[key] = []
            nodes.append(p)
        rows: list[tuple[int, tuple[int, ...]]] = []
        groups: list[tuple[object, list[tuple[str, object]], object]] = []
        masks = self._masks
        bulk = self.spec.bulk_role
        for (role, name), nodes in by_action.items():
            bit, updates, host = dispatch_by_role[role][name]
            vector = self._vector and (
                len(nodes) >= VECTOR_MIN_NODES
                or (role != bulk and self._wide.intersection(nodes))
            )
            if vector:
                import numpy as np

                at = np.array(nodes, dtype=np.int64)
                # One vector check of the whole group's guard bit.
                bad = at[(masks[at] >> bit & 1) == 0].tolist()
            else:
                bad = [p for p in nodes if not masks[p] >> bit & 1]
            if bad:
                raise ProtocolError(
                    f"action {name!r} executed at node {min(bad)} "
                    f"while its guard is false"
                )
            aspec = self._aspecs[role][name]
            if host is not None:
                if vector:
                    new = self._new_vectorized(at, aspec)
                    groups.append(self._hosted(at, new, host))
                else:
                    groups.append(self._hosted_scalar(nodes, updates, host))
            elif not updates:
                continue
            elif vector:
                groups.append(self._updates_vectorized(at, aspec))
            else:
                rows.extend(self._updates_scalar(nodes, updates))
        return rows, groups

    def _updates_scalar(self, nodes, updates):
        """Changed ``(node, row)`` pairs of one action, closure by closure."""
        read_row = self.block.read_row
        cols = self.cols
        out = []
        for p in nodes:
            before = read_row(p)
            row = list(before)
            memo: dict = {}
            for idx, fn in updates:
                row[idx] = int(fn(cols, p, memo))
            after = tuple(row)
            if after != before:
                out.append((p, after))
        return out

    def _new_vectorized(self, nodes, aspec) -> dict[str, object]:
        """One action's IR updates over the ``nodes`` array, unfiltered.

        Same IR, same int64 arithmetic as the scalar closures: ``{field:
        int64 array of new values aligned with nodes}``.
        """
        import numpy as np

        scope = self._vector_scope(nodes)
        size = len(nodes)
        new: dict[str, object] = {}
        for fname, uexpr in aspec.updates.items():
            vals = np.asarray(scope.vn(uexpr))
            if vals.ndim == 0:
                vals = np.full(size, int(vals), dtype=np.int64)
            else:
                vals = vals.astype(np.int64, copy=False)
            new[fname] = vals
        return new

    def _updates_vectorized(self, nodes, aspec):
        """One action's statement over the ``nodes`` array.

        Returns ``(changed index array, [(field, values at those
        indices)], changed index array)``.
        """
        import numpy as np

        new = self._new_vectorized(nodes, aspec)
        cols = self.cols
        changed = np.zeros(len(nodes), dtype=bool)
        for fname, vals in new.items():
            changed |= vals != cols[fname][nodes]
        if changed.all():
            return nodes, list(new.items()), nodes
        at = nodes[changed]
        return at, [(f, vals[changed]) for f, vals in new.items()], at

    def _hosted_scalar(self, nodes, updates, host):
        """A host-hooked group whose IR runs through the scalar closures."""
        cols = self.cols
        names = [self.schema.names[i] for i, _ in updates]
        columns: list[list[int]] = [[] for _ in updates]
        for p in nodes:
            memo: dict = {}
            for (_, fn), out in zip(updates, columns):
                out.append(int(fn(cols, p, memo)))
        if self.backend == "numpy":
            import numpy as np

            idx = np.array(nodes, dtype=np.int64)
            columns = [np.array(c, dtype=np.int64) for c in columns]
        else:
            idx = list(nodes)
        return self._hosted(idx, dict(zip(names, columns)), host)

    def _hosted(self, idx, new, host):
        """Run ``host`` over one group and pair its payload with ``new``.

        ``idx`` holds the group's nodes and ``new`` the IR's values for
        them (int64 arrays on numpy, lists on the pure backend).
        Returns the group's ``(written, [(field, values)], repair)``
        entry: a node is written when an integer column or a payload
        reference changes, and repaired only in the first case.
        """
        payload = self.block.payload
        out = host(HostGroup(self, idx, new))
        size = len(idx)
        unknown = set(out) - set(payload)
        if unknown or any(len(vals) != size for vals in out.values()):
            raise ProtocolError(
                f"host hook must return one value per node for payload "
                f"fields only, got {sorted(out)}"
            )
        cols = self.cols
        values = list(new.items())
        if self.backend == "numpy":
            import numpy as np

            int_changed = np.zeros(size, dtype=bool)
            for fname, vals in values:
                int_changed |= vals != cols[fname][idx]
            written = int_changed.copy()
            for fname, vals in out.items():
                if not (isinstance(vals, np.ndarray) and vals.dtype == object):
                    vals = make_objects("numpy", vals)
                current = payload[fname][idx].tolist()
                written |= np.fromiter(
                    map(_is_not, vals.tolist(), current), bool, count=size
                )
                values.append((fname, vals))
            if written.all():
                return idx, values, idx[int_changed]
            return (
                idx[written],
                [(f, vals[written]) for f, vals in values],
                idx[int_changed],
            )
        int_changed = [
            any(vals[i] != cols[f][p] for f, vals in values)
            for i, p in enumerate(idx)
        ]
        written = list(int_changed)
        for fname, vals in out.items():
            vals = list(vals)
            current = payload[fname]
            for i, p in enumerate(idx):
                if vals[i] is not current[p]:
                    written[i] = True
            values.append((fname, vals))
        keep = [i for i in range(size) if written[i]]
        return (
            [idx[i] for i in keep],
            [(f, [vals[i] for i in keep]) for f, vals in values],
            [p for p, changed in zip(idx, int_changed) if changed],
        )

    def write_pending(self, pending) -> set[int]:
        """Phase 2: land :meth:`pending_updates`' writes; the dirty set.

        Vector groups land as one whole-column assignment per field,
        scalar rows one row at a time.  Masks are not repaired here.
        """
        rows, groups = pending
        block = self.block
        dirty: set[int] = set()
        numpy = self.backend == "numpy"
        for idx, values, _ in groups:
            if len(idx):
                block.write_columns(idx, values)
                dirty.update(idx.tolist() if numpy else idx)
        write_row = block.write_row
        for p, row in rows:
            write_row(p, row)
            dirty.add(p)
        return dirty

    def apply_updates(self, updates: Mapping[int, NodeState]) -> set[int]:
        """Overwrite a subset of node states (targeted transient fault)."""
        schema = self.schema
        block = self.block
        payload_cols = [block.payload[name] for name in schema.payload]
        dirty = set()
        repair = set()
        for p, state in updates.items():
            row = schema.encode_state(state)
            values = schema.payload_of(state)
            moved = row != block.read_row(p)
            if moved or any(
                v != col[p] for v, col in zip(values, payload_cols)
            ):
                block.write_row(p, row, values)
                dirty.add(p)
                if moved:
                    repair.add(p)
        if repair:
            self._refresh(repair)
        return dirty

    def host_edges(self, nodes, where: Expr) -> tuple[list[int], list[int]]:
        """The edges ``(p, q)``, ``q ∈ N(p)``, ``p ∈ nodes``, that
        satisfy the fold-body predicate ``where``.

        Returned as two lists (owners, neighbors), node by node and in
        local order within a node — the order an object statement walks
        ``ctx.neighbor_states()``.  ``where`` reads integer columns only
        (IR cannot name payload fields); it runs through the vector
        interpreter for large groups and wide nodes, else through a
        compiled closure cached per expression.
        """
        cached = self._edge_preds.get(id(where))
        if cached is None or cached[0] is not where:
            _validate_expr(
                NbrExists(where),
                in_guard=False,
                fields=self._fields,
                where="host edge predicate",
            )
            cached = self._edge_preds[id(where)] = (
                where,
                self._compile_edge(where),
            )
        if not len(nodes):
            return [], []
        if self._vector and (
            len(nodes) >= VECTOR_MIN_NODES or self._wide.intersection(nodes)
        ):
            import numpy as np

            scope = self._vector_scope(nodes)
            keep = np.broadcast_to(
                scope.truthy(scope.ve(where)), scope.nbr.shape
            )
            return scope.owner[keep].tolist(), scope.nbr[keep].tolist()
        pred = cached[1]
        cols = self.cols
        indptr, indices = self.csr.indptr, self.csr.indices
        owners: list[int] = []
        nbrs: list[int] = []
        for p in nodes:
            for i in range(indptr[p], indptr[p + 1]):
                q = indices[i]
                if pred(cols, p, q):
                    owners.append(p)
                    nbrs.append(q)
        return owners, nbrs

    # ------------------------------------------------------------------
    # Mask maintenance
    # ------------------------------------------------------------------
    def _refresh(self, dirty) -> None:
        """Re-evaluate masks on ``dirty ∪ N(dirty)`` (1-hop locality).

        ``dirty`` is a set or an index array of distinct nodes.
        """
        affected = self.affected_of(dirty)
        if _telemetry.enabled:
            start = time.perf_counter()
            self._recompute_masks(affected)
            reg = _telemetry.registry
            reg.observe("columnar.mask_eval_nodes", len(affected))
            reg.observe(
                "columnar.mask_eval.seconds",
                time.perf_counter() - start,
                TIME_BOUNDS,
            )
        else:
            self._recompute_masks(affected)

    def affected_of(self, dirty):
        """``sorted(dirty ∪ N(dirty))`` — the mask-repair set of a write.

        Large dirty sets on the numpy backend gather their CSR slices in
        one pass, mark them in a node bitmap and return its ascending
        nonzero index; small ones return a list.
        """
        if self._vector and len(dirty) >= VECTOR_MIN_NODES:
            import numpy as np

            indptr, indices = self.csr.as_numpy()
            if isinstance(dirty, np.ndarray):
                D = dirty
            else:
                D = np.fromiter(dirty, dtype=np.int64, count=len(dirty))
            _, _, pos = _csr_slices(indptr, D)
            marked = np.zeros(self.n, dtype=bool)
            marked[D] = True
            marked[indices[pos]] = True
            return np.flatnonzero(marked)
        affected = set(dirty)
        indptr, indices = self.csr.indptr, self.csr.indices
        for p in dirty:
            affected.update(indices[indptr[p] : indptr[p + 1]])
        return sorted(affected)

    def _recompute_masks(self, nodes) -> None:
        self.apply_masks(nodes, self.mask_values(nodes))

    def mask_values(self, nodes):
        """Guard masks of ``nodes`` (ascending, sized) — the pure half
        of mask repair.  Reads columns within one hop of ``nodes`` and
        writes nothing, so disjoint-region calls may run concurrently;
        :meth:`apply_masks` installs the results (main thread only).
        Returns an int64 array from the vector path, else a list.
        """
        if self._vector and len(nodes) >= VECTOR_MIN_NODES:
            return self._masks_vectorized(nodes)
        mask_of = self._mask_one if self._wide else self._mask_of
        return [mask_of(p) for p in nodes]

    def apply_masks(self, nodes, values) -> None:
        """Install :meth:`mask_values` results into the mask/enabled state."""
        masks = self._masks
        if self.backend == "numpy":
            if len(nodes) >= VECTOR_MIN_NODES:
                masks[nodes] = values
            else:
                for p, mask in zip(nodes, values):
                    masks[p] = mask
            return
        enabled = self._enabled
        for p, mask in zip(nodes, values):
            masks[p] = mask
            if mask:
                enabled.add(p)
            else:
                enabled.discard(p)

    def _mask_of(self, p: int) -> int:
        cols = self.cols
        memo: dict = {}
        mask = 0
        bit = 1
        for fn in self._guards[self._role_keys[p]]:
            if fn(cols, p, memo):
                mask |= bit
            bit <<= 1
        return mask

    def _mask_one(self, p: int) -> int:
        return self._mask_wide(p) if p in self._wide else self._mask_of(p)

    def _mask_wide(self, p: int) -> int:
        """Node ``p``'s mask through the vector interpreter (one node)."""
        scope = self._vector_scope([p])
        mask = 0
        for bit, aspec in enumerate(self.spec.programs[self._role_keys[p]]):
            if bool(scope.truthy(scope.vn(aspec.guard)).all()):
                mask |= 1 << bit
        return mask

    # ------------------------------------------------------------------
    # Scalar compilation: IR node -> closure
    # ------------------------------------------------------------------
    def _compile_node(self, expr: Expr) -> Callable:
        """Owner scope: ``fn(cols, p, memo) -> int/bool``."""
        if isinstance(expr, Const):
            value = expr.value
            return lambda cols, p, memo: value
        if isinstance(expr, Own):
            name = expr.field
            return lambda cols, p, memo: cols[name][p]
        if isinstance(expr, NodeId):
            return lambda cols, p, memo: p
        if isinstance(expr, Ptr):
            ptr_name = expr.ptr_field
            name = expr.field

            def gather(cols, p, memo):
                i = cols[ptr_name][p]
                return cols[name][i if i >= 0 else 0]

            return gather
        if isinstance(expr, And):
            fns = [self._compile_node(a) for a in expr.args]

            def conj(cols, p, memo):
                for fn in fns:
                    if not fn(cols, p, memo):
                        return False
                return True

            return conj
        if isinstance(expr, Or):
            fns = [self._compile_node(a) for a in expr.args]

            def disj(cols, p, memo):
                for fn in fns:
                    if fn(cols, p, memo):
                        return True
                return False

            return disj
        if isinstance(expr, Not):
            fn = self._compile_node(expr.arg)
            return lambda cols, p, memo: not fn(cols, p, memo)
        if isinstance(expr, FOLDS):
            return self._compile_fold(expr)
        if isinstance(expr, (Eq, Ne, Lt, Le, Gt, Ge, Add, Sub, Min2)):
            a = self._compile_node(expr.a)
            b = self._compile_node(expr.b)
            return _binop(type(expr), a, b)
        raise ProtocolError(
            f"unsupported IR node in owner scope: {type(expr).__name__}"
        )

    def _compile_edge(self, expr: Expr) -> Callable:
        """Fold-body scope: ``fn(cols, p, q) -> int/bool``."""
        if isinstance(expr, Const):
            value = expr.value
            return lambda cols, p, q: value
        if isinstance(expr, Nbr):
            name = expr.field
            return lambda cols, p, q: cols[name][q]
        if isinstance(expr, NbrId):
            return lambda cols, p, q: q
        if isinstance(expr, Own):
            name = expr.field
            return lambda cols, p, q: cols[name][p]
        if isinstance(expr, NodeId):
            return lambda cols, p, q: p
        if isinstance(expr, Ptr):
            ptr_name = expr.ptr_field
            name = expr.field

            def gather(cols, p, q):
                i = cols[ptr_name][p]
                return cols[name][i if i >= 0 else 0]

            return gather
        if isinstance(expr, And):
            fns = [self._compile_edge(a) for a in expr.args]

            def conj(cols, p, q):
                for fn in fns:
                    if not fn(cols, p, q):
                        return False
                return True

            return conj
        if isinstance(expr, Or):
            fns = [self._compile_edge(a) for a in expr.args]

            def disj(cols, p, q):
                for fn in fns:
                    if fn(cols, p, q):
                        return True
                return False

            return disj
        if isinstance(expr, Not):
            fn = self._compile_edge(expr.arg)
            return lambda cols, p, q: not fn(cols, p, q)
        if isinstance(expr, (Eq, Ne, Lt, Le, Gt, Ge, Add, Sub, Min2)):
            a = self._compile_edge(expr.a)
            b = self._compile_edge(expr.b)
            return _binop_edge(type(expr), a, b)
        raise ProtocolError(
            f"unsupported IR node in a fold body: {type(expr).__name__}"
        )

    def _compile_fold(self, expr: Expr) -> Callable:
        """One CSR-slice fold, memoized per node pass (keyed by the
        expression object's identity, so subexpressions shared between
        guards evaluate once per node)."""
        key = id(expr)
        indptr = self.csr.indptr
        indices = self.csr.indices
        if isinstance(expr, NbrExists):
            pred = self._compile_edge(expr.pred)

            def exists(cols, p, memo):
                val = memo.get(key, _MISSING)
                if val is _MISSING:
                    val = False
                    for i in range(indptr[p], indptr[p + 1]):
                        if pred(cols, p, indices[i]):
                            val = True
                            break
                    memo[key] = val
                return val

            return exists
        if isinstance(expr, NbrAll):
            pred = self._compile_edge(expr.pred)

            def forall(cols, p, memo):
                val = memo.get(key, _MISSING)
                if val is _MISSING:
                    val = True
                    for i in range(indptr[p], indptr[p + 1]):
                        if not pred(cols, p, indices[i]):
                            val = False
                            break
                    memo[key] = val
                return val

            return forall
        if isinstance(expr, NbrSum):
            value = self._compile_edge(expr.value)
            where = (
                None if expr.where is None else self._compile_edge(expr.where)
            )

            def total(cols, p, memo):
                val = memo.get(key, _MISSING)
                if val is _MISSING:
                    val = 0
                    for i in range(indptr[p], indptr[p + 1]):
                        q = indices[i]
                        if where is None or where(cols, p, q):
                            val += value(cols, p, q)
                    memo[key] = val
                return val

            return total
        if isinstance(expr, NbrMin):
            value = self._compile_edge(expr.value)
            where = (
                None if expr.where is None else self._compile_edge(expr.where)
            )
            default = (
                None
                if expr.default is None
                else self._compile_node(expr.default)
            )

            def minimum(cols, p, memo):
                val = memo.get(key, _MISSING)
                if val is _MISSING:
                    best = None
                    for i in range(indptr[p], indptr[p + 1]):
                        q = indices[i]
                        if where is None or where(cols, p, q):
                            v = value(cols, p, q)
                            if best is None or v < best:
                                best = v
                    if best is None:
                        if default is None:
                            raise ProtocolError(
                                f"NbrMin fold at node {p} matched no "
                                f"neighbor and has no default"
                            )
                        best = default(cols, p, memo)
                    val = best
                    memo[key] = val
                return val

            return minimum
        if isinstance(expr, NbrArgMinFirst):
            value = self._compile_edge(expr.value)
            where = (
                None if expr.where is None else self._compile_edge(expr.where)
            )

            def argmin(cols, p, memo):
                val = memo.get(key, _MISSING)
                if val is _MISSING:
                    best = None
                    chosen = -1
                    # Strict < keeps the *first* minimal neighbor in
                    # local order ≻_p — the object engines' candidates[0].
                    for i in range(indptr[p], indptr[p + 1]):
                        q = indices[i]
                        if where is None or where(cols, p, q):
                            v = value(cols, p, q)
                            if best is None or v < best:
                                best = v
                                chosen = q
                    val = chosen
                    memo[key] = val
                return val

            return argmin
        raise ProtocolError(f"unknown fold {type(expr).__name__}")

    # ------------------------------------------------------------------
    # Vectorized mask evaluation (numpy backend, large regions)
    # ------------------------------------------------------------------
    def _vector_scope(self, nodes):
        """Build the whole-region evaluation scope over ``nodes``.

        Returns a :class:`_Scope`: the node-id array ``A``, the memoized
        owner-scope evaluator ``vn`` (guards *and* statement updates
        interpret through it), the fold-body evaluator ``ve`` over the
        gathered edges ``(owner, nbr)``, and the boolean coercion
        helper.  Shared by :meth:`_masks_vectorized`,
        :meth:`_new_vectorized` and :meth:`host_edges` so the vectorized
        interpreters cannot drift apart.
        """
        import numpy as np

        indptr, indices = self.csr.as_numpy()
        A = np.asarray(nodes, dtype=np.int64)
        cols = {
            name: np.asarray(col) for name, col in self.cols.items()
        }
        counts, offsets, pos = _csr_slices(indptr, A)
        total_edges = len(pos)
        nbr = indices[pos]
        owner = np.repeat(A, counts)
        node_memo: dict[int, object] = {}
        edge_memo: dict[int, object] = {}

        def truthy(x):
            arr = np.asarray(x)
            return arr if arr.dtype == np.bool_ else arr != 0

        def as_edges(x):
            arr = np.asarray(x)
            if arr.ndim == 0:
                return np.full(total_edges, arr.item(), dtype=np.int64)
            return arr

        def vn(expr: Expr):
            """Owner scope: arrays over A (or numpy/python scalars)."""
            key = id(expr)
            cached = node_memo.get(key, _MISSING)
            if cached is not _MISSING:
                return cached
            out = _vn_eval(expr)
            node_memo[key] = out
            return out

        def _vn_eval(expr: Expr):
            if isinstance(expr, Const):
                return expr.value
            if isinstance(expr, Own):
                return cols[expr.field][A]
            if isinstance(expr, NodeId):
                return A
            if isinstance(expr, Ptr):
                ptr = cols[expr.ptr_field][A]
                safe = np.where(ptr < 0, 0, ptr)
                return cols[expr.field][safe]
            if isinstance(expr, And):
                out = truthy(vn(expr.args[0]))
                for a in expr.args[1:]:
                    out = out & truthy(vn(a))
                return out
            if isinstance(expr, Or):
                out = truthy(vn(expr.args[0]))
                for a in expr.args[1:]:
                    out = out | truthy(vn(a))
                return out
            if isinstance(expr, Not):
                return ~truthy(vn(expr.arg))
            if isinstance(expr, Eq):
                return vn(expr.a) == vn(expr.b)
            if isinstance(expr, Ne):
                return vn(expr.a) != vn(expr.b)
            if isinstance(expr, Lt):
                return vn(expr.a) < vn(expr.b)
            if isinstance(expr, Le):
                return vn(expr.a) <= vn(expr.b)
            if isinstance(expr, Gt):
                return vn(expr.a) > vn(expr.b)
            if isinstance(expr, Ge):
                return vn(expr.a) >= vn(expr.b)
            if isinstance(expr, Add):
                return vn(expr.a) + vn(expr.b)
            if isinstance(expr, Sub):
                return vn(expr.a) - vn(expr.b)
            if isinstance(expr, Min2):
                return np.minimum(vn(expr.a), vn(expr.b))
            if isinstance(expr, NbrExists):
                pred = as_edges(truthy(ve(expr.pred)))
                return segment_reduce(
                    np.bitwise_or, pred, offsets, counts, False
                )
            if isinstance(expr, NbrAll):
                pred = as_edges(truthy(ve(expr.pred)))
                return segment_reduce(
                    np.bitwise_and, pred, offsets, counts, True
                )
            if isinstance(expr, NbrSum):
                vals = as_edges(ve(expr.value)).astype(np.int64, copy=False)
                if expr.where is not None:
                    vals = np.where(as_edges(truthy(ve(expr.where))), vals, 0)
                return segment_reduce(np.add, vals, offsets, counts, 0)
            if isinstance(expr, NbrMin):
                vals = as_edges(ve(expr.value)).astype(np.int64, copy=False)
                if expr.where is not None:
                    vals = np.where(
                        as_edges(truthy(ve(expr.where))), vals, _BIG
                    )
                m = segment_reduce(np.minimum, vals, offsets, counts, _BIG)
                empty = m == _BIG
                if not empty.any():
                    return m
                if expr.default is None:
                    bad = int(A[np.nonzero(empty)[0][0]])
                    raise ProtocolError(
                        f"NbrMin fold at node {bad} matched no neighbor "
                        f"and has no default"
                    )
                return np.where(empty, vn(expr.default), m)
            if isinstance(expr, NbrArgMinFirst):
                if total_edges == 0:
                    return np.full(len(A), -1, dtype=np.int64)
                vals = as_edges(ve(expr.value)).astype(np.int64, copy=False)
                if expr.where is not None:
                    vals = np.where(
                        as_edges(truthy(ve(expr.where))), vals, _BIG
                    )
                m = segment_reduce(np.minimum, vals, offsets, counts, _BIG)
                m_edge = np.repeat(m, counts)
                pos_in_slice = np.arange(
                    total_edges, dtype=np.int64
                ) - np.repeat(offsets, counts)
                cand = np.where(
                    (vals == m_edge) & (vals != _BIG), pos_in_slice, _BIG
                )
                best = segment_reduce(
                    np.minimum, cand, offsets, counts, _BIG
                )
                found = best != _BIG
                idx = offsets + np.where(found, best, 0)
                idx = np.minimum(idx, total_edges - 1)
                return np.where(found, nbr[idx], -1)
            raise ProtocolError(
                f"unsupported IR node in owner scope: {type(expr).__name__}"
            )

        def ve(expr: Expr):
            """Fold-body scope: arrays over the gathered edges."""
            key = id(expr)
            cached = edge_memo.get(key, _MISSING)
            if cached is not _MISSING:
                return cached
            out = _ve_eval(expr)
            edge_memo[key] = out
            return out

        def _ve_eval(expr: Expr):
            if isinstance(expr, Const):
                return expr.value
            if isinstance(expr, Nbr):
                return cols[expr.field][nbr]
            if isinstance(expr, NbrId):
                return nbr
            if isinstance(expr, Own):
                return cols[expr.field][owner]
            if isinstance(expr, NodeId):
                return owner
            if isinstance(expr, Ptr):
                ptr = cols[expr.ptr_field][owner]
                safe = np.where(ptr < 0, 0, ptr)
                return cols[expr.field][safe]
            if isinstance(expr, And):
                out = truthy(ve(expr.args[0]))
                for a in expr.args[1:]:
                    out = out & truthy(ve(a))
                return out
            if isinstance(expr, Or):
                out = truthy(ve(expr.args[0]))
                for a in expr.args[1:]:
                    out = out | truthy(ve(a))
                return out
            if isinstance(expr, Not):
                return ~truthy(ve(expr.arg))
            if isinstance(expr, Eq):
                return ve(expr.a) == ve(expr.b)
            if isinstance(expr, Ne):
                return ve(expr.a) != ve(expr.b)
            if isinstance(expr, Lt):
                return ve(expr.a) < ve(expr.b)
            if isinstance(expr, Le):
                return ve(expr.a) <= ve(expr.b)
            if isinstance(expr, Gt):
                return ve(expr.a) > ve(expr.b)
            if isinstance(expr, Ge):
                return ve(expr.a) >= ve(expr.b)
            if isinstance(expr, Add):
                return ve(expr.a) + ve(expr.b)
            if isinstance(expr, Sub):
                return ve(expr.a) - ve(expr.b)
            if isinstance(expr, Min2):
                return np.minimum(ve(expr.a), ve(expr.b))
            raise ProtocolError(
                f"unsupported IR node in a fold body: {type(expr).__name__}"
            )

        return _Scope(A, vn, ve, truthy, owner, nbr)

    def _masks_vectorized(self, nodes):
        import numpy as np

        scope = self._vector_scope(nodes)
        A, vn, truthy = scope.A, scope.vn, scope.truthy
        program = self.spec.programs[self.spec.bulk_role]
        masks = np.zeros(len(A), dtype=np.int64)
        for bit, aspec in enumerate(program):
            g = np.broadcast_to(truthy(vn(aspec.guard)), A.shape)
            masks |= g.astype(np.int64) << bit
        # Nodes outside the bulk role (typically just the root) run a
        # different program: overwrite them one by one.
        size = len(A)
        for p in self._nonbulk:
            idx = int(np.searchsorted(A, p))
            if idx < size and int(A[idx]) == p:
                masks[idx] = self._mask_one(p)
        return masks


def _binop(op: type, a: Callable, b: Callable) -> Callable:
    if op is Eq:
        return lambda cols, p, memo: a(cols, p, memo) == b(cols, p, memo)
    if op is Ne:
        return lambda cols, p, memo: a(cols, p, memo) != b(cols, p, memo)
    if op is Lt:
        return lambda cols, p, memo: a(cols, p, memo) < b(cols, p, memo)
    if op is Le:
        return lambda cols, p, memo: a(cols, p, memo) <= b(cols, p, memo)
    if op is Gt:
        return lambda cols, p, memo: a(cols, p, memo) > b(cols, p, memo)
    if op is Ge:
        return lambda cols, p, memo: a(cols, p, memo) >= b(cols, p, memo)
    if op is Add:
        return lambda cols, p, memo: a(cols, p, memo) + b(cols, p, memo)
    if op is Sub:
        return lambda cols, p, memo: a(cols, p, memo) - b(cols, p, memo)
    if op is Min2:
        return lambda cols, p, memo: min(a(cols, p, memo), b(cols, p, memo))
    raise ProtocolError(f"unknown binary op {op.__name__}")


def _binop_edge(op: type, a: Callable, b: Callable) -> Callable:
    if op is Eq:
        return lambda cols, p, q: a(cols, p, q) == b(cols, p, q)
    if op is Ne:
        return lambda cols, p, q: a(cols, p, q) != b(cols, p, q)
    if op is Lt:
        return lambda cols, p, q: a(cols, p, q) < b(cols, p, q)
    if op is Le:
        return lambda cols, p, q: a(cols, p, q) <= b(cols, p, q)
    if op is Gt:
        return lambda cols, p, q: a(cols, p, q) > b(cols, p, q)
    if op is Ge:
        return lambda cols, p, q: a(cols, p, q) >= b(cols, p, q)
    if op is Add:
        return lambda cols, p, q: a(cols, p, q) + b(cols, p, q)
    if op is Sub:
        return lambda cols, p, q: a(cols, p, q) - b(cols, p, q)
    if op is Min2:
        return lambda cols, p, q: min(a(cols, p, q), b(cols, p, q))
    raise ProtocolError(f"unknown binary op {op.__name__}")

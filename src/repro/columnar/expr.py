"""Guard-expression IR: what a protocol's guards *are*, declaratively.

The hand-written snap-PIF kernel proved that every guard of the paper's
algorithm class is a boolean/arithmetic combination of three kinds of
1-hop reads:

* the executing node's **own** columns (:class:`Own`),
* a **parent gather** through a designated pointer column
  (:class:`Ptr` — legal because pointer domains are neighbor sets),
* **neighborhood folds** over the node's CSR slice — existence tests,
  guarded sums, guarded minima and first-minimal-neighbor selection
  (:class:`NbrExists`, :class:`NbrAll`, :class:`NbrSum`,
  :class:`NbrMin`, :class:`NbrArgMinFirst`).

This module makes that observation an API: protocols declare their
guards and statement updates as expression trees over encoded column
values, bundle them into a :class:`ColumnarSpec`, and the generic
compiler (:mod:`repro.columnar.compiler`) evaluates the same tree two
ways — a scalar fold per node (pure backend, small dirty regions) and a
numpy gather + ``reduceat`` pass (large regions) — replacing the
per-protocol hand transcription entirely.

Expressions are evaluated over the **encoded** integer domain of the
protocol's :class:`~repro.columnar.schema.ColumnSchema`: phases are
their fixed codes, booleans 0/1, optional node pointers ``-1`` for
"none".  Inside a fold, :class:`Nbr`/:class:`NbrId` refer to the
neighbor being folded over while :class:`Own`/:class:`NodeId` still
refer to the folding node; folds cannot nest.

The module is deliberately dependency-free (like
:mod:`repro.columnar.schema`) so protocol modules can build specs
without import cycles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Mapping, Sequence

__all__ = [
    "Expr",
    "Own",
    "Const",
    "NodeId",
    "Ptr",
    "Nbr",
    "NbrId",
    "And",
    "Or",
    "Not",
    "Eq",
    "Ne",
    "Lt",
    "Le",
    "Gt",
    "Ge",
    "Add",
    "Sub",
    "Min2",
    "NbrExists",
    "NbrAll",
    "NbrSum",
    "NbrMin",
    "NbrArgMinFirst",
    "ActionSpec",
    "ColumnarSpec",
    "walk",
    "FOLDS",
]


class Expr:
    """Base class of all IR nodes (identity-compared, immutable by use)."""

    __slots__ = ()

    def children(self) -> tuple["Expr", ...]:
        return ()


# ----------------------------------------------------------------------
# Leaves
# ----------------------------------------------------------------------
class Own(Expr):
    """The folding/executing node's own value in column ``field``."""

    __slots__ = ("field",)

    def __init__(self, field: str) -> None:
        self.field = field


class Const(Expr):
    """An integer constant (encode booleans as 0/1, phases as codes)."""

    __slots__ = ("value",)

    def __init__(self, value: int) -> None:
        self.value = int(value)


class NodeId(Expr):
    """The folding/executing node's identifier."""

    __slots__ = ()


class Ptr(Expr):
    """Gather ``field`` through the pointer column ``ptr_field``.

    Reads ``column[field][column[ptr_field][p]]`` — the parent-gather of
    the paper's ``GoodPif``/``GoodLevel`` predicates.  A negative
    pointer (the encoded "no parent") is clamped to row 0, making the
    gather total; specs must guard pointer-dependent terms so the
    clamped read is never semantically load-bearing (in-domain pointers
    are always real neighbors — see DESIGN.md §12).
    """

    __slots__ = ("ptr_field", "field")

    def __init__(self, ptr_field: str, field: str) -> None:
        self.ptr_field = ptr_field
        self.field = field


class Nbr(Expr):
    """The folded-over neighbor's value in ``field`` (fold bodies only)."""

    __slots__ = ("field",)

    def __init__(self, field: str) -> None:
        self.field = field


class NbrId(Expr):
    """The folded-over neighbor's identifier (fold bodies only)."""

    __slots__ = ()


# ----------------------------------------------------------------------
# Combinators
# ----------------------------------------------------------------------
class And(Expr):
    """Logical conjunction (scalar evaluation short-circuits in order)."""

    __slots__ = ("args",)

    def __init__(self, *args: Expr) -> None:
        self.args = args

    def children(self) -> tuple[Expr, ...]:
        return self.args


class Or(Expr):
    """Logical disjunction (scalar evaluation short-circuits in order)."""

    __slots__ = ("args",)

    def __init__(self, *args: Expr) -> None:
        self.args = args

    def children(self) -> tuple[Expr, ...]:
        return self.args


class Not(Expr):
    __slots__ = ("arg",)

    def __init__(self, arg: Expr) -> None:
        self.arg = arg

    def children(self) -> tuple[Expr, ...]:
        return (self.arg,)


class _BinOp(Expr):
    __slots__ = ("a", "b")

    def __init__(self, a: Expr, b: Expr) -> None:
        self.a = a
        self.b = b

    def children(self) -> tuple[Expr, ...]:
        return (self.a, self.b)


class Eq(_BinOp):
    """``a == b``"""


class Ne(_BinOp):
    """``a != b``"""


class Lt(_BinOp):
    """``a < b``"""


class Le(_BinOp):
    """``a <= b``"""


class Gt(_BinOp):
    """``a > b``"""


class Ge(_BinOp):
    """``a >= b``"""


class Add(_BinOp):
    """``a + b``"""


class Sub(_BinOp):
    """``a - b``"""


class Min2(_BinOp):
    """``min(a, b)`` — the saturation primitive (``min(x, N')``)."""


# ----------------------------------------------------------------------
# Neighborhood folds
# ----------------------------------------------------------------------
class NbrExists(Expr):
    """``∃q ∈ Neig_p : pred(q)`` — e.g. ``Potential_p ≠ ∅``."""

    __slots__ = ("pred",)

    def __init__(self, pred: Expr) -> None:
        self.pred = pred

    def children(self) -> tuple[Expr, ...]:
        return (self.pred,)


class NbrAll(Expr):
    """``∀q ∈ Neig_p : pred(q)`` — e.g. ``Leaf``/``BFree`` shapes.

    Vacuously true on degree-0 nodes, matching an object-engine
    ``all()`` over an empty neighbor iterator.
    """

    __slots__ = ("pred",)

    def __init__(self, pred: Expr) -> None:
        self.pred = pred

    def children(self) -> tuple[Expr, ...]:
        return (self.pred,)


class NbrSum(Expr):
    """``Σ_{q : where(q)} value(q)`` — the paper's guarded ``Sum_p``."""

    __slots__ = ("value", "where")

    def __init__(self, value: Expr, where: Expr | None = None) -> None:
        self.value = value
        self.where = where

    def children(self) -> tuple[Expr, ...]:
        if self.where is None:
            return (self.value,)
        return (self.value, self.where)


class NbrMin(Expr):
    """``min_{q : where(q)} value(q)``, or ``default`` when no q matches.

    ``default`` is an (owner-scope) expression; ``None`` means the fold
    has no fallback and an empty match set is a protocol error at
    evaluation time.  Guards must always provide a default (enforced at
    compile time) so scalar and vectorized guard evaluation cannot
    diverge; statements may omit it when their guard already proves the
    match set non-empty (the B-action's ``Potential_p ≠ ∅``).
    """

    __slots__ = ("value", "where", "default")

    def __init__(
        self,
        value: Expr,
        where: Expr | None = None,
        default: Expr | None = None,
    ) -> None:
        self.value = value
        self.where = where
        self.default = default

    def children(self) -> tuple[Expr, ...]:
        out = [self.value]
        if self.where is not None:
            out.append(self.where)
        if self.default is not None:
            out.append(self.default)
        return tuple(out)


class NbrArgMinFirst(Expr):
    """The *first* neighbor in local order achieving the minimal value.

    Ties break toward the earliest neighbor in the node's local order
    ``≻_p`` (strict-``<`` scan), exactly like the object engines'
    ``candidates[0]`` idiom — the B-action's ``min_{≻p}(Potential_p)``
    and the spanning tree's parent choice.  Evaluates to ``-1`` (the
    encoded "no node") when no neighbor matches ``where``.
    """

    __slots__ = ("value", "where")

    def __init__(self, value: Expr, where: Expr | None = None) -> None:
        self.value = value
        self.where = where

    def children(self) -> tuple[Expr, ...]:
        if self.where is None:
            return (self.value,)
        return (self.value, self.where)


#: The fold node types (exactly one neighborhood pass each; cannot nest).
FOLDS = (NbrExists, NbrAll, NbrSum, NbrMin, NbrArgMinFirst)


def walk(expr: Expr) -> Iterator[Expr]:
    """Yield ``expr`` and every sub-expression (pre-order)."""
    yield expr
    for child in expr.children():
        yield from walk(child)


# ----------------------------------------------------------------------
# Specs
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ActionSpec:
    """One guarded action in IR form.

    ``name`` must match the corresponding object
    :class:`~repro.runtime.protocol.Action` (the compiler checks the
    per-role program against ``Protocol.node_actions``).  ``guard`` is
    an owner-scope boolean expression; ``updates`` maps column names to
    owner-scope expressions producing the *encoded* new value — columns
    absent from ``updates`` keep their pre-step value, mirroring
    ``state.replace(...)`` statements.

    ``host`` is an optional hook for the schema's payload fields, which
    the IR cannot express.  In phase 1 of a step the kernel calls it
    once per action group, after the IR updates, with a
    :class:`~repro.columnar.compiler.HostGroup` (the group's nodes, the
    pre-step columns and payload, the IR's new values); it returns
    ``{payload field: one value per node}``, landed in phase 2 with
    the integer writes.  A hook may be impure (a payload PIF's root
    stamps a fresh envelope), so a spec with hooks opts out of
    successor lockstep validation and of region-parallel stepping.
    """

    name: str
    guard: Expr
    updates: Mapping[str, Expr] = field(default_factory=dict)
    host: Callable[[Any], Mapping[str, Any]] | None = None


@dataclass(frozen=True)
class ColumnarSpec:
    """A protocol's complete columnar declaration.

    Parameters
    ----------
    schema:
        The :class:`~repro.columnar.schema.ColumnSchema` mapping the
        protocol's state type onto columns.
    programs:
        ``{role: (ActionSpec, ...)}`` in program order — action ``i`` of
        a role owns mask bit ``i``, so the order must equal the object
        program's.
    roles:
        ``node id -> role key`` (e.g. root vs everyone else).
    bulk_role:
        The role the vectorized evaluator computes for the whole dirty
        region; nodes of other roles are overwritten scalarly (there is
        typically exactly one such node — the root).
    statics:
        Extra read-only columns derived from the network at compile
        time, ``{name: network -> values}`` — e.g. a fixed tree's
        parent pointers.  Names must not collide with schema columns.
    """

    schema: Any
    programs: Mapping[str, tuple[ActionSpec, ...]]
    roles: Callable[[int], str]
    bulk_role: str
    statics: Mapping[str, Callable[[Any], Sequence[int]]] | None = None

    @property
    def has_host_hooks(self) -> bool:
        """Whether any action carries a (possibly impure) host hook."""
        return any(
            a.host is not None
            for program in self.programs.values()
            for a in program
        )

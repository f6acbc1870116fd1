"""Execution traces: step records, recording levels and replay support.

A :class:`Trace` is the executable counterpart of the paper's
*computation* ``e = γ_0, γ_1, …``: an initial configuration followed by
one :class:`StepRecord` per computation step.  Traces can be recorded at
three levels of detail:

* ``"selections"`` — only which node executed which action (enough for
  schedule replay and move counting);
* ``"configurations"`` — selections plus every intermediate
  configuration (enough for offline invariant checking);
* ``"none"`` — nothing retained (cheapest; metrics still accumulate).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Mapping, Sequence

from repro.errors import ReproError
from repro.runtime.state import Configuration

__all__ = ["StepRecord", "FaultMark", "Trace", "TRACE_LEVELS", "load_schedule"]

TRACE_LEVELS = ("none", "selections", "configurations")


@dataclass(frozen=True, slots=True)
class StepRecord:
    """One computation step ``γ_i ↦ γ_{i+1}``.

    ``selection`` maps each activated node to the name of the action it
    executed.  ``rounds_completed`` is how many rounds ended with this
    step (0 or 1).  ``after`` is the post-step configuration when the
    trace level retains configurations, else ``None``.

    On an array step of the columnar engine (DESIGN.md §11) the
    selection is a mapping built on first read, ``after`` a
    configuration decoded on first read, and ``columns`` the
    :class:`~repro.runtime.selection.ArraySelection` the step ran —
    until the next step its groups read the values they wrote.
    ``columns`` is ``None`` on every other step.
    """

    index: int
    selection: Mapping[int, str]
    rounds_completed: int
    after: Configuration | None = None
    columns: object = field(default=None, compare=False, repr=False)

    @property
    def moves(self) -> int:
        """Number of individual actions executed in this step."""
        return len(self.selection)


@dataclass(frozen=True, slots=True)
class FaultMark:
    """Annotation that a fault event struck the run between steps.

    ``at_step`` is the step count at the moment the event was applied
    (the event happened after step ``at_step - 1`` and before step
    ``at_step``).  ``kind`` is the event family (``"corrupt"``,
    ``"crash"``, ``"recover"``, ``"remove-link"``, ``"add-link"``,
    ``"swap-daemon"``) and ``detail`` a short human-readable summary.
    """

    at_step: int
    kind: str
    detail: str = ""


@dataclass
class Trace:
    """A recorded computation."""

    initial: Configuration
    level: str = "selections"
    steps: list[StepRecord] = field(default_factory=list)
    #: Fault events applied during the run, in order.  Recorded at every
    #: trace level (marks are tiny and essential for post-mortems).
    marks: list[FaultMark] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.level not in TRACE_LEVELS:
            raise ReproError(
                f"unknown trace level {self.level!r}; expected one of {TRACE_LEVELS}"
            )

    def append(self, record: StepRecord) -> None:
        """Record one step (respecting the trace level)."""
        if self.level == "none":
            return
        if self.level == "selections" and record.after is not None:
            record = StepRecord(
                index=record.index,
                selection=record.selection,
                rounds_completed=record.rounds_completed,
                after=None,
            )
        self.steps.append(record)

    def mark_fault(self, at_step: int, kind: str, detail: str = "") -> None:
        """Record that a fault event was applied at step count ``at_step``."""
        self.marks.append(FaultMark(at_step=at_step, kind=kind, detail=detail))

    def __len__(self) -> int:
        return len(self.steps)

    def __iter__(self) -> Iterator[StepRecord]:
        return iter(self.steps)

    @property
    def total_moves(self) -> int:
        """Total number of actions executed across all recorded steps."""
        return sum(r.moves for r in self.steps)

    def schedule(self) -> list[dict[int, str]]:
        """Extract the schedule for :class:`~repro.runtime.daemons.ReplayDaemon`."""
        return [dict(r.selection) for r in self.steps]

    def configurations(self) -> list[Configuration]:
        """Return ``[γ_0, γ_1, …]`` (requires level ``"configurations"``)."""
        if self.level != "configurations":
            raise ReproError(
                "configurations were not recorded; use trace level "
                "'configurations'"
            )
        configs = [self.initial]
        configs.extend(r.after for r in self.steps if r.after is not None)
        return configs

    def action_counts(self) -> dict[str, int]:
        """Histogram of executed action names across the trace."""
        counts: dict[str, int] = {}
        for record in self.steps:
            for action_name in record.selection.values():
                counts[action_name] = counts.get(action_name, 0) + 1
        return counts

    def moves_of(self, node: int) -> int:
        """Number of actions executed by ``node`` across the trace."""
        return sum(1 for r in self.steps if node in r.selection)

    # ------------------------------------------------------------------
    # Schedule persistence
    # ------------------------------------------------------------------
    def save_schedule(self, path: str) -> None:
        """Write the schedule as JSON lines (one step per line).

        The saved schedule replays with
        :class:`~repro.runtime.daemons.ReplayDaemon` via
        :func:`load_schedule` — enough to reproduce any recorded
        execution from the same initial configuration.
        """
        import json

        with open(path, "w", encoding="utf-8") as fh:
            for record in self.steps:
                fh.write(
                    json.dumps(
                        {str(p): name for p, name in record.selection.items()}
                    )
                )
                fh.write("\n")


def load_schedule(path: str) -> list[dict[int, str]]:
    """Read a schedule written by :meth:`Trace.save_schedule`."""
    import json

    schedule: list[dict[int, str]] = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            raw = json.loads(line)
            if not isinstance(raw, dict):
                raise ReproError(f"malformed schedule line: {line!r}")
            schedule.append({int(p): str(name) for p, name in raw.items()})
    return schedule

"""Output oracles for every workload, computed without the code under test.

Each oracle derives the expected answer from the topology's definition
alone (a star on ``n`` nodes has centre ``0``, leaves ``1..n-1`` and
``n - 1`` edges), never by calling into :mod:`repro`.  Every check
returns ``True`` when the program's output is exactly right; a
``False`` counts toward the run's ``failed`` total.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Size of the full initiation set of ``check_snap_safety(star(4))``:
#: every configuration of star-4 in which the root's B-action is
#: enabled.  The verify workload's throughput numerator stays this
#: number even if a later checker skips initiations.
STAR4_INITIATIONS = 110_592

#: Transitions the unreduced exhaustive search of star-4 explores.
#: Used only as the fixed numerator of the verify workload's
#: ``steps_per_s``, so that a checker reduction reads as a speed-up and
#: not as lost work; the oracle does not require it.
STAR4_FULL_TRANSITIONS = 114_674


def infimum_value(n: int, op: str, offset: int) -> int:
    """The fold of ``node + offset`` over nodes ``0..n-1``."""
    if op == "min":
        return offset
    if op == "max":
        return n - 1 + offset
    if op == "sum":
        return n * (n - 1) // 2 + n * offset
    raise ValueError(f"unknown infimum op {op!r}")


def snapshot_value(n: int, epoch: int) -> dict[int, tuple]:
    """Every node's application state after ``epoch`` served resets."""
    if epoch == 0:
        return {p: ("unreset", p) for p in range(n)}
    return {p: ("epoch", epoch) for p in range(n)}


@dataclass(frozen=True)
class Expectation:
    """What one accepted wave request must return."""

    kind: str
    value: object


class ServeOracle:
    """Expected results for wave requests on ``star(n)``.

    The service serves one topology's requests in submission order
    (adjacent-run coalescing never reorders, and resets break runs), so
    the reset epoch a request observes is the number of resets accepted
    before it.  Call :meth:`expect` right after ``submit`` returns, with
    no ``await`` in between, so the oracle sees the submission order.
    """

    def __init__(self, n: int) -> None:
        self.n = n
        self.resets = 0

    def expect(self, kind: str, args: dict) -> Expectation:
        n = self.n
        if kind == "pif":
            value = {
                "acks": n,
                "delivered_everywhere": True,
                "payload": args.get("payload"),
            }
        elif kind == "census":
            value = {"nodes": n, "edges": n - 1, "matches": True}
        elif kind == "infimum":
            op, offset = args["op"], args["offset"]
            value = {
                "op": op,
                "offset": offset,
                "value": infimum_value(n, op, offset),
            }
        elif kind == "reset":
            self.resets += 1
            value = {"epoch": self.resets, "confirmed": n, "complete": True}
        elif kind == "snapshot":
            value = snapshot_value(n, self.resets)
        else:
            raise ValueError(f"unknown wave kind {kind!r}")
        return Expectation(kind, value)

    @staticmethod
    def accepts(expected: Expectation, result) -> bool:
        """``result`` is a ``WaveResult``: right kind, ``ok``, exact value."""
        return (
            result.kind == expected.kind
            and result.ok is True
            and result.value == expected.value
        )


def sim_wave_ok(run_satisfied: bool, cycles_before: int, reports) -> bool:
    """One ``run(until=next cycle)`` call: it reached exactly one more
    completed cycle, and every completed cycle met the PIF specification."""
    return (
        run_satisfied
        and len(reports) == cycles_before + 1
        and all(report.ok for report in reports)
    )


def verify_ok(result, initiations: int = STAR4_INITIATIONS) -> bool:
    """An exhaustive snap-safety verdict: complete, clean, full set checked."""
    return (
        result.ok is True
        and result.complete is True
        and not result.counterexamples
        and result.configurations_checked == initiations
    )

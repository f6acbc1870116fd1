"""The multi-kind wave engine: every application wave through one PIF.

The wave service (:mod:`repro.service`) serves five request kinds —
``pif``, ``snapshot``, ``reset``, ``infimum``, ``census`` — against a
named topology.  Each kind is one of the paper's PIF applications, and
each already exists as a standalone service class in this package; what
the served workload needs instead is *one* engine per topology that can
run any kind on demand, wave after wave, without rebuilding simulators.

:class:`WaveEngine` is that engine: a single
:class:`~repro.applications.broadcast.BroadcastService` (one
:class:`~repro.core.payload.PayloadSnapPif`, one simulator, one cycle
monitor) whose feedback hooks dispatch on the kind of the wave in
flight — the :class:`~repro.applications.transformer.QueryService`
pattern generalized to the whole application family.  Because the PIF
is snap-stabilizing, every initiation is individually correct whatever
the previous waves left behind, which is exactly what lets a scheduler
pipeline heterogeneous requests back-to-back on one engine.

Determinism contract (what the service's coalescing relies on): under
the default synchronous daemon and a clean start, every wave of a given
kind+args on a given topology produces the same :class:`WaveServing`
value and rounds, independent of how many waves ran before it.  The
engine's only cross-wave state is the application layer itself
(``app_states``/``reset_epoch``), which changes exactly when a reset
wave runs — and reset waves are never coalesced.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from repro.applications.broadcast import BroadcastService
from repro.errors import WaveRequestError
from repro.runtime.daemons import Daemon
from repro.runtime.network import Network
from repro.runtime.state import Configuration

__all__ = ["WAVE_KINDS", "INFIMUM_OPS", "WaveServing", "WaveEngine"]

#: Request kinds the engine serves, in documentation order.
WAVE_KINDS: tuple[str, ...] = ("pif", "snapshot", "reset", "infimum", "census")

#: Fold operations understood by ``infimum`` requests.
INFIMUM_OPS: dict[str, Callable[[object, object], object]] = {
    "min": min,
    "max": max,
    "sum": lambda a, b: a + b,  # type: ignore[operator]
}


@dataclass(frozen=True, slots=True)
class WaveServing:
    """One wave's outcome, as served to the requests it covered.

    ``value`` is plain JSON-able data (the service streams it to
    clients); ``rounds`` is the cycle's round count; ``ok`` is the PIF
    specification verdict.  ``wave_index`` is the engine-local wave
    counter — scheduling-dependent under coalescing, so the service
    keeps it out of per-request results and events.
    """

    kind: str
    value: object
    rounds: int
    ok: bool
    wave_index: int


def validate_wave_args(
    kind: str, args: Mapping[str, object] | None
) -> dict[str, object]:
    """Check a request's kind and arguments; return normalized args.

    Raises :class:`~repro.errors.WaveRequestError` on an unknown kind,
    a non-mapping args object, or kind-specific violations (unsupported
    infimum op, non-integer offset).  Shared by the service's submit
    path (reject before enqueueing) and the engine (defense in depth).
    """
    if kind not in WAVE_KINDS:
        raise WaveRequestError(
            f"unknown wave kind {kind!r}; expected one of {list(WAVE_KINDS)}"
        )
    if args is None:
        args = {}
    if not isinstance(args, Mapping):
        raise WaveRequestError(
            f"wave args must be a mapping, got {type(args).__name__}"
        )
    normalized = dict(args)
    if kind == "infimum":
        op = normalized.setdefault("op", "min")
        # A non-string op (a list, a dict) is unhashable: reject it by
        # type before the lookup could raise a TypeError.
        if not isinstance(op, str) or op not in INFIMUM_OPS:
            raise WaveRequestError(
                f"infimum op must be one of {sorted(INFIMUM_OPS)}, got {op!r}"
            )
        offset = normalized.setdefault("offset", 0)
        if isinstance(offset, bool) or not isinstance(offset, int):
            raise WaveRequestError(
                f"infimum offset must be an integer, got {offset!r}"
            )
    return normalized


class WaveEngine:
    """Serve any wave kind on one topology, one PIF cycle per wave.

    Parameters
    ----------
    network, root:
        Topology and initiator.
    daemon, seed:
        Scheduler (default synchronous — the regime the service's
        determinism contract covers) and RNG seed.
    engine:
        Guard-evaluation engine for the underlying simulator (``None``
        resolves ``REPRO_ENGINE``); the service passes ``"columnar"``
        for large topologies.
    reporter:
        ``node -> report`` hook for snapshot waves; defaults to reading
        the engine's simulated application state (:attr:`app_states`).
    fresh_state:
        ``node -> state`` hook for reset waves; defaults to
        ``("epoch", current_epoch)``.
    initial_configuration:
        Optional corrupted PIF start (snap-stabilization demos).  Note
        the determinism contract assumes a clean start.
    """

    def __init__(
        self,
        network: Network,
        *,
        root: int = 0,
        daemon: Daemon | None = None,
        seed: int = 0,
        engine: str | None = None,
        reporter: Callable[[int], object] | None = None,
        fresh_state: Callable[[int], object] | None = None,
        initial_configuration: Configuration | None = None,
    ) -> None:
        self.network = network
        #: Simulated application state per node (deliberately starts
        #: inconsistent, as in :class:`~repro.applications.reset.ResetService`).
        self.app_states: dict[int, object] = {
            p: ("unreset", p) for p in network.nodes
        }
        #: Epochs applied so far by reset waves.
        self.reset_epoch = 0
        self._reporter = reporter or (lambda node: self.app_states[node])
        self._fresh_state = fresh_state or (
            lambda node: ("epoch", self.reset_epoch)
        )
        #: The wave in flight: ``(kind, args)`` — consulted by the
        #: feedback hooks exactly like ``QueryService._current``.
        self._current: tuple[str, dict[str, object]] | None = None
        self._service = BroadcastService(
            network,
            root,
            local_value=self._local_value,
            combine=self._combine,
            daemon=daemon,
            seed=seed,
            initial_configuration=initial_configuration,
            engine=engine,
        )

    @property
    def waves_completed(self) -> int:
        """Completed PIF cycles so far (all kinds)."""
        return self._service.waves_completed

    # ------------------------------------------------------------------
    # Feedback hooks (run at F-actions, i.e. inside the wave)
    # ------------------------------------------------------------------
    def _local_value(self, node: int) -> object:
        assert self._current is not None, "no wave in flight"
        kind, args = self._current
        if kind == "pif":
            return 1
        if kind == "snapshot":
            return {node: self._reporter(node)}
        if kind == "reset":
            # The wave has genuinely reached this node: apply the reset.
            self.app_states[node] = self._fresh_state(node)
            return frozenset({node})
        if kind == "infimum":
            return node + args["offset"]  # type: ignore[operator]
        if kind == "census":
            return {node: tuple(self.network.neighbors(node))}
        raise WaveRequestError(f"unknown wave kind {kind!r}")

    def _combine(self, values: Sequence[object]) -> object:
        assert self._current is not None, "no wave in flight"
        kind, args = self._current
        if kind == "pif":
            total = 0
            for part in values:
                if not isinstance(part, int):
                    raise WaveRequestError(
                        f"pif fold received stale value {part!r}"
                    )
                total += part
            return total
        if kind in ("snapshot", "census"):
            merged: dict[int, object] = {}
            for part in values:
                if not isinstance(part, dict):
                    raise WaveRequestError(
                        f"{kind} fold received stale value {part!r}"
                    )
                overlap = merged.keys() & part.keys()
                if overlap:
                    raise WaveRequestError(
                        f"{kind} fold saw duplicate reports for "
                        f"{sorted(overlap)}"
                    )
                merged.update(part)
            return merged
        if kind == "reset":
            confirmed: set[int] = set()
            for part in values:
                if not isinstance(part, frozenset):
                    raise WaveRequestError(
                        f"reset fold received stale value {part!r}"
                    )
                confirmed |= part
            return frozenset(confirmed)
        if kind == "infimum":
            op = INFIMUM_OPS[args["op"]]  # type: ignore[index]
            result = values[0]
            for value in values[1:]:
                result = op(result, value)
            return result
        raise WaveRequestError(f"unknown wave kind {kind!r}")

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run_wave(
        self,
        kind: str,
        args: Mapping[str, object] | None = None,
        *,
        max_steps: int = 1_000_000,
    ) -> WaveServing:
        """Run one complete PIF cycle serving ``kind`` and assemble its value."""
        normalized = validate_wave_args(kind, args)
        if kind == "reset":
            self.reset_epoch += 1
        self._current = (kind, normalized)
        try:
            outcome = self._service.broadcast(
                (kind, tuple(sorted(normalized.items()))),
                max_steps=max_steps,
            )
        finally:
            self._current = None
        return WaveServing(
            kind=kind,
            value=self._finalize(kind, normalized, outcome),
            rounds=outcome.report.rounds,
            ok=outcome.ok,
            wave_index=self.waves_completed,
        )

    def _finalize(self, kind: str, args: dict, outcome) -> object:
        """Distill the wave outcome into the kind's plain-data value."""
        n = self.network.n
        result = outcome.result
        if kind == "pif":
            if not isinstance(result, int):
                raise WaveRequestError(f"pif feedback malformed: {result!r}")
            return {
                "acks": result,
                "delivered_everywhere": outcome.delivered_everywhere,
                "payload": args.get("payload"),
            }
        if kind == "snapshot":
            if not isinstance(result, dict):
                raise WaveRequestError(
                    f"snapshot result is not a report map: {result!r}"
                )
            return {p: result[p] for p in sorted(result)}
        if kind == "reset":
            if not isinstance(result, frozenset):
                raise WaveRequestError(
                    f"reset feedback is not a node set: {result!r}"
                )
            return {
                "epoch": self.reset_epoch,
                "confirmed": len(result),
                "complete": len(result) == n,
            }
        if kind == "infimum":
            return {"op": args["op"], "offset": args["offset"], "value": result}
        if kind == "census":
            if not isinstance(result, dict):
                raise WaveRequestError(f"census malformed: {result!r}")
            edges = sum(len(qs) for qs in result.values()) // 2
            matches = set(result) == set(self.network.nodes) and all(
                tuple(sorted(result[p]))
                == tuple(sorted(self.network.neighbors(p)))
                for p in self.network.nodes
            )
            return {"nodes": len(result), "edges": edges, "matches": matches}
        raise WaveRequestError(f"unknown wave kind {kind!r}")

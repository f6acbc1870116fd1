"""Reliable broadcast-with-feedback service on top of the snap PIF.

:class:`BroadcastService` is the library's main application-facing API:
it owns a :class:`~repro.core.payload.PayloadSnapPif`, a simulator, and
the cycle monitor, and exposes one operation — :meth:`broadcast` — which
runs one complete PIF cycle carrying a value and returns the delivery
evidence (who received, who acknowledged, the aggregated feedback).

Because the PIF is snap-stabilizing, :meth:`broadcast` is correct *from
the very first call*, even when the service is started on a corrupted
configuration (pass ``initial_configuration``): the call may take longer
(stale garbage is cleaned while the wave waits) but the delivered value
and the feedback are right.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from repro.core.monitor import CycleReport, PifCycleMonitor
from repro.core.payload import PayloadSnapPif
from repro.core.state import PifConstants
from repro.errors import SimulationLimitError
from repro.runtime.daemons import Daemon
from repro.runtime.network import Network
from repro.runtime.simulator import Simulator
from repro.runtime.state import Configuration

__all__ = ["WaveOutcome", "BroadcastService"]


@dataclass(frozen=True, slots=True)
class WaveOutcome:
    """Evidence returned by one :meth:`BroadcastService.broadcast` call."""

    #: The broadcast value ``V``.
    value: object
    #: The root's aggregated feedback (the fold over all local values).
    result: object
    #: Per-node ``msg`` after the cycle — what each processor received.
    delivered: dict[int, object]
    #: The monitor's cycle report (steps, rounds, PIF1/PIF2 verdicts).
    report: CycleReport

    @property
    def delivered_everywhere(self) -> bool:
        """Every processor holds exactly the broadcast value."""
        return all(v == self.value for v in self.delivered.values())

    @property
    def ok(self) -> bool:
        """The cycle satisfied the PIF specification."""
        return self.report.ok


class BroadcastService:
    """Run value-carrying PIF waves on a network.

    Parameters
    ----------
    network, root:
        Topology and initiator.
    local_value, combine:
        Feedback fold hooks (see
        :class:`~repro.core.payload.PayloadSnapPif`).  ``local_value`` is
        invoked at each processor's F-action — the natural "I received
        the broadcast" callback applications hang work off.
    daemon, seed:
        Scheduler (default synchronous) and RNG seed.
    initial_configuration:
        Optional corrupted starting configuration (stabilization demos).
    engine:
        Guard-evaluation engine forwarded to the
        :class:`~repro.runtime.simulator.Simulator` (``None`` resolves
        ``REPRO_ENGINE``, else incremental).  The wave service passes
        ``"columnar"`` here so large topologies run the compiled
        guard kernels.
    """

    def __init__(
        self,
        network: Network,
        root: int = 0,
        *,
        local_value: Callable[[int], object] | None = None,
        combine: Callable[[Sequence[object]], object] | None = None,
        daemon: Daemon | None = None,
        seed: int = 0,
        initial_configuration: Configuration | None = None,
        engine: str | None = None,
    ) -> None:
        self.network = network
        self.protocol = PayloadSnapPif(
            PifConstants.for_network(network, root),
            local_value=local_value,
            combine=combine,
        )
        self.monitor = PifCycleMonitor(self.protocol, network)
        self.simulator = Simulator(
            self.protocol,
            network,
            daemon,
            seed=seed,
            monitors=[self.monitor],
            configuration=initial_configuration,
            engine=engine,
        )

    @property
    def waves_completed(self) -> int:
        """Number of completed PIF cycles so far."""
        return self.monitor.completed_count

    def broadcast(self, value: object, *, max_steps: int = 1_000_000) -> WaveOutcome:
        """Run one full PIF cycle carrying ``value``; return delivery evidence."""
        self.protocol.outbox = value
        already = self.waves_completed
        result = self.simulator.run(
            until=lambda _c: self.waves_completed > already,
            max_steps=max_steps,
        )
        if self.waves_completed <= already:
            raise SimulationLimitError(
                f"broadcast wave did not complete within {result.steps} steps"
            )
        report = self.monitor.completed_cycles[-1]
        # The columnar engine answers from its payload columns, so a
        # served wave decodes no configuration.
        simulator = self.simulator
        protocol = self.protocol
        messages = simulator.payload_column("msg")
        if messages is None:
            final = simulator.configuration
            root_result = protocol.root_result(final)
            delivered = protocol.delivered_messages(final)
        else:
            acks = simulator.payload_column("ack")
            root_result = protocol.result_of_ack(acks[protocol.constants.root])
            delivered = protocol.unwrap_messages(messages)
        return WaveOutcome(
            value=value,
            result=root_result,
            delivered=delivered,
            report=report,
        )

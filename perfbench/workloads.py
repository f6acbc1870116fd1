"""The four workloads: seeded inputs, public-API calls, oracle checks.

Every workload is a stream of *wave requests*, the call a user makes
and waits on:

``serve-star1024``
    ``WaveService.submit`` then ``await handle.result()``, from 8
    closed-loop client coroutines on one ``star(1024)`` topology.
``sim-sync-star4096``, ``sim-central-grid32``
    ``Simulator.run(until=<one more PIF cycle completed>)`` on plain
    ``SnapPif`` with ``PifCycleMonitor`` attached, under
    ``SynchronousDaemon`` and ``CentralDaemon(choice="random")``.
``verify-star4``
    one exhaustive ``check_snap_safety(star(4))``.

A *session* builds one workload's objects, timing
:data:`SETUP_REPETITIONS` set-ups first (``setup_spans``) and sampling
the host's speed between them (``speed``, see ``hostspeed.py``).
``phase(seconds)`` issues requests until ``seconds`` have passed,
finishing the requests in flight, and returns a :class:`Phase` with the
counts the end-to-end metrics are made of.  A timed run is one phase of
``--seconds``.
"""

from __future__ import annotations

import asyncio
import math
import random
from dataclasses import dataclass, field
from time import perf_counter

import hostspeed
import oracles
from hostspeed import HostSpeed
from repro import verification
from repro.core.monitor import PifCycleMonitor
from repro.core.pif import SnapPif
from repro.errors import ReproError
from repro.graphs.topologies import grid, star
from repro.runtime.daemons import CentralDaemon, SynchronousDaemon
from repro.runtime.simulator import Simulator
from repro.service import WaveService, for_phases

#: Set-ups timed before the phase, at least this many and for at least
#: :data:`SETUP_MIN_S`; ``setup_s`` is their median.
SETUP_REPETITIONS = 15
SETUP_MIN_S = 0.5

#: Steps one ``Simulator.run`` may take to complete the next PIF cycle
#: before the sim oracle counts the wave as failed.
WAVE_STEP_BUDGET = 1_000_000

#: The service's documented request mix (kind -> weight).
REQUEST_MIX: dict[str, int] = {
    "pif": 4,
    "snapshot": 3,
    "infimum": 2,
    "census": 2,
    "reset": 1,
}

SERVE_CLIENTS = 8
TOPOLOGY = "star"


def nproc() -> int:
    """CPUs of the host the process may use, counted before any pinning."""
    return len(hostspeed.CPUS)


@dataclass
class Phase:
    """What one timed stretch of a workload did.

    ``spans`` holds the wall interval of each wave request, and
    ``began``/``ended`` that of the whole stretch;
    ``requests`` counts the requests whose output the oracle accepted;
    ``steps`` and ``initiations`` are the workload's simulated-step and
    verified-initiation counts (see ``README.md`` here).
    """

    began: float = 0.0
    ended: float = 0.0
    #: ``(start, end)`` wall times of each wave request.
    spans: list[tuple[float, float]] = field(default_factory=list)
    requests: int = 0
    steps: int = 0
    initiations: int = 0
    attempted: int = 0
    failed: int = 0
    #: Workload-specific context for the traced run and the report.
    notes: dict = field(default_factory=dict)

    def check(self, ok: bool) -> None:
        self.attempted += 1
        if ok:
            self.requests += 1
        else:
            self.failed += 1

    @property
    def elapsed(self) -> float:
        return self.ended - self.began

    @property
    def work(self) -> int:
        """Units the tracing overhead is normalized by."""
        return self.steps or self.requests


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: p90 of 100 samples has 10 samples beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered) - 1e-9))
    return ordered[rank - 1]


def time_setups(
    build, speed: HostSpeed, discard=lambda built: None
) -> tuple[list[tuple[float, float]], object]:
    """Time calls of ``build()`` (see :data:`SETUP_REPETITIONS`); return
    their ``(start, end)`` wall times and the last result.  Between
    calls, ``speed`` samples the host on this thread at its usual
    period; each earlier result is passed to ``discard`` outside the
    timed region."""
    spans: list[tuple[float, float]] = []
    built = None
    first = perf_counter()
    while len(spans) < SETUP_REPETITIONS or perf_counter() - first < SETUP_MIN_S:
        if built is not None:
            discard(built)
            built = None
        if not speed.times or perf_counter() - speed.times[-1] > hostspeed.PERIOD_S:
            speed.sample()
        start = perf_counter()
        built = build()
        spans.append((start, perf_counter()))
    return spans, built


def request_stream(rng: random.Random):
    """Endless requests of the documented mix, from the benchmark's own RNG.

    Requests come in rounds of 12, each holding every kind exactly as
    often as its weight, in a seeded order: a run of ~15 requests per
    client then has the mix itself, not a sample of it, so seeds differ
    in order and arguments but not in how much work they ask for.
    """
    deck = [kind for kind, weight in REQUEST_MIX.items() for _ in range(weight)]
    while True:
        rng.shuffle(deck)
        for kind in deck:
            if kind == "pif":
                yield kind, {"payload": f"msg-{rng.randrange(4)}"}
            elif kind == "infimum":
                yield kind, {
                    "op": rng.choice(["min", "max", "sum"]),
                    "offset": rng.randrange(3),
                }
            else:
                yield kind, {}


# ----------------------------------------------------------------------
# serve-star1024
# ----------------------------------------------------------------------
class ServeSession:
    """A started ``WaveService(engine="columnar")`` with one star topology.

    The session owns a private event loop, so callers stay synchronous;
    ``watch`` makes later phases also follow the ``initiated`` and
    ``feedback`` events on a ``subscribe()`` stream (traced runs only).
    """

    def __init__(self, n: int, seed: int, speed: HostSpeed) -> None:
        self.seed = seed
        self.network = star(n)
        self.oracle = oracles.ServeOracle(n)
        self.watch = False
        self._requests = [
            request_stream(random.Random(f"serve:{seed}:{i}"))
            for i in range(SERVE_CLIENTS)
        ]
        self._loop = asyncio.new_event_loop()
        self.setup_spans, self.service = time_setups(
            lambda: self._loop.run_until_complete(self._start()),
            speed,
            lambda service: self._loop.run_until_complete(service.shutdown()),
        )
        self.warmup = self._loop.run_until_complete(self._warm_up())

    async def _start(self) -> WaveService:
        service = WaveService(seed=self.seed, engine="columnar", jobs=nproc())
        service.start()
        service.add_topology(TOPOLOGY, self.network)
        return service

    async def _warm_up(self) -> Phase:
        # Warm-up, outside any timed phase: one wave of each
        # state-preserving kind, checked like every other request.
        warm = Phase()
        for kind, args in (
            ("pif", {"payload": "warm"}),
            ("census", {}),
            ("infimum", {"op": "min", "offset": 0}),
            ("snapshot", {}),
        ):
            await self._request(kind, args, warm, None)
        return warm

    def close(self) -> None:
        try:
            self._loop.run_until_complete(self.service.shutdown())
        finally:
            self._loop.close()

    def phase(self, seconds: float) -> Phase:
        return self._loop.run_until_complete(self._phase(seconds))

    async def _request(self, kind, args, phase: Phase, times) -> None:
        start = perf_counter()
        try:
            handle = self.service.submit(kind, TOPOLOGY, args)
        except ReproError:
            phase.spans.append((start, perf_counter()))
            phase.check(False)
            return
        # No await between submit and expect: the oracle must see the
        # submission order.
        expected = self.oracle.expect(kind, args)
        submitted = perf_counter()
        try:
            result = await handle.result()
        except ReproError:
            ok = False
        else:
            ok = self.oracle.accepts(expected, result)
        resumed = perf_counter()
        phase.spans.append((start, resumed))
        phase.check(ok)
        if ok:
            phase.steps += result.rounds
        if times is not None:
            times[handle.request_id] = (submitted, resumed)

    async def _phase(self, seconds: float) -> Phase:
        """Closed loop: each client submits its next request only when
        its previous one has resolved, until ``seconds`` have passed."""
        phase = Phase()
        service = self.service
        initial = service.stats()
        before = initial["topologies"][TOPOLOGY]
        times: dict[int, tuple[float, float]] | None = None
        seen: dict[tuple[int, str], float] = {}
        if self.watch:
            times = {}
            subscription = service.subscribe(
                for_phases("initiated", "feedback")
            )

            async def follow() -> None:
                async for event in subscription:
                    seen[(event.request_id, event.phase)] = perf_counter()

            watcher = asyncio.get_running_loop().create_task(follow())

        phase.began = perf_counter()
        deadline = phase.began + seconds

        async def client(requests) -> None:
            while perf_counter() < deadline:
                kind, args = next(requests)
                await self._request(kind, args, phase, times)

        await asyncio.gather(*(client(requests) for requests in self._requests))
        phase.ended = perf_counter()
        if self.watch:
            service.bus.unsubscribe(subscription)
            await watcher
        stats = service.stats()
        after = stats["topologies"][TOPOLOGY]
        waves = after["waves_run"] - before["waves_run"]
        served = after["requests_served"] - before["requests_served"]
        # Rounds and verdicts were taken per request; a coalesced wave
        # served several requests, so scale to the waves actually run.
        if served:
            phase.steps = round(phase.steps * waves / served)
            phase.initiations = round(waves * phase.requests / served)
        phase.notes.update(
            waves_run=waves,
            requests_served=served,
            events=stats["events_published"] - initial["events_published"],
            request_times=times,
            events_seen=seen,
        )
        return phase


# ----------------------------------------------------------------------
# sim-sync-star4096, sim-central-grid32
# ----------------------------------------------------------------------
def build_simulation(network, daemon, seed: int, engine: str = "columnar"):
    """Plain ``SnapPif`` from a clean start, with the cycle monitor."""
    protocol = SnapPif.for_network(network)
    monitor = PifCycleMonitor(protocol, network)
    simulator = Simulator(
        protocol,
        network,
        daemon,
        seed=seed,
        monitors=[monitor],
        engine=engine,
    )
    return simulator, monitor


def next_wave(simulator, monitor) -> bool:
    """Run until one more PIF cycle completes; True if the oracle accepts."""
    before = len(monitor.completed_cycles)
    result = simulator.run(
        until=lambda _c: len(monitor.completed_cycles) > before,
        max_steps=simulator.steps + WAVE_STEP_BUDGET,
    )
    return oracles.sim_wave_ok(result.satisfied, before, monitor.completed_cycles)


class SimSession:
    """Plain ``SnapPif`` from a clean start under one daemon, monitored."""

    def __init__(self, network, daemon_factory, seed: int, speed: HostSpeed) -> None:
        self.setup_spans, (self.simulator, self.monitor) = time_setups(
            lambda: build_simulation(network, daemon_factory(), seed), speed
        )

    def phase(self, seconds: float) -> Phase:
        phase = Phase()
        simulator = self.simulator
        steps0 = simulator.steps
        phase.began = perf_counter()
        while perf_counter() - phase.began < seconds:
            began = perf_counter()
            ok = next_wave(simulator, self.monitor)
            phase.spans.append((began, perf_counter()))
            phase.check(ok)
        phase.ended = perf_counter()
        phase.steps = simulator.steps - steps0
        phase.initiations = phase.requests
        return phase

    def close(self) -> None:
        pass


# ----------------------------------------------------------------------
# verify-star4
# ----------------------------------------------------------------------
def _checker_input(n: int):
    network = star(n)
    return network, SnapPif.for_network(network)


class VerifySession:
    """Serial exhaustive snap-safety checks of ``star(n)``."""

    def __init__(self, n: int, speed: HostSpeed) -> None:
        self.setup_spans, (self.network, self.protocol) = time_setups(
            lambda: _checker_input(n), speed
        )

    def phase(self, seconds: float) -> Phase:
        phase = Phase()
        phase.began = perf_counter()
        while True:
            began = perf_counter()
            result = verification.check_snap_safety(
                self.network, protocol=self.protocol
            )
            ended = perf_counter()
            took = ended - began
            phase.spans.append((began, ended))
            ok = oracles.verify_ok(result)
            phase.check(ok)
            if ok:
                phase.initiations += oracles.STAR4_INITIATIONS
                phase.steps += oracles.STAR4_FULL_TRANSITIONS
            phase.notes["result"] = result
            # Stop unless another check would end within half a check
            # of the window's end.
            if ended - phase.began + took * 0.5 > seconds:
                break
        phase.ended = perf_counter()
        return phase

    def close(self) -> None:
        pass


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
#: Workload name -> session factory ``(seed, speed) -> session``.
#: Every session has ``setup_spans``, ``phase(seconds) -> Phase`` and
#: ``close()``.
WORKLOADS = {
    "serve-star1024": lambda seed, speed: ServeSession(1024, seed, speed),
    "sim-sync-star4096": lambda seed, speed: SimSession(
        star(4096), SynchronousDaemon, seed, speed
    ),
    "sim-central-grid32": lambda seed, speed: SimSession(
        grid(32, 32), lambda: CentralDaemon(choice="random"), seed, speed
    ),
    "verify-star4": lambda seed, speed: VerifySession(4, speed),
}

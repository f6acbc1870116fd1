"""WaveService lifecycle: submit/stream/result, backpressure, shutdown.

No pytest-asyncio in the toolchain: every test is a plain sync function
running its scenario with ``asyncio.run``.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.errors import (
    ServiceClosedError,
    ServiceOverloadedError,
    WaveRequestError,
)
from repro.graphs import ring, star
from repro.service import WaveService, for_phases, for_request


class TestSubmission:
    def test_submit_and_await_result(self):
        async def scenario():
            async with WaveService() as service:
                service.add_topology("star", star(8))
                handle = service.submit("pif", "star", {"payload": "v"})
                return await handle.result()

        result = asyncio.run(scenario())
        assert result.kind == "pif"
        assert result.value["acks"] == 8
        assert result.ok

    def test_request_ids_follow_submission_order(self):
        async def scenario():
            async with WaveService() as service:
                service.add_topology("star", star(6))
                handles = [service.submit("census", "star") for _ in range(5)]
                await asyncio.gather(*(h.result() for h in handles))
                return [h.request_id for h in handles]

        assert asyncio.run(scenario()) == [0, 1, 2, 3, 4]

    def test_lifecycle_events_stream_in_order(self):
        async def scenario():
            async with WaveService() as service:
                service.add_topology("star", star(6))
                handle = service.submit("snapshot", "star")
                return [event.phase async for event in handle.events()]

        assert asyncio.run(scenario()) == [
            "accepted",
            "initiated",
            "feedback",
            "completed",
        ]

    def test_bus_subscription_with_predicates(self):
        async def scenario():
            async with WaveService() as service:
                service.add_topology("star", star(6))
                service.add_topology("ring", ring(6))
                completed = service.subscribe(for_phases("completed"))
                mine = service.subscribe(
                    for_request(0)
                )  # first submission gets id 0
                a = service.submit("pif", "star")
                b = service.submit("census", "ring")
                await asyncio.gather(a.result(), b.result())
                return completed.drain(), mine.drain()

        completed, mine = asyncio.run(scenario())
        assert sorted(e.request_id for e in completed) == [0, 1]
        assert {e.request_id for e in mine} == {0}
        assert [e.phase for e in mine] == [
            "accepted",
            "initiated",
            "feedback",
            "completed",
        ]

    def test_unknown_topology_rejected(self):
        async def scenario():
            async with WaveService() as service:
                service.add_topology("star", star(6))
                with pytest.raises(WaveRequestError, match="unknown topology"):
                    service.submit("pif", "mesh")
                return service.stats()

        stats = asyncio.run(scenario())
        assert stats["accepted"] == 0

    def test_malformed_request_rejected_before_enqueue(self):
        async def scenario():
            async with WaveService() as service:
                service.add_topology("star", star(6))
                with pytest.raises(WaveRequestError):
                    service.submit("gossip", "star")
                with pytest.raises(WaveRequestError):
                    service.submit("infimum", "star", {"op": "median"})
                for op in (["min"], {"op": "min"}):
                    with pytest.raises(WaveRequestError, match="infimum op"):
                        service.submit("infimum", "star", {"op": op})
                return service.stats()

        stats = asyncio.run(scenario())
        assert stats["accepted"] == 0
        assert stats["topologies"]["star"]["queue_depth"] == 0

    def test_duplicate_topology_rejected(self):
        async def scenario():
            async with WaveService() as service:
                service.add_topology("star", star(6))
                with pytest.raises(WaveRequestError, match="already"):
                    service.add_topology("star", star(8))

        asyncio.run(scenario())

    def test_submit_before_start_rejected(self):
        service = WaveService()
        service.add_topology("star", star(6))
        with pytest.raises(ServiceClosedError, match="not started"):
            service.submit("pif", "star")


class TestBackpressure:
    def test_full_queue_rejects_with_typed_error(self):
        async def scenario():
            async with WaveService(queue_bound=3, max_in_flight=1) as service:
                service.add_topology("star", star(6))
                # Burst-submit with no await: the scheduler task never
                # runs between submissions, so the queue genuinely fills.
                accepted = [service.submit("reset", "star") for _ in range(3)]
                with pytest.raises(ServiceOverloadedError, match="full"):
                    service.submit("reset", "star")
                stats = service.stats()
                results = await asyncio.gather(
                    *(h.result() for h in accepted)
                )
                return stats, results

        stats, results = asyncio.run(scenario())
        assert stats["rejected"] == 1
        assert stats["accepted"] == 3
        # The rejected request was never enqueued; the accepted ones
        # all completed once the scheduler drained the queue.
        assert [r.value["epoch"] for r in results] == [1, 2, 3]

    def test_rejection_leaves_no_trace_in_queue(self):
        async def scenario():
            async with WaveService(queue_bound=1) as service:
                service.add_topology("star", star(6))
                keeper = service.submit("census", "star")
                with pytest.raises(ServiceOverloadedError):
                    service.submit("census", "star")
                await keeper.result()
                return service.stats()

        stats = asyncio.run(scenario())
        assert stats["topologies"]["star"]["requests_served"] == 1


class TestShutdown:
    def test_drain_completes_in_flight_waves(self):
        async def scenario():
            service = WaveService()
            service.start()
            service.add_topology("star", star(6))
            handles = [service.submit("census", "star") for _ in range(4)]
            # Shut down immediately: drain must still serve all four.
            await service.shutdown(drain=True)
            return [await h.result() for h in handles]

        results = asyncio.run(scenario())
        assert len(results) == 4
        assert all(r.ok for r in results)

    def test_non_drain_rejects_queued_requests(self):
        async def scenario():
            service = WaveService(max_in_flight=1)
            service.start()
            service.add_topology("star", star(6))
            handles = [service.submit("reset", "star") for _ in range(4)]
            await service.shutdown(drain=False)
            outcomes = []
            for handle in handles:
                try:
                    outcomes.append((await handle.result()).kind)
                except ServiceClosedError:
                    outcomes.append("closed")
            phases = [
                [e.phase for e in h.events_so_far()] for h in handles
            ]
            return outcomes, phases

        outcomes, phases = asyncio.run(scenario())
        # The scheduler had already taken the first request into flight
        # when shutdown began — an in-flight wave always completes
        # (simulator work is not interruptible).  The three still-queued
        # requests were rejected with the typed error and a terminal
        # `failed` event.
        assert outcomes == ["reset", "closed", "closed", "closed"]
        assert phases[0] == ["accepted", "initiated", "feedback", "completed"]
        assert all(p == ["accepted", "failed"] for p in phases[1:])

    def test_submit_after_shutdown_rejected(self):
        async def scenario():
            service = WaveService()
            service.start()
            service.add_topology("star", star(6))
            await service.shutdown()
            with pytest.raises(ServiceClosedError, match="shut down"):
                service.submit("pif", "star")

        asyncio.run(scenario())

    def test_shutdown_closes_event_streams(self):
        async def scenario():
            service = WaveService()
            service.start()
            service.add_topology("star", star(6))
            sub = service.subscribe(for_phases("completed"))
            handle = service.submit("pif", "star")
            await handle.result()
            await service.shutdown()
            # The stream ends (instead of hanging) because shutdown
            # closed the bus; the backlog is still delivered.
            return [e.phase async for e in sub]

        assert asyncio.run(scenario()) == ["completed"]

    def test_add_topology_after_shutdown_rejected(self):
        async def scenario():
            service = WaveService()
            service.start()
            await service.shutdown()
            with pytest.raises(ServiceClosedError):
                service.add_topology("star", star(6))

        asyncio.run(scenario())

    def test_shutdown_is_idempotent(self):
        async def scenario():
            service = WaveService()
            service.start()
            await service.shutdown()
            await service.shutdown()

        asyncio.run(scenario())


class TestStats:
    def test_stats_shape_and_counts(self):
        async def scenario():
            async with WaveService(
                batch_window=4, max_in_flight=2, queue_bound=16, jobs=2
            ) as service:
                service.add_topology("star", star(8))
                handles = [
                    service.submit("snapshot", "star") for _ in range(6)
                ]
                await asyncio.gather(*(h.result() for h in handles))
                return service.stats()

        stats = asyncio.run(scenario())
        assert stats["accepted"] == 6
        assert stats["rejected"] == 0
        assert stats["knobs"] == {
            "batch_window": 4,
            "max_in_flight": 2,
            "queue_bound": 16,
            "jobs": 2,
        }
        topo = stats["topologies"]["star"]
        assert topo["requests_served"] == 6
        # Six identical adjacent snapshots with window 4 need exactly
        # two waves (4 + 2) — the coalescing arithmetic is visible in
        # the stats endpoint.
        assert topo["waves_run"] == 2
        assert stats["requests_coalesced"] == 4
        # accepted(6) + initiated/feedback/completed per request.
        assert stats["events_published"] == 6 * 4

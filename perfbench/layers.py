"""The traced run: which boundary callables get spans, and the per-layer metrics.

:func:`instrument` wraps, in place, the public boundary callables of
each layer (module names as in ``src/repro``).  Only the traced run
calls it; timed runs wrap nothing.  :func:`per_layer` turns the spans
of one traced phase into the metrics listed in ``BENCHMARK.json``;
``layers.json`` beside this file says which end-to-end metric each one
is expected to move, and on which workload.

A metric whose layer the workload never reaches reads 0.
"""

from __future__ import annotations

from repro import verification
from repro.applications.broadcast import BroadcastService
from repro.applications.waves import WaveEngine
from repro.columnar.block import ColumnBlock
from repro.columnar.engine import ColumnarRuntime
from repro.columnar.schema import ColumnSchema
from repro.core.monitor import PifCycleMonitor
from repro.runtime.daemons import CentralDaemon, SynchronousDaemon
from repro.runtime.rounds import RoundCounter
from repro.runtime.simulator import Simulator
from repro.runtime.state import InternTable
from repro.service import EventBus, WaveService
from repro.service.scheduler import TopologyScheduler
from repro.verification import model_check
from repro.verification.model_check import ModelCheckMemo

from tracer import Tracer
from workloads import Phase, percentile


def instrument(tracer: Tracer) -> None:
    """Wrap every traced boundary; undo with ``tracer.restore()``."""
    # -- service: submit and the scheduler run on the loop thread; the
    # wave runs on an executor thread, which cannot see its request.  A
    # topology runs one wave at a time, right after ``_next_batch`` pops
    # its batch, so that batch's first request is the wave's request.
    tracer.span(
        WaveService,
        "submit",
        "service.submit",
        request_of=lambda _args, handle: getattr(handle, "request_id", None),
    )
    tracer.span(
        TopologyScheduler,
        "_next_batch",
        "service.next_batch",
        request_of=lambda _args, batch: batch[0][0].request_id,
        on_return=lambda t, batch: setattr(
            t, "ambient_request", batch[0][0].request_id
        ),
    )
    # Schedulers publish through the bound ``publish`` they were given
    # by ``add_topology``, so this span sees only submit's ``accepted``.
    tracer.span(
        EventBus,
        "publish",
        "service.publish",
        request_of=lambda args, _result: args[1].request_id,
    )
    # -- applications
    tracer.span(WaveEngine, "run_wave", "applications.run_wave")
    tracer.span(BroadcastService, "broadcast", "applications.broadcast")
    # -- runtime
    tracer.span(Simulator, "run", "runtime.run")
    tracer.span(
        Simulator,
        "step",
        "runtime.step",
        on_return=lambda t, record: t.add("runtime.moves", len(record.selection)),
    )
    tracer.span(SynchronousDaemon, "select", "runtime.select")
    tracer.span(CentralDaemon, "select", "runtime.select")
    tracer.span(RoundCounter, "observe_step", "runtime.rounds")
    # -- columnar
    tracer.span(ColumnarRuntime, "execute_selection", "columnar.execute")
    tracer.span(ColumnarRuntime, "enabled_map", "columnar.enabled_map")
    tracer.span(ColumnarRuntime, "configuration", "columnar.materialize")
    tracer.count(ColumnSchema, "encode_state", "columnar.encode")
    tracer.count(ColumnBlock, "read_row", "columnar.row_io")
    tracer.count(ColumnBlock, "write_row", "columnar.row_io")
    # -- core
    tracer.span(PifCycleMonitor, "on_step", "core.monitor")
    # -- verification
    tracer.span(verification, "check_snap_safety", "verification.sweep")
    tracer.span(model_check, "check_snap_safety", "verification.sweep")
    tracer.span(ModelCheckMemo, "enabled_map", "verification.enabled_map")
    tracer.span(ModelCheckMemo, "transition", "verification.transition")
    tracer.span(ModelCheckMemo, "advance", "verification.advance")
    tracer.span(
        ModelCheckMemo,
        "successor_enabled_map",
        "verification.successor_enabled_map",
    )
    tracer.span(InternTable, "intern", "verification.intern")


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def per_layer(
    tracer: Tracer,
    untraced: Phase,
    traced: Phase,
    seconds=lambda start, end: end - start,
) -> dict[str, float]:
    """Every per-layer metric of one traced phase.

    Times are p50 self times per call unless the name says otherwise;
    ``_per_step`` counts divide by the traced ``Simulator.step`` calls.
    The tracing overhead compares the two phases as measured by
    ``seconds(start, end)``, so that host drift between them cancels.
    """

    def p(name: str, q: float = 0.5, scale: float = 1e6) -> float:
        times = tracer.self_times(name)
        return percentile(times, q) * scale if times else 0.0

    steps = tracer.calls("runtime.step")
    waves = tracer.calls("applications.run_wave")
    notes = traced.notes

    # service: per-request splits from the subscribe() stream.
    queue_wait, wave, fanout = [], [], []
    seen = notes.get("events_seen") or {}
    for request, (submitted, resumed) in (notes.get("request_times") or {}).items():
        initiated = seen.get((request, "initiated"))
        feedback = seen.get((request, "feedback"))
        if initiated is None or feedback is None:
            continue
        queue_wait.append(initiated - submitted)
        wave.append(feedback - initiated)
        fanout.append(resumed - feedback)

    def ms(values: list[float], q: float = 0.5) -> float:
        return percentile(values, q) * 1e3 if values else 0.0

    served = notes.get("requests_served", 0)
    result = notes.get("result")
    stats = result.stats if result is not None else None
    memo_lookups = stats.memo_hits + stats.memo_misses if stats else 0
    view_lookups = stats.view_hits + stats.view_misses if stats else 0
    intern_lookups = (
        stats.intern_hits + stats.interned_configurations if stats else 0
    )
    untraced_cost = _ratio(seconds(untraced.began, untraced.ended), untraced.work)
    traced_cost = _ratio(seconds(traced.began, traced.ended), traced.work)

    return {
        "service.submit_us": p("service.submit"),
        "service.queue_wait_p50_ms": ms(queue_wait),
        "service.queue_wait_p90_ms": ms(queue_wait, 0.9),
        "service.wave_ms": ms(wave),
        "service.fanout_ms": ms(fanout),
        "service.coalesce_ratio": _ratio(served, notes.get("waves_run", 0)),
        "service.events_per_request": _ratio(notes.get("events", 0), served),
        "applications.run_wave_self_ms": p("applications.run_wave", scale=1e3),
        "applications.broadcast_self_ms": p("applications.broadcast", scale=1e3),
        "applications.steps_per_wave": _ratio(steps, waves),
        "runtime.run_self_us": _ratio(tracer.total("runtime.run"), steps) * 1e6,
        "runtime.step_self_us": p("runtime.step"),
        "runtime.select_us": p("runtime.select"),
        "runtime.rounds_us": p("runtime.rounds"),
        "runtime.moves_per_step": _ratio(tracer.counted("runtime.moves"), steps),
        "columnar.execute_us": p("columnar.execute"),
        "columnar.enabled_map_us": p("columnar.enabled_map"),
        "columnar.materialize_us": p("columnar.materialize"),
        "columnar.materialize_calls_per_step": _ratio(
            tracer.calls("columnar.materialize"), steps
        ),
        "columnar.encode_calls_per_step": _ratio(
            tracer.counted("columnar.encode"), steps
        ),
        "columnar.row_io_calls_per_step": _ratio(
            tracer.counted("columnar.row_io"), steps
        ),
        "core.monitor_us": p("core.monitor"),
        "verification.enabled_map_us": p("verification.enabled_map"),
        "verification.transition_us": p("verification.transition"),
        "verification.advance_us": p("verification.advance"),
        "verification.successor_enabled_map_us": p(
            "verification.successor_enabled_map"
        ),
        "verification.intern_us": p("verification.intern"),
        "verification.sweep_self_ms": p("verification.sweep", scale=1e3),
        "verification.states": result.states_explored if result else 0,
        "verification.transitions": result.transitions_explored if result else 0,
        "verification.initiations": result.configurations_checked if result else 0,
        "verification.transition_memo_hit_ratio": _ratio(
            stats.memo_hits if stats else 0, memo_lookups
        ),
        "verification.transition_memo_lookups": memo_lookups,
        "verification.view_hit_ratio": _ratio(
            stats.view_hits if stats else 0, view_lookups
        ),
        "verification.view_lookups": view_lookups,
        "verification.intern_hit_ratio": _ratio(
            stats.intern_hits if stats else 0, intern_lookups
        ),
        "verification.intern_lookups": intern_lookups,
        "trace.overhead_pct": (
            (traced_cost / untraced_cost - 1.0) * 100 if untraced_cost else 0.0
        ),
        "trace.blocking_coverage_pct": _ratio(
            tracer.blocking_time(), traced.elapsed
        )
        * 100,
    }

"""The traced run: spans nest, self times add up, and wrapping is undone."""

import json
import threading
from pathlib import Path

import layers
from repro.runtime.simulator import Simulator
from repro.graphs.topologies import star
from repro.runtime.daemons import SynchronousDaemon
from hostspeed import HostSpeed
from tracer import Tracer
from workloads import Phase, ServeSession, SimSession

ROOT = Path(__file__).resolve().parents[2]


class Box:
    def outer(self, tracer_sleep):
        tracer_sleep()
        return self.inner()

    def inner(self):
        return 7


def test_self_time_excludes_children_and_restore_undoes_patches():
    tracer = Tracer()
    original = Box.__dict__["outer"]
    tracer.span(Box, "outer", "outer")
    tracer.span(Box, "inner", "inner")
    busy = lambda: sum(range(20_000))  # noqa: E731
    assert Box().outer(busy) == 7
    tracer.restore()
    assert Box.__dict__["outer"] is original
    assert tracer.calls("outer") == tracer.calls("inner") == 1
    (outer_record,) = [r for r in tracer._threads[0].records if r[3] == "outer"]
    (inner_record,) = [r for r in tracer._threads[0].records if r[3] == "inner"]
    assert inner_record[2] == outer_record[1]  # parent link
    outer_span = outer_record[5] - outer_record[4]
    inner_span = inner_record[5] - inner_record[4]
    assert abs(tracer.total("outer") - (outer_span - inner_span)) < 1e-9
    assert tracer.blocking_time() == outer_span


def test_threads_keep_separate_stacks():
    tracer = Tracer()
    tracer.span(Box, "inner", "inner")
    try:
        threads = [
            threading.Thread(target=lambda: [Box().inner() for _ in range(500)])
            for _ in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
            assert not thread.is_alive()
    finally:
        tracer.restore()
    assert tracer.calls("inner") == 2000
    assert all(r[2] is None for s in tracer._threads for r in s.records)


def test_traced_sim_phase_reports_every_per_layer_metric(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    session = SimSession(star(64), SynchronousDaemon, seed=0, speed=HostSpeed())
    untraced = session.phase(0.2)
    original = Simulator.__dict__["step"]
    tracer = Tracer()
    layers.instrument(tracer)
    try:
        assert Simulator.__dict__["step"] is not original
        traced = session.phase(0.2)
    finally:
        tracer.restore()
    assert Simulator.__dict__["step"] is original
    values = layers.per_layer(tracer, untraced, traced)
    assert sorted(values) == sorted(m["name"] for m in spec["per_layer"])
    assert values["runtime.moves_per_step"] > 1
    assert values["applications.steps_per_wave"] == 0.0  # no service here
    assert 50 < values["trace.blocking_coverage_pct"] <= 100.0
    assert tracer.write(tmp_path / "spans.jsonl") > 0
    assert isinstance(traced, Phase) and traced.failed == 0


def test_traced_serve_phase_gives_every_wave_span_its_request():
    session = ServeSession(32, seed=3, speed=HostSpeed())
    try:
        untraced = session.phase(0.3)
        tracer = Tracer()
        session.watch = True
        layers.instrument(tracer)
        try:
            traced = session.phase(0.5)
        finally:
            tracer.restore()
    finally:
        session.close()
    assert untraced.failed == traced.failed == 0
    records = [r for s in tracer._threads for r in s.records]
    waves = [r for r in records if r[3] == "applications.run_wave"]
    submitted = set(traced.notes["request_times"])
    assert waves and all(r[6] in submitted for r in waves)
    # Spans nested in a wave inherit its request.
    steps = [r for r in records if r[3] == "runtime.step"]
    assert steps and all(r[6] is not None for r in steps)
    values = layers.per_layer(tracer, untraced, traced)
    assert values["service.wave_ms"] > 0 and values["applications.steps_per_wave"] > 0

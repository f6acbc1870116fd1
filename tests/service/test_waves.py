"""WaveEngine: one engine serving every wave kind on one topology."""

from __future__ import annotations

import pytest

from repro.applications.waves import (
    WAVE_KINDS,
    WaveEngine,
    validate_wave_args,
)
from repro.errors import WaveRequestError
from repro.graphs import line, ring, star


class TestKinds:
    def test_pif_counts_every_ack(self, star6):
        engine = WaveEngine(star6)
        serving = engine.run_wave("pif", {"payload": "hello"})
        assert serving.value == {
            "acks": 6,
            "delivered_everywhere": True,
            "payload": "hello",
        }
        assert serving.ok

    def test_snapshot_reports_every_node(self, line5):
        engine = WaveEngine(line5)
        serving = engine.run_wave("snapshot")
        assert sorted(serving.value) == list(range(5))
        assert serving.value[3] == ("unreset", 3)

    def test_reset_applies_fresh_state_and_bumps_epoch(self, ring6):
        engine = WaveEngine(ring6)
        first = engine.run_wave("reset")
        assert first.value == {"epoch": 1, "confirmed": 6, "complete": True}
        assert all(s == ("epoch", 1) for s in engine.app_states.values())
        second = engine.run_wave("reset")
        assert second.value["epoch"] == 2
        snap = engine.run_wave("snapshot")
        assert all(v == ("epoch", 2) for v in snap.value.values())

    def test_infimum_ops(self, line5):
        engine = WaveEngine(line5)
        assert engine.run_wave("infimum", {"op": "min"}).value["value"] == 0
        assert engine.run_wave("infimum", {"op": "max"}).value["value"] == 4
        assert (
            engine.run_wave("infimum", {"op": "sum", "offset": 1}).value["value"]
            == 15
        )

    def test_census_matches_topology(self):
        engine = WaveEngine(ring(7))
        serving = engine.run_wave("census")
        assert serving.value == {"nodes": 7, "edges": 7, "matches": True}

    def test_every_kind_serves_on_every_small_topology(self, small_network):
        engine = WaveEngine(small_network)
        for kind in WAVE_KINDS:
            serving = engine.run_wave(kind)
            assert serving.ok, (small_network.name, kind)

    def test_waves_are_repeatable(self, star6):
        engine = WaveEngine(star6)
        a = engine.run_wave("census")
        b = engine.run_wave("census")
        assert (a.value, a.rounds, a.ok) == (b.value, b.rounds, b.ok)

    def test_columnar_engine_matches_incremental(self):
        net = star(12)
        incremental = WaveEngine(net, engine="incremental")
        columnar = WaveEngine(net, engine="columnar")
        for kind in WAVE_KINDS:
            a = incremental.run_wave(kind)
            b = columnar.run_wave(kind)
            assert (a.value, a.rounds, a.ok) == (b.value, b.rounds, b.ok), kind


class TestValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(WaveRequestError, match="unknown wave kind"):
            validate_wave_args("gossip", None)

    def test_non_mapping_args_rejected(self):
        with pytest.raises(WaveRequestError, match="mapping"):
            validate_wave_args("pif", [1, 2])  # type: ignore[arg-type]

    def test_unknown_infimum_op_rejected(self):
        with pytest.raises(WaveRequestError, match="infimum op"):
            validate_wave_args("infimum", {"op": "median"})

    @pytest.mark.parametrize("op", [["min"], {"min": 1}, 3, None])
    def test_non_string_infimum_op_rejected(self, op):
        # An unhashable op must be rejected by type, not escape as a
        # TypeError from the dict lookup.
        with pytest.raises(WaveRequestError, match="infimum op"):
            validate_wave_args("infimum", {"op": op})

    def test_non_integer_offset_rejected(self):
        with pytest.raises(WaveRequestError, match="offset"):
            validate_wave_args("infimum", {"offset": "two"})
        with pytest.raises(WaveRequestError, match="offset"):
            validate_wave_args("infimum", {"offset": True})

    def test_defaults_are_filled_in(self):
        assert validate_wave_args("infimum", None) == {
            "op": "min",
            "offset": 0,
        }

    def test_engine_rejects_bad_requests_too(self, line5):
        engine = WaveEngine(line5)
        with pytest.raises(WaveRequestError):
            engine.run_wave("gossip")
        assert engine.waves_completed == 0

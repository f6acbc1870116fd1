"""Each oracle accepts the right output and rejects a corrupted one."""

from dataclasses import dataclass, replace

import pytest

import oracles
from repro.core.pif import SnapPif
from repro.graphs.topologies import star
from repro.service import WaveResult
from repro.verification import ModelCheckResult, check_snap_safety
from repro.verification.model_check import (
    Counterexample,
    count_initiation_configurations,
)
from hostspeed import HostSpeed
from workloads import ServeSession

N = 8


def served(oracle, kind, args):
    """The expectation, and a result carrying exactly that value."""
    expected = oracle.expect(kind, args)
    result = WaveResult(
        request_id=0, kind=kind, topology="star", value=expected.value,
        rounds=7, ok=True,
    )
    return expected, result


CORRUPTIONS = {
    "pif": [
        ({"payload": "m"}, lambda v: {**v, "acks": N - 1}),
        ({"payload": "m"}, lambda v: {**v, "delivered_everywhere": False}),
        ({"payload": "m"}, lambda v: {**v, "payload": "other"}),
    ],
    "census": [
        ({}, lambda v: {**v, "nodes": N + 1}),
        ({}, lambda v: {**v, "edges": N}),
        ({}, lambda v: {**v, "matches": False}),
    ],
    "infimum": [
        ({"op": "min", "offset": 2}, lambda v: {**v, "value": v["value"] + 1}),
        ({"op": "max", "offset": 0}, lambda v: {**v, "value": N}),
        ({"op": "sum", "offset": 1}, lambda v: {**v, "value": v["value"] - 1}),
    ],
    "reset": [
        ({}, lambda v: {**v, "epoch": v["epoch"] + 1}),
        ({}, lambda v: {**v, "confirmed": N - 1}),
        ({}, lambda v: {**v, "complete": False}),
    ],
    "snapshot": [
        ({}, lambda v: {**v, 3: ("epoch", 99)}),
        ({}, lambda v: {p: s for p, s in v.items() if p != 0}),
    ],
}


@pytest.mark.parametrize("kind", sorted(CORRUPTIONS))
def test_serve_oracle_accepts_exact_value(kind):
    oracle = oracles.ServeOracle(N)
    args = CORRUPTIONS[kind][0][0]
    expected, result = served(oracle, kind, args)
    assert oracle.accepts(expected, result)


@pytest.mark.parametrize(
    "kind,case",
    [(k, i) for k, cases in sorted(CORRUPTIONS.items()) for i in range(len(cases))],
)
def test_serve_oracle_rejects_corrupted_value(kind, case):
    oracle = oracles.ServeOracle(N)
    args, corrupt = CORRUPTIONS[kind][case]
    expected, result = served(oracle, kind, args)
    assert not oracle.accepts(expected, replace(result, value=corrupt(result.value)))


def test_serve_oracle_rejects_failed_verdict_and_wrong_kind():
    oracle = oracles.ServeOracle(N)
    expected, result = served(oracle, "pif", {"payload": "m"})
    assert not oracle.accepts(expected, replace(result, ok=False))
    assert not oracle.accepts(expected, replace(result, kind="census"))


def test_infimum_folds_match_brute_force():
    for op, fold in (("min", min), ("max", max), ("sum", sum)):
        for offset in range(3):
            assert oracles.infimum_value(N, op, offset) == fold(
                p + offset for p in range(N)
            )


def test_snapshot_tracks_reset_epochs_in_submission_order():
    oracle = oracles.ServeOracle(3)
    assert oracle.expect("snapshot", {}).value == {
        0: ("unreset", 0), 1: ("unreset", 1), 2: ("unreset", 2),
    }
    assert oracle.expect("reset", {}).value["epoch"] == 1
    assert oracle.expect("reset", {}).value["epoch"] == 2
    assert oracle.expect("snapshot", {}).value == {p: ("epoch", 2) for p in range(3)}


@dataclass
class Report:
    ok: bool


def test_sim_oracle():
    good = [Report(True), Report(True)]
    assert oracles.sim_wave_ok(True, 1, good)
    assert not oracles.sim_wave_ok(False, 1, good)  # run hit its budget
    assert not oracles.sim_wave_ok(True, 0, good)  # two cycles in one run
    assert not oracles.sim_wave_ok(True, 1, [Report(True), Report(False)])


def test_verify_oracle():
    clean = ModelCheckResult(
        property_name="snap-safety",
        configurations_checked=oracles.STAR4_INITIATIONS,
    )
    assert oracles.verify_ok(clean)
    assert not oracles.verify_ok(
        replace(clean, configurations_checked=oracles.STAR4_INITIATIONS - 1)
    )
    assert not oracles.verify_ok(replace(clean, complete=False))
    dirty = replace(clean, counterexamples=[Counterexample(None, (), "PIF1")])
    assert not oracles.verify_ok(dirty)


def test_star4_constants_match_the_full_check():
    """The verify workload's fixed numerators are what the unreduced,
    serial check of star-4 reports, and the oracle accepts that check."""
    network = star(4)
    result = check_snap_safety(network, protocol=SnapPif.for_network(network))
    assert oracles.verify_ok(result)
    assert result.configurations_checked == oracles.STAR4_INITIATIONS
    assert result.transitions_explored == oracles.STAR4_FULL_TRANSITIONS


def test_star4_initiation_constant_is_the_full_set():
    network = star(4)
    constants = SnapPif.for_network(network).constants
    assert (
        count_initiation_configurations(network, constants)
        == oracles.STAR4_INITIATIONS
    )


def test_service_outputs_pass_the_oracle_on_a_small_star():
    session = ServeSession(32, seed=5, speed=HostSpeed())
    try:
        phase = session.phase(1.0)
    finally:
        session.close()
    assert session.warmup.failed == 0
    assert phase.attempted >= 8 and phase.failed == 0
    assert phase.notes["waves_run"] <= phase.notes["requests_served"]

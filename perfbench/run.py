"""The repository's benchmark: one workload, one run, one JSON result line.

Run from the repository root::

    python3 perfbench/run.py --workload serve-star1024 --seed 1 --seconds 10 --trace 0

``--trace 0`` times the workload through the public API with nothing
wrapped and reports every end-to-end metric of ``BENCHMARK.json``, its
times rescaled to a reference host speed (see ``hostspeed.py``); the
wall figures are printed above the result line.
``--trace 1`` first runs half of ``--seconds`` untraced, then wraps the
layer boundaries (see ``layers.py``) and runs the other half traced; it
reports every per-layer metric, including the tracing overhead, and
writes the span records to ``.perfbench_out/``.

Every wave request's output is checked against an oracle
(``oracles.py``).  The last line of standard output is the result
object ``{"correct", "attempted", "failed", "metrics"}``; the lines
above it repeat the metrics for people, with the failed share, the
latency sample count and the host.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORKLOAD_NAMES = (
    "serve-star1024",
    "sim-sync-star4096",
    "sim-central-grid32",
    "verify-star4",
)


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def wall_seconds(start: float, end: float) -> float:
    return end - start


def end_to_end(setup_spans, phase, seconds) -> dict[str, float]:
    """The end-to-end metrics, every interval measured by ``seconds``:
    ``HostSpeed.seconds`` for the reported ones, :func:`wall_seconds`
    for the wall figures printed beside them."""
    from workloads import percentile

    latencies = [seconds(*span) for span in phase.spans]
    elapsed = seconds(phase.began, phase.ended)
    return {
        "wave_requests_per_s": phase.requests / elapsed,
        "request_latency_p50_ms": percentile(latencies, 0.5) * 1e3,
        "request_latency_p90_ms": percentile(latencies, 0.9) * 1e3,
        "steps_per_s": phase.steps / elapsed,
        "verified_initiations_per_s": phase.initiations / elapsed,
        "setup_s": statistics.median(seconds(*span) for span in setup_spans),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no package at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    # The program sees only the benchmark's inputs: no REPRO_* knob
    # from the caller's environment changes engines, memo or workers.
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))

    from hostspeed import HostSpeed, pin

    # Before any thread starts: every thread of the run shares one CPU
    # with the host-speed sampler.
    cpu = pin()
    from repro.columnar.backend import resolve_backend
    from tracer import Tracer
    from workloads import WORKLOADS, nproc

    speed = HostSpeed(cpu)
    session = WORKLOADS[args.workload](args.seed, speed)
    phases = [session.warmup] if hasattr(session, "warmup") else []
    try:
        if args.trace:
            import layers

            tracer = Tracer()
            with speed:
                untraced = session.phase(args.seconds / 2)
                session.watch = True
                layers.instrument(tracer)
                try:
                    traced = session.phase(args.seconds / 2)
                finally:
                    tracer.restore()
            phases += [untraced, traced]
            values = layers.per_layer(tracer, untraced, traced, speed.seconds)
            declared = spec["per_layer"]
        else:
            with speed:
                timed = session.phase(args.seconds)
            phases.append(timed)
            values = end_to_end(session.setup_spans, timed, speed.seconds)
            wall = end_to_end(session.setup_spans, timed, wall_seconds)
            declared = spec["end_to_end"]
    finally:
        session.close()

    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in declared
    }

    print(
        f"# perfbench {args.workload} seed={args.seed} "
        f"seconds={args.seconds:g} trace={args.trace}"
    )
    print(
        f"# host: nproc={nproc()} (pinned to cpu {cpu}) cpu={cpu_model()!r} "
        f"python={platform.python_version()} backend={resolve_backend(None)}"
    )
    for name, metric in metrics.items():
        print(f"{name:42s} {metric['value']:>14.6g} {metric['unit']}")
    print(f"{'failed_share':42s} {failed / attempted:>14.6g} ({failed} of {attempted})")
    if args.trace:
        out = ROOT / ".perfbench_out"
        out.mkdir(exist_ok=True)
        path = out / f"spans-{args.workload}-seed{args.seed}.jsonl"
        written = tracer.write(path)
        more = " (capped)" if tracer.records_truncated() else ""
        print(f"# {written} span records{more} written to {path.relative_to(ROOT)}")
    else:
        samples = len(timed.spans)
        beyond = samples - max(1, math.ceil(0.9 * samples - 1e-9))
        print(
            f"# latency samples: {samples} "
            f"({beyond} beyond p90); set-ups timed: {len(session.setup_spans)}; "
            f"host kernel median {statistics.median(speed.kernels) * 1e3:.3f} ms "
            f"over {len(speed.kernels)} samples; cpu {cpu} held "
            f"{speed.held(timed.began, timed.ended) * 100:.2f}% of the phase"
        )
        print(
            "# wall, not rescaled: "
            + ", ".join(f"{name}={wall[name]:.6g}" for name in metrics)
        )
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

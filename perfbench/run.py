"""orbitposet benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from ``src/``.
Load is a closed loop with one client in one thread: each operation starts
when the previous one returns.  A workload runs in passes over a fixed shape
of operations, each pass with fresh seeded inputs, until ``--seconds`` of
operation time have been measured and at least one library load's worth of
passes has run (the oracle pass, ``verify_all`` at its default ranges, is
indivisible and always runs whole).  The library is reloaded cold every
``passes_per_load`` passes, so the state a pass starts from depends on its
index, never on how many passes fit in the time.  Outputs are checked after
each pass, outside the timed window.  Times are read from ``hostclock``, in
seconds of a reference host, so that the shared host's changes of speed do
not show as changes of the library's.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` first repeats the
untraced measurement, then reloads the library cold, wraps its public
functions (see ``tracer.py``) and replays the same passes; it prints the
per-layer metrics and ``trace.overhead_ratio`` and writes every span, with
its self time, to ``perfbench/out/``.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import jsonschema  # noqa: E402,F401 - the cli-stream checker's; loaded before any RSS is read
import hostclock  # noqa: E402
import library  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

DEFAULT_SEED = 0
SETUP_REPEATS = 15
DIGESTS = os.path.join(HERE, "digests.json")
OUT_DIR = os.path.join(HERE, "out")


@dataclass
class Measurement:
    pass_s: list[float] = field(default_factory=list)  # at reference host speed (hostclock.py)
    wall_pass_s: list[float] = field(default_factory=list)  # as the wall clock read them
    kernel_s: list[float] = field(default_factory=list)  # host-speed samples
    op_s: dict[str, list[float]] = field(default_factory=dict)  # op latencies by op kind
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    peak_rss_mb: float | None = None  # read once the first library load's passes are done


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def load_pins() -> dict:
    with open(DIGESTS) as fh:
        return json.load(fh)


def pins_for(pins: dict, workload: workloads.Workload, seed: int, index: int) -> list | None:
    """Pinned output digests of one pass, if this seed and pass have any."""
    passes = pins["workloads"].get(workload.name, [])
    if workload.fixed_inputs:
        return passes[0] if passes else None
    if seed != pins["seed"] or index >= len(passes):
        return None
    return passes[index]


def run_pass(ops: list, clock=time.perf_counter, tr: tracing.Tracer | None = None) -> float:
    """Time every op back to back; an op that raises is recorded, not fatal."""
    start = clock()
    for op_id, op in enumerate(ops):
        t0 = clock()
        try:
            if tr is None:
                op.result = op.call()
            else:
                with tr.op(op_id, op.kind):
                    op.result = op.call()
        except Exception as exc:  # noqa: BLE001 - a failed op is counted, the run goes on
            op.error = f"{type(exc).__name__}: {exc}"
        op.latency = clock() - t0
    return clock() - start


def check_pass(workload: workloads.Workload, ops: list, pins: list | None) -> list[str]:
    """One message per failed op (plus one for a failed workload gate)."""
    failures = []
    for i, op in enumerate(ops):
        problem = op.error
        if problem is None:
            try:
                problem = op.check(op)
                if problem is None and pins is not None and i < len(pins):
                    if digest(op.render(op.result)) != pins[i]:
                        problem = "output differs from the pinned digest"
            except Exception as exc:  # noqa: BLE001 - a check that cannot run is a failure
                problem = f"check raised {type(exc).__name__}: {exc}"
        if problem is not None:
            failures.append(f"op {i} {op.kind} n={op.n} k={op.k}: {problem}")
    if workload.gate is not None:
        problem = workload.gate(ops)
        if problem is not None:
            failures.append(f"gate: {problem}")
    return failures


def measure(workload, seed: int, pins: dict, seconds: float | None = None,
            passes: int | None = None, tr: tracing.Tracer | None = None) -> Measurement:
    """Run passes until ``seconds`` of pass wall time and one full load, or exactly ``passes`` passes."""
    host = hostclock.HostClock()
    host.start()
    try:
        m = run_passes(workload, seed, pins, host, seconds, passes, tr)
    finally:
        host.stop()
    m.kernel_s = host.kernel_s
    return m


def run_passes(workload, seed, pins, host, seconds, passes, tr) -> Measurement:
    m = Measurement()
    index = 0
    while True:
        if index % workload.passes_per_load == 0:
            lib = library.load(ROOT)
        ops = workload.ops(lib, workload.inputs(seed, index))
        gc.collect()  # the previous pass's garbage is not this pass's cost
        if tr is not None:
            tr.install(lib)
        wall = time.perf_counter()
        try:
            m.pass_s.append(run_pass(ops, host.now, tr))
        finally:
            if tr is not None:
                tr.uninstall()
        m.wall_pass_s.append(time.perf_counter() - wall)
        for op in ops:
            m.op_s.setdefault(op.kind, []).append(op.latency)
        m.attempted += len(ops)
        m.failures += check_pass(workload, ops, pins_for(pins, workload, seed, index))
        index += 1
        if index == workload.passes_per_load:
            m.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if passes is not None:
            if index >= passes:
                return m
        elif sum(m.wall_pass_s) >= seconds and index >= workload.passes_per_load:
            return m


# Times one cold set-up in a new interpreter: import orbitposet from src/ and
# build the first pass's inputs and calls, with every cache empty.  The host's
# speed, measured just before and after, turns it into reference seconds.
SETUP_PROBE = """
import sys, time
sys.path.insert(0, sys.argv[1])
import hostclock, library, workloads
workload = workloads.WORKLOADS[sys.argv[3]]
before = hostclock.speed_scale()
start = time.perf_counter()
lib = library.load(sys.argv[2])
workload.ops(lib, workload.inputs(int(sys.argv[4]), 0))
elapsed = time.perf_counter() - start
print(elapsed * (before + hostclock.speed_scale()) / 2)
"""


def setup_times(workload, seed: int) -> list[float]:
    """Set-up seconds of ``SETUP_REPEATS`` fresh interpreters, one after another."""
    library.source_dir(ROOT)  # fail here, with its message, when there is nothing to load
    times = []
    for _ in range(SETUP_REPEATS):
        child = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, HERE, ROOT, workload.name, str(seed)],
            capture_output=True, text=True, timeout=60, check=True,
        )
        times.append(float(child.stdout.split()[-1]))
    return times


def end_to_end(workload, setup_s: list[float], m: Measurement) -> dict:
    lat = sorted(m.pass_s if workload.pass_latency else [t for ts in m.op_s.values() for t in ts])
    p90 = statistics.quantiles(lat, n=10, method="inclusive")[8] if len(lat) > 1 else lat[0]
    return {
        "setup_s": (statistics.median(setup_s), "s"),
        # the mean pass: over ten seeds it spread less than the median or the
        # fastest pass, whose host-speed phases a single run rarely averages out
        "wall_s": (statistics.fmean(m.pass_s), "s"),
        "ops_per_s": (m.attempted / sum(m.pass_s), "1/s"),
        "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "op_p90_ms": (p90 * 1e3, "ms"),
        "peak_rss_mb": (m.peak_rss_mb, "MB"),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]
    pins = load_pins()

    try:
        setup_s = setup_times(workload, args.seed)
    except library.MissingLibrary as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    plain = measure(workload, args.seed, pins, seconds=args.seconds)
    metrics = end_to_end(workload, setup_s, plain)
    attempted, failures = plain.attempted, list(plain.failures)
    speed = hostclock.median_speed(plain.kernel_s)
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "passes": len(plain.pass_s), "pass_s": plain.pass_s, "wall_pass_s": plain.wall_pass_s,
              "kernel_s": plain.kernel_s, "host_speed": speed, "samples": plain.attempted}

    if args.trace:
        tr = tracing.Tracer()
        traced = measure(workload, args.seed, pins, passes=len(plain.pass_s), tr=tr)
        attempted += traced.attempted
        failures += traced.failures
        report["untraced"] = metrics
        # The tracer reads the wall clock (the host clock would slow every
        # wrapped call), so its self times are put into reference seconds by
        # the traced passes' median host speed.
        scale = hostclock.median_speed(traced.kernel_s)
        metrics = {name: (value * scale if name.endswith(".self_s") else value, unit)
                   for name, (value, unit) in tr.layer_metrics().items()}
        report["traced_host_speed"] = scale
        # suite times come from the untraced passes, which the wrappers do not slow
        for suite in workloads.ORACLE_SUITES:
            times = plain.op_s.get(suite) if workload.name == "oracle" else None
            metrics[f"oracle.{suite}.s"] = (statistics.median(times) if times else 0.0, "s")
        metrics["trace.overhead_ratio"] = (sum(traced.pass_s) / sum(plain.pass_s), "ratio")
        report["traced_pass_s"] = traced.pass_s
        report["spans"] = tr.span_table()

    failed = len(failures)
    report.update(metrics=metrics, attempted=attempted, failed=failed, failures=failures[:50])
    os.makedirs(OUT_DIR, exist_ok=True)
    out_path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out_path, "w") as fh:
        json.dump(report, fh)

    print(f"workload {args.workload} seed {args.seed}: {len(plain.pass_s)} passes, "
          f"{plain.attempted} op samples, report in {os.path.relpath(out_path, ROOT)}")
    print(f"host speed {speed:.3f} x reference (median of {len(plain.kernel_s)} samples); "
          f"mean pass {statistics.fmean(plain.wall_pass_s):.6g} s on the wall clock")
    for failure in failures[:10]:
        print(f"FAILED {failure}")
    print(f"error_rate {failed / attempted:.6g} ({failed}/{attempted})")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

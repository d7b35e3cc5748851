"""Tests of the benchmark harness itself (not of orbitposet).

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import signal
import sys
import time
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import hostclock  # noqa: E402
import library  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture
def lib():
    """A fresh orbitposet; the modules other tests imported are put back after."""
    saved = {k: v for k, v in sys.modules.items() if k == "orbitposet" or k.startswith("orbitposet.")}
    try:
        yield library.load(run.ROOT)
    finally:
        for name in [k for k in sys.modules if k == "orbitposet" or k.startswith("orbitposet.")]:
            del sys.modules[name]
        sys.modules.update(saved)


def _shape(ops):
    return [(op.kind, op.n, op.k) for op in ops]


@pytest.mark.parametrize("name", ["poset-queries", "tableau-queries", "cli-stream"])
def test_seeds_change_inputs_but_not_shape(lib, name):
    workload = workloads.WORKLOADS[name]
    first, again, other = (workload.inputs(seed, 0) for seed in (1, 1, 2))
    assert first == again
    assert first != other
    assert _shape(workload.ops(lib, first)) == _shape(workload.ops(lib, other))
    assert workload.inputs(1, 1) != first  # every pass draws new inputs


def _bindings(lib) -> dict:
    found = {}
    for name, module in sys.modules.items():
        if name == "orbitposet" or name.startswith("orbitposet."):
            for key, value in vars(module).items():
                found[(name, key)] = value
    for key in ("__init__", "parse"):
        found[("Involution", key)] = lib.Involution.__dict__[key]
    return found


def test_uninstall_restores_every_binding(lib):
    before = _bindings(lib)
    tr = tracing.Tracer()
    tr.install(lib)
    during = _bindings(lib)
    changed = {key for key in before if during[key] is not before[key]}
    # the poset module's own import of leq is rebound along with the definition
    assert {("orbitposet.poset", "leq"), ("orbitposet.rank_matrices", "leq"),
            ("orbitposet", "intersect"), ("Involution", "__init__")} <= changed
    a = lib.Involution.parse("(1,3)(2,4)", 4)
    b = lib.Involution.parse("(1,2)(3,4)", 4)
    with tr.op(0, "probe"):
        lib.poset.intersect(a, b)
    tr.uninstall()
    after = _bindings(lib)
    assert all(after[key] is before[key] for key in before)
    assert tr.stats["poset.intersect"][0] == 1
    assert tr.stats["rank_matrices.leq"][0] > 0
    assert all(span[1] != "rank_matrices.leq" for span in tr.spans)  # hot calls fold into parents


def test_wrong_output_fails_the_digest_and_counts_as_error(lib, monkeypatch):
    workload = workloads.WORKLOADS["cli-stream"]
    ops = workload.ops(lib, workload.inputs(run.DEFAULT_SEED, 0))
    run.run_pass(ops)
    pins = run.pins_for(run.load_pins(), workload, run.DEFAULT_SEED, 0)
    assert run.check_pass(workload, ops, pins) == []

    # Same payload, other whitespace: valid JSON, right schema, right values,
    # so only the pinned digest can catch it.
    original_main = lib.cli.main

    def reformatted(argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = original_main(argv)
        print(json.dumps(json.loads(out.getvalue()), indent=1).replace("\n", ""))
        return code

    monkeypatch.setattr(lib.cli, "main", reformatted)
    monkeypatch.setattr(library, "load", lambda root: lib)
    m = run.measure(workload, run.DEFAULT_SEED, run.load_pins(), passes=1)
    assert m.attempted == len(ops)
    assert len(m.failures) == m.attempted  # every op fails, so error_rate is 1
    assert all("pinned digest" in failure for failure in m.failures)


def test_intersect_check_catches_a_missing_component(lib):
    workload = workloads.WORKLOADS["poset-queries"]
    ops = [op for op in workload.ops(lib, workload.inputs(run.DEFAULT_SEED, 0))
           if op.kind.startswith("intersect") and op.n == 8]
    run.run_pass(ops)
    assert all(op.check(op) is None for op in ops)
    op = next(op for op in ops if len(op.result.components) > 1)
    # Drop a lowest component: the rest stay below the meet, pairwise
    # incomparable and with the same top dimension, so only completeness fails.
    low = min(range(len(op.result.components)), key=lambda i: op.result.component_dims[i])
    keep = [i for i in range(len(op.result.components)) if i != low]
    op.result = types.SimpleNamespace(
        meet=op.result.meet, codim=op.result.codim,
        components=[op.result.components[i] for i in keep],
        component_dims=[op.result.component_dims[i] for i in keep],
    )
    assert "maximal" in op.check(op)


def test_host_clock_scales_by_the_sampled_speed(monkeypatch):
    # A host at half the reference speed: the kernel takes twice as long.
    monkeypatch.setattr(hostclock, "kernel_time", lambda: 2 * hostclock.KERNEL_REF_S)
    host = hostclock.HostClock()
    host.start()
    try:
        wall, start = time.perf_counter(), host.now()
        while time.perf_counter() - wall < 0.35:
            pass
        read, wall = host.now() - start, time.perf_counter() - wall
    finally:
        host.stop()
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(host.kernel_s) >= 2
    assert 0.45 < read / wall < 0.55

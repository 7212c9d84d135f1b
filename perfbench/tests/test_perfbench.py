"""The benchmark's own tests: tiny smoke runs and non-vacuous checks.

Run from the repository root:  python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import repro.toolchain
from perfbench import bench, compare, layers, workloads
from perfbench.host import HostClock
from perfbench.spans import SpanRecorder, chrome_trace
from repro.obs.chrome import validate_trace

from conftest import ROOT

WORKLOADS = sorted(workloads.WORKLOADS)


def _setup(name):
    return workloads.run_setup(workloads.WORKLOADS[name], 5, "tiny",
                               HostClock())[0]


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", WORKLOADS)
def test_tiny_run_is_correct_and_reports_every_metric(name, trace):
    record = bench.run(name, seed=3, seconds=0, trace=trace, size="tiny",
                       save=False)
    assert record["correct"], record["failures"]
    assert record["failed"] == 0 and record["attempted"] >= 1
    expected = layers.PER_LAYER if trace else bench.END_TO_END
    assert set(record["metrics"]) == set(expected)
    if not trace:
        assert all(m["value"] > 0 for m in record["metrics"].values())


def test_spec_exec_refuses_a_wrong_reference_cycle_count():
    ctx = _setup("spec-exec")
    reference = workloads.spec_reference(ctx)
    assert workloads.spec_check(ctx, reference) == []
    name, (instret, cycles) = next(iter(reference.items()))
    planted = dict(reference, **{name: (instret, cycles + 1)})
    failures = workloads.spec_check(ctx, planted)
    assert len(failures) == 1 and name in failures[0]


@pytest.mark.parametrize("verdict", ["expect_accept", "expect_refuse"])
def test_compile_verify_refuses_a_flipped_verdict(verdict):
    ctx = _setup("compile-verify")
    assert workloads.cv_measure(ctx, None, HostClock()).failures == []
    ctx["programs"][1][verdict] = False
    failures = workloads.cv_measure(ctx, None, HostClock()).failures
    assert len(failures) == 1 and failures[0].startswith("program 1:")


def test_serve_mix_refuses_a_wrong_exit_code():
    ctx = _setup("serve-mix")
    clean = workloads.serve_measure(ctx, workloads.serve_prepare(ctx),
                                    HostClock())
    assert clean.failures == []
    request = next(key[0] for key in clean.virtual if key[2] == "ok")
    at, tenant, image, code, stdout = ctx["offers"][request]
    ctx["offers"][request] = (at, tenant, image, code + 1, stdout)
    failures = workloads.serve_measure(
        ctx, workloads.serve_prepare(ctx), HostClock()).failures
    assert len(failures) == 1
    assert failures[0].startswith(f"request {request} ")


def test_units_with_different_virtual_outputs_fail_the_run():
    same = workloads.Unit([0.1], [1.0], ("a",), 1)
    other = workloads.Unit([0.1], [1.0], ("b",), 1)
    finished = {"failures": []}
    assert bench._checks([same, same], finished) == []
    assert bench._checks([same, other], finished) == [
        "unit 1: virtual outputs differ from unit 0"]


def test_install_wraps_the_looked_up_name_and_uninstall_restores_it():
    original = repro.toolchain.parse_assembly
    rec = SpanRecorder()
    layers.install(rec)
    try:
        assert repro.toolchain.parse_assembly is not original
        repro.toolchain.compile_lfi(workloads.gold_program(2, 1))
    finally:
        rec.uninstall()
    assert repro.toolchain.parse_assembly is original
    names = {span.name for span in rec.spans}
    assert {"arm64.parse", "core.rewrite", "arm64.assemble",
            "elf.build"} <= names
    assert rec.counters["core.guards"] > 0


def test_self_time_subtracts_children_and_trace_validates():
    rec = SpanRecorder()
    outer = rec.open("outer")
    inner = rec.open("inner")
    rec.close(inner)
    rec.close(outer)
    spans = rec.spans
    spans[0].start_ns, spans[0].end_ns = 0, 10_000
    spans[1].start_ns, spans[1].end_ns = 2_000, 5_000
    assert rec.self_ns() == {"outer": 7_000, "inner": 3_000}
    assert validate_trace(chrome_trace(spans)) == []


def test_compare_prints_each_metric_delta(tmp_path):
    def record(value):
        return {"workload": "spec-exec", "seed": 1,
                "provenance": {"git_revision": "abc"},
                "metrics": {"emulator.exec_ms": {"value": value,
                                                 "unit": "ms"}}}
    rows = compare.compare(record(200.0), record(150.0))
    assert rows == [("emulator.exec_ms", "ms", 200.0, 150.0, -50.0, -25.0)]
    paths = []
    for i, value in enumerate((200.0, 150.0)):
        path = tmp_path / f"r{i}.json"
        path.write_text(json.dumps(record(value)))
        paths.append(str(path))
    assert compare.main(paths) == 0


def test_run_fails_without_the_repository_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "spec-exec",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""

"""Every workload at toy scale, untraced and traced: outputs check out,
metrics come back complete, and a corrupted output is caught."""

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from perfbench import loadgen, spans
from perfbench.run import result_metrics
from perfbench.workloads import WORKLOADS, paper_pipeline, serve_open, synth_month
from repro.core import CollocationNetwork
from repro.obs import configure, enabled

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}


@pytest.fixture
def tiny(monkeypatch):
    for name, value in {"PERSONS": 600, "N_CHECK_VERTICES": 16}.items():
        monkeypatch.setattr(paper_pipeline, name, value)
    for name, value in {"PERSONS": 600, "RANKS": 2, "WEEKS": 2}.items():
        monkeypatch.setattr(synth_month, name, value)
    for name, value in {"PERSONS": 600, "RANKS": 2, "WEEKS": 2,
                        "CLOSED_REQUESTS": 8, "LOW_QPS": 8.0,
                        "HIGH_QPS": 16.0}.items():
        monkeypatch.setattr(serve_open, name, value)
    before = enabled()
    yield
    configure(before)


def run(workload, workdir: Path, traced: bool):
    configure(traced)
    spans.drain()
    state = workload.setup(7, workdir, traced)
    try:
        return workload.measure(state, 1.0, traced)
    finally:
        workload.teardown(state)


def perturbed(net: CollocationNetwork) -> CollocationNetwork:
    adj = net.adjacency.copy()
    adj.data = adj.data.copy()
    adj.data[0] += 1
    return CollocationNetwork(adj, net.t0, net.t1)


@pytest.mark.timeout(300)
@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_smoke(name, traced, tiny, tmp_path):
    m, checks = run(WORKLOADS[name], tmp_path / "w", traced)
    assert checks.failed == 0, checks.failures
    assert checks.attempted > 0
    assert set(m.end_to_end) == {"pass_s", "peak_rss_mb"}
    assert all(v > 0 for v in m.end_to_end.values())
    assert not (tmp_path / "w").exists()
    if traced:
        assert set(m.per_layer) <= PER_LAYER, set(m.per_layer) - PER_LAYER
        assert {"obs.overhead_pct", "trace.unattributed_pct", "sim.run_s"} <= set(m.per_layer)
        assert m.spans and m.traced_wall_s > 0
        metrics = result_metrics(SPEC, m.per_layer, trace=True)
        assert set(metrics) == PER_LAYER
    else:
        assert m.per_layer == {}


@pytest.mark.timeout(300)
def test_paper_pipeline_catches_wrong_clustering(tiny, tmp_path, monkeypatch):
    real = paper_pipeline.local_clustering
    monkeypatch.setattr(paper_pipeline, "local_clustering", lambda net: real(net) * 0.5)
    monkeypatch.setattr(paper_pipeline, "golden_digest", lambda: "0" * 64)
    _m, checks = run(paper_pipeline, tmp_path / "w", False)
    assert "fig4 local clustering on sampled vertices" in checks.failures
    assert "figures digest vs committed golden" in checks.failures


@pytest.mark.timeout(300)
def test_synth_month_catches_a_wrong_shard_result(tiny, tmp_path, monkeypatch):
    real = synth_month.shard_synthesize

    def wrong(*args, **kwargs):
        net, report = real(*args, **kwargs)
        return perturbed(net), report

    monkeypatch.setattr(synth_month, "shard_synthesize", wrong)
    _m, checks = run(synth_month, tmp_path / "w", False)
    assert "full horizon: 2-shard vs from-logs" in checks.failures
    assert checks.failed == 2  # the full horizon and the sampled window


@pytest.mark.timeout(300)
def test_serve_open_catches_a_wrong_window(tiny, tmp_path, monkeypatch):
    real = loadgen.decode_network
    monkeypatch.setattr(loadgen, "decode_network", lambda blob: perturbed(real(blob)))
    _m, checks = run(serve_open, tmp_path / "w", False)
    assert checks.failures and all(f.startswith("served window") for f in checks.failures)


def test_process_cpu_s_matches_process_time():
    """serve-open's pass_s reads a process's CPU time from /proc; for
    this process it must agree with the interpreter's own clock."""
    before, tic = serve_open.process_cpu_s(os.getpid()), time.process_time()
    sum(i * i for i in range(3_000_000))
    spent = time.process_time() - tic
    read = serve_open.process_cpu_s(os.getpid()) - before
    assert spent > 0.05
    assert abs(read - spent) < 0.03 + 0.1 * spent


def test_per_layer_metrics_not_exercised_read_zero():
    metrics = result_metrics(SPEC, {"sim.run_s": 1.5}, trace=True)
    assert metrics["sim.run_s"] == {"value": 1.5, "unit": "s"}
    assert metrics["service.request_ms"]["value"] == 0.0
    with pytest.raises(KeyError):
        result_metrics(SPEC, {"setup_s": 1.0}, trace=False)


def test_run_fails_without_the_program(tmp_path):
    """In a tree holding only the benchmark, the run exits non-zero and
    prints no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    cmd = SPEC["command"] + ["--workload", "paper-pipeline", "--seed", "1",
                             "--seconds", "1", "--trace", "0"]
    cmd[0] = sys.executable
    out = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
    assert not (tmp_path / ".bench_build").exists()


def test_unknown_workload_is_refused():
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "nope",
           "--seed", "1", "--seconds", "1"]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0 and "unknown workload" in out.stderr


def test_golden_digest_is_keyed_by_scale(monkeypatch):
    assert paper_pipeline.golden_digest() is not None
    monkeypatch.setattr(paper_pipeline, "PERSONS", 123)
    assert paper_pipeline.golden_digest() is None

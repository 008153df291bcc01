"""BENCHMARK.json: its keys, name and unit formats, bounds, and whether
a full set of runs fits the time budget."""

import json
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")
#: the run budget every workload's runs must fit, with set-up and builds
BUDGET_S = 3420


def test_exact_keys():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert (ROOT / "BENCHMARK.json").stat().st_size <= 64 * 1024


def test_paths_and_command():
    assert 1 <= len(SPEC["paths"]) <= 16
    for p in SPEC["paths"]:
        assert PATH.match(p) and not p.startswith("/") and ".." not in p.split("/")
        assert (ROOT / p).is_dir()
        for f in (ROOT / p).rglob("*"):
            assert not f.is_symlink()
    cmd = SPEC["command"]
    assert 1 <= len(cmd) <= 32 and all(isinstance(c, str) and len(c) <= 200 for c in cmd)
    for arg in cmd[1:]:
        assert not arg.startswith("/") and ".." not in arg.split("/")
        if "/" in arg:
            assert any(arg.startswith(p.rstrip("/") + "/") for p in SPEC["paths"])


def test_workloads():
    w = SPEC["workloads"]
    assert 2 <= len(w) <= 8
    for item in w:
        assert set(item) == {"name", "why"}
        assert NAME.match(item["name"])
        assert 0 < len(item["why"]) <= 200 and "\n" not in item["why"]
    assert {i["name"] for i in w} == {"paper-pipeline", "synth-month", "serve-open"}


def test_metrics():
    e2e, layers = SPEC["end_to_end"], SPEC["per_layer"]
    assert 1 <= len(e2e) <= 16 and 1 <= len(layers) <= 128
    names = [m["name"] for m in e2e + layers]
    assert len(names) == len(set(names))
    for m in e2e:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in layers:
        assert set(m) == {"name", "unit", "better"}
    for m in e2e + layers:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"])
        assert m["better"] in ("lower", "higher")
    setup = next(m for m in e2e if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in e2e)


#: seconds a run spends outside its measured passes (start-up, set-ups,
#: output checks, teardown) on a busy 2-core host, with headroom
RUN_OVERHEAD_S = {"paper-pipeline": 10, "synth-month": 22, "serve-open": 16}


def test_runs_fit_the_budget():
    """22 runs per workload plus 4 more (counted at the slowest), each
    --seconds of passes plus its overhead, must fit the budget."""
    seconds = SPEC["run_seconds"]
    assert isinstance(seconds, int) and 1 <= seconds <= 60
    names = [w["name"] for w in SPEC["workloads"]]
    total = sum(22 * (seconds + RUN_OVERHEAD_S[n]) for n in names)
    total += 4 * (seconds + max(RUN_OVERHEAD_S.values()))
    assert total < 0.9 * BUDGET_S

#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper-pipeline --seed 1 --seconds 15 --trace 0

The workload's inputs are generated from ``--seed``.  Set-up runs
several times and reports its median; passes then repeat for
``--seconds``.  With ``--trace 0`` telemetry is off and the result
carries the end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1``
a separate traced run carries the per-layer metrics, and the table
above the result breaks the run down by span.  Every run checks its
outputs; each failed check or operation counts in ``failed``.

The last line of standard output is the result as one JSON object.
Everything the run writes stays under ``.bench_build/`` in the
repository root, including a stamped record of the run in
``.bench_build/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def prepare_environment(trace: bool) -> None:
    """Telemetry switch, import path, and every cache or scratch file
    the program writes pointed inside ``.bench_build``.  Child
    processes (the server, shard workers) inherit all of it."""
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["REPRO_TELEMETRY"] = "1" if trace else "0"
    os.environ["REPRO_KERNEL_CACHE"] = str(BUILD / "kernels")
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)
    src = str(ROOT / "src")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    )
    # the script's own directory must not shadow the package
    sys.path[:] = [src, str(ROOT)] + [
        p for p in sys.path[1:] if p not in (src, str(ROOT))
    ]


def result_metrics(spec: dict, values: dict, trace: bool) -> dict:
    """The metrics block: every metric of the run's kind, with its unit.
    A per-layer metric the workload does not exercise reads 0."""
    kind = "per_layer" if trace else "end_to_end"
    out = {}
    for metric in spec[kind]:
        name = metric["name"]
        if trace:
            value = values.get(name, 0.0)
        else:
            value = values[name]
        out[name] = {"value": float(value), "unit": metric["unit"]}
    return out


def render(metrics: dict, info: dict) -> str:
    lines = [f"  {name:<32} {m['value']:>16.6g} {m['unit']}" for name, m in metrics.items()]
    if info:
        lines.append("  -- also measured --")
        lines += [
            f"  {k:<32} {v:>16.6g}" if isinstance(v, (int, float)) else f"  {k:<32} {v:>16}"
            for k, v in info.items()
        ]
    return "\n".join(lines)


def main(argv=None) -> int:
    args = parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: {ROOT} holds no repro sources or BENCHMARK.json", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        print(f"error: unknown workload {args.workload!r}; choose from {names}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    prepare_environment(trace)
    # a terminated run still unwinds, so set-ups stop the servers they started
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    from perfbench import spans
    from perfbench.envinfo import stamp
    from perfbench.stats import median
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    env = stamp(ROOT, args.workload, args.seed, trace)
    print("env " + json.dumps(env, sort_keys=True))
    workroot = BUILD / "work" / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    setup_walls = []
    state = None
    try:
        for i in range(1 if trace else workload.SETUPS):
            if state is not None:
                workload.teardown(state)
                state = None
            tic = time.perf_counter()
            state = workload.setup(args.seed, workroot / f"setup{i}", trace)
            setup_walls.append(time.perf_counter() - tic)
        measurement, checks = workload.measure(state, args.seconds, trace)
    finally:
        if state is not None:
            workload.teardown(state)
        shutil.rmtree(workroot, ignore_errors=True)

    values = {"setup_s": median(setup_walls), **measurement.end_to_end}
    attempted = max(1, checks.attempted)
    if trace:
        values = dict(measurement.per_layer)
        values["error_rate"] = checks.failed / attempted
    metrics = result_metrics(spec, values, trace)
    info = dict(measurement.info)
    info.update({k: v for k, v in values.items() if k not in metrics})
    if not trace:
        info["error_rate"] = checks.failed / attempted
    info["setups"] = len(setup_walls)

    print(f"{args.workload}  seed={args.seed}  trace={args.trace}  "
          f"checks {checks.attempted - checks.failed}/{checks.attempted} passed")
    for what in checks.failures:
        print(f"  FAILED: {what}")
    print(render(metrics, info))
    if trace and measurement.spans:
        print("  -- traced spans (self time: span minus its children) --")
        print(spans.render_table(spans.layer_table(measurement.spans),
                                 measurement.traced_wall_s))

    result = {
        "correct": checks.failed == 0,
        "attempted": attempted,
        "failed": checks.failed,
        "metrics": metrics,
    }
    record = dict(result, env=env, info=info, failures=checks.failures)
    results_dir = BUILD / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True, default=str)
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""synth-month: synthesis, the tile cache and sharding over four weeks.

Set-up simulates a month to per-rank logs.  A pass then (a) synthesizes
the full horizon with the default plan, (b) sweeps one-week windows
stepped by a day through a cold tile cache, and (c) synthesizes the
full horizon again across two place shards; analysis is the Fig. 3
degree fits only.  Synthesis, cache and shard code do the work here,
and set-up is where a simulator or log-writer change shows.
"""

from __future__ import annotations

import shutil
import time
from pathlib import Path

import numpy as np

import repro
from repro.analysis import compare_fits, degree_distribution
from repro.distrib.shardsynth import shard_synthesize

from .. import spans
from ..stats import median
from .common import (
    Checks,
    Measurement,
    batch_passes,
    csr_digest,
    generate,
    pass_info,
    same_csr,
    sim_layers,
    simulate,
    synthesis_layers,
    traced_batch,
)

NAME = "synth-month"
PERSONS = 8_000
RANKS = 4
WEEKS = 4
SHARDS = 2
#: sweep windows compared against direct synthesis per run
N_CHECK_WINDOWS = 2
#: set-ups per untraced run; ``setup_s`` is their median
SETUPS = 3


def sweep_windows() -> list[tuple[int, int]]:
    week = repro.HOURS_PER_WEEK
    horizon = WEEKS * week
    return [(t0, t0 + week) for t0 in range(0, horizon - week + 1, 24)]


def setup(seed: int, workdir: Path, traced: bool) -> dict:
    t = time.perf_counter()
    pop = generate(PERSONS)
    layers = {"synthpop.generate_s": time.perf_counter() - t}
    log_dir = workdir / "logs"
    t = time.perf_counter()
    result = simulate(pop, RANKS, WEEKS, log_dir)
    layers["sim.run_s"] = time.perf_counter() - t
    layers.update(sim_layers(result, log_dir))
    return {"seed": seed, "workdir": workdir, "logs": log_dir,
            "n_persons": pop.n_persons, "setup_layers": layers}


def teardown(state: dict) -> None:
    shutil.rmtree(state["workdir"], ignore_errors=True)


def run_pass(state: dict, track_bytes: bool) -> dict:
    logs, n = state["logs"], state["n_persons"]
    horizon = WEEKS * repro.HOURS_PER_WEEK
    clock = time.perf_counter
    out: dict = {}
    plan = repro.SynthesisPlan()

    pool = plan.make_pool()
    pool.track_bytes = track_bytes
    t = clock()
    with spans.layer("synth"):
        full, report = plan.synthesize(logs, n, 0, horizon, pool=pool)
    out["synth_s"] = clock() - t
    pool.close()
    out.update(synthesis_layers(report, full, pool.bytes_shipped))

    t = clock()
    peak = 0
    with spans.layer("sweep"):
        cache = plan.build_cache(logs, n)
        windows = []
        for t0, t1 in sweep_windows():
            windows.append(cache.query_window(t0, t1))
            peak = max(peak, cache.cached_nnz)
    out["sweep_s"] = clock() - t
    s = cache.stats
    served = s.tile_hits + s.fringe_hits
    out.update({
        "tilecache.build_s": s.timings.stages.get("build", 0.0),
        "tilecache.compose_s": (
            s.timings.stages.get("merge", 0.0) + s.timings.stages.get("reduce", 0.0)
        ),
        "tilecache.tiles_built": s.tiles_built,
        "tilecache.hit_ratio": served / max(1, served + s.tiles_built + s.tiles_merged),
        "tilecache.peak_nnz": peak,
    })

    t = clock()
    with spans.layer("shard"):
        sharded, srep = shard_synthesize(logs, n, 0, horizon, n_shards=SHARDS, plan=plan)
    out["shard.wall_s"] = clock() - t
    out["shard.reduce_s"] = srep.reduce_seconds
    out["shard.imbalance"] = srep.imbalance

    t = clock()
    with spans.layer("analysis"), spans.layer("fits"):
        compare_fits(degree_distribution(full.degrees()))
    out["analysis.fits_s"] = clock() - t

    out["digests"] = (csr_digest(full), csr_digest(sharded))
    out["nets"] = (full, sharded, cache, windows)
    return out


def check_outputs(state: dict, first: dict, checks: Checks) -> None:
    """Full horizon: from-logs, tile-cache and 2-shard CSRs identical;
    sampled sweep windows: identical to direct synthesis (and one to a
    sharded synthesis)."""
    logs, n = state["logs"], state["n_persons"]
    horizon = WEEKS * repro.HOURS_PER_WEEK
    full, sharded, cache, windows = first["nets"]
    checks.expect(same_csr(full, sharded), "full horizon: 2-shard vs from-logs")
    checks.expect(
        same_csr(full, cache.query_window(0, horizon)),
        "full horizon: tile cache vs from-logs",
    )
    rng = np.random.default_rng(state["seed"])
    pool = sweep_windows()
    picks = rng.choice(len(pool), size=N_CHECK_WINDOWS, replace=False)
    for k, i in enumerate(sorted(int(p) for p in picks)):
        t0, t1 = pool[i]
        direct, _ = repro.synthesize_from_logs(logs, n, t0, t1)
        checks.expect(same_csr(windows[i], direct), f"window [{t0},{t1}): tile cache")
        if k == 0:
            sharded_w, _ = shard_synthesize(logs, n, t0, t1, n_shards=SHARDS)
            checks.expect(same_csr(sharded_w, direct), f"window [{t0},{t1}): 2-shard")


def measure(state: dict, seconds: float, traced: bool) -> tuple[Measurement, Checks]:
    def one_pass(i: int) -> dict:
        out = run_pass(state, traced and i % 2 == 1)
        if i:
            out.pop("nets")  # only the first pass's outputs are checked in full
        return out

    walls_off, walls_on, results, traced_spans, rss = batch_passes(
        one_pass, seconds, traced
    )
    checks = Checks()
    first = results[0]
    for i, r in enumerate(results[1:], 1):
        checks.expect(r["digests"] == first["digests"], f"pass {i} CSR digests")
    check_outputs(state, first, checks)
    first.pop("nets")

    m = Measurement()
    m.end_to_end = {"pass_s": median(walls_off), "peak_rss_mb": rss}
    m.info = pass_info(walls_off)
    m.info.update({
        "synth_s": median([r["synth_s"] for r in results]),
        "sweep_s": median([r["sweep_s"] for r in results]),
        "shard.wall_s": median([r["shard.wall_s"] for r in results]),
    })
    if traced:
        traced_batch(m, results, walls_off, walls_on, traced_spans, state["setup_layers"])
    return m, checks

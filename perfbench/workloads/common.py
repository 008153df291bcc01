"""Pieces the workloads share: world building, output checks, the
batch measuring loop and the per-layer numbers every synthesis run
reports."""

from __future__ import annotations

import hashlib
import resource
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import repro
from repro.distrib import DistributedSimulation, spatial_partition
from repro.obs import configure

from .. import spans
from ..stats import iqr_share, median


@dataclass
class Measurement:
    """What one workload run measured."""

    end_to_end: dict = field(default_factory=dict)
    per_layer: dict = field(default_factory=dict)
    #: extra numbers printed in the run's table but not in its result
    info: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)
    #: wall seconds the span table's shares are taken against
    traced_wall_s: float = 0.0


@dataclass
class Checks:
    """Output checks: every check and every failed operation counts
    against ``attempted``."""

    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)

    def operations(self, attempted: int, failed: int, what: str) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.failures.append(f"{failed} of {attempted} {what} failed")


#: every workload's synthetic city.  The city is a fixture, not a
#: seeded input: heavy-tailed workplace and venue sizes make the work
#: itself differ between cities (sum of squared degrees, the clustering
#: cost, has a 20% relative spread across city seeds at 10k persons),
#: which would swamp any regression bound.  ``--seed`` drives what a
#: user varies against one city: sampled persons and windows, and the
#: service's request stream.
WORLD_SEED = 2017


def generate(n_persons: int):
    """The benchmark city at ``n_persons``."""
    with spans.layer("synthpop"):
        return repro.generate_population(
            repro.ScaleConfig(n_persons=n_persons, seed=WORLD_SEED)
        )


def simulate(pop, n_ranks: int, weeks: int, log_dir: Path):
    """Run the distributed model for ``weeks`` and write per-rank EVL
    logs into ``log_dir``."""
    with spans.layer("sim"):
        cfg = repro.SimulationConfig(
            scale=pop.scale,
            duration_hours=weeks * repro.HOURS_PER_WEEK,
            n_ranks=n_ranks,
        )
        part = spatial_partition(
            pop.places.coords(), pop.places.capacity.astype(float), n_ranks
        )
        return DistributedSimulation(pop, cfg, part).run(log_dir=log_dir)


def sim_layers(result, log_dir: Path) -> dict:
    """Counts from a :class:`DistributedRunResult` and its logs."""
    return {
        "sim.events": result.total_events,
        "distrib.migrations": result.total_migrations,
        "distrib.comm_bytes": result.traffic.bytes_sent,
        "evlog.bytes_written": sum(p.stat().st_size for p in log_dir.iterdir()),
    }


def synthesis_layers(report, network, bytes_shipped: int) -> dict:
    """Stage and kernel numbers a :class:`SynthesisReport` carries."""
    stages = report.timings.stages
    out = {
        "core.stage.load_s": stages.get("load", 0.0),
        "core.stage.slice_s": stages.get("slice", 0.0),
        "core.records": report.n_records,
        "core.bytes_shipped": bytes_shipped,
        "kernel.colloc_nnz": report.colloc_nnz_total,
        "kernel.out_nnz": network.adjacency.nnz,
    }
    for name in ("group_by_place", "collocation_matrices", "balance",
                 "adjacency", "reduce"):
        out[f"core.stage.{name}_s"] = stages.get(name, 0.0)
    for name in ("pack_build", "spgemm", "accumulate"):
        out[f"kernel.{name}_s"] = report.kernel_timings.get(name, 0.0)
    return out


def csr_digest(net) -> str:
    """Content hash of a network's canonical CSR."""
    a = net.adjacency
    h = hashlib.sha256()
    for arr in (a.indptr, a.indices, a.data):
        h.update(np.ascontiguousarray(arr).tobytes())
    h.update(repr(a.shape).encode())
    return h.hexdigest()


def same_csr(a, b) -> bool:
    x, y = a.adjacency, b.adjacency
    return (
        x.shape == y.shape
        and np.array_equal(x.indptr, y.indptr)
        and np.array_equal(x.indices, y.indices)
        and np.array_equal(x.data, y.data)
    )


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


#: passes every batch run makes at least; peak memory is read after
#: this many, so it covers the same work in every run
MIN_PASSES = 3


def batch_passes(run_pass, seconds: float, traced: bool, min_passes: int = MIN_PASSES):
    """Repeat ``run_pass(index)`` until ``seconds`` have elapsed and at
    least ``min_passes`` passes ran.

    Untraced, every pass runs with telemetry off.  Traced, passes
    alternate off / on, so the run holds its own untraced reference
    for the tracing overhead.  Returns ``(walls_off, walls_on,
    results, spans_on, rss_mb)``: results of every pass in order, the
    spans of the traced passes, and peak memory after ``min_passes``
    passes.
    """
    walls = {False: [], True: []}
    rss_mb = 0.0
    results = []
    traced_spans: list = []
    deadline = time.perf_counter() + seconds
    i = 0
    while (
        len(walls[False]) < min_passes
        or (traced and len(walls[True]) < min_passes)
        or time.perf_counter() < deadline
    ):
        on = traced and i % 2 == 1
        configure(on)
        spans.drain()
        tic = time.perf_counter()
        with spans.layer("pass"):
            results.append(run_pass(i))
        walls[on].append(time.perf_counter() - tic)
        if on:
            traced_spans.extend(spans.drain())
        i += 1
        if i == min_passes:
            rss_mb = peak_rss_mb()
    configure(traced)
    return walls[False], walls[True], results, traced_spans, rss_mb


def overhead_pct(walls_off: list, walls_on: list) -> float:
    """Traced against untraced median pass time, in percent."""
    return 100.0 * (median(walls_on) / median(walls_off) - 1.0)


def pass_info(walls: list) -> dict:
    """How many passes ran, their walls, and their spread in the run."""
    return {
        "passes": len(walls),
        "pass_walls_s": " ".join(f"{w:.3f}" for w in walls),
        "pass_iqr_share": iqr_share(walls) if len(walls) > 1 else 0.0,
    }


def traced_batch(m: Measurement, results: list, walls_off: list,
                 walls_on: list, traced_spans: list, layers: dict) -> None:
    """Fill a batch run's per-layer metrics: ``layers`` plus the median
    over the traced (odd) passes of every number a pass returned, the
    tracing overhead and the unattributed share of ``bench.pass``."""
    on = results[1::2]
    layers = dict(layers)
    layers.update({
        k: median([r[k] for r in on])
        for k, v in on[0].items()
        if isinstance(v, (int, float)) and not isinstance(v, bool)
    })
    layers["obs.overhead_pct"] = overhead_pct(walls_off, walls_on)
    layers["trace.unattributed_pct"] = 100.0 * spans.unattributed_share(
        traced_spans, "bench.pass"
    )
    m.per_layer = layers
    m.spans = traced_spans
    m.traced_wall_s = sum(walls_on)

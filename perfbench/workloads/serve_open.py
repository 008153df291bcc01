"""serve-open: the network-query service under open-loop load.

``repro serve`` runs in its own process with its tile cache warmed
during set-up.  One generator process drives it over at most ``nproc``
connections with a fixed mix (60% day-aligned week windows, 10%
unaligned windows that build fringe tiles, 20% ``degrees``, 10%
``ego``).  No batch stage runs; admission, coalescing, composition,
encoding, the wire and client decode do the work.

A run times closed passes of a fixed request list sent one at a time
(``pass_s``: the CPU seconds the server and the generator spend on one
pass) and two open-loop phases at fixed rates, about a quarter and
three quarters of the capacity measured on a 2-core host.  Traced, the
run also climbs two rungs above the high rate for ``max_rate_qps`` and
compares against an untraced server for the tracing overhead.

``pass_s`` is CPU time, not wall time, because the two processes share
the host's cores: on a shared 2-vCPU VM the time the hypervisor steals
from them doubled closed-pass walls within minutes, while their CPU
time, which the guest kernel accounts without steal, varied by a few
percent within a run.  The walls are printed beside it.
"""

from __future__ import annotations

import asyncio
import os
import re
import selectors
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import repro
from repro.obs import read_spans_jsonl
from repro.service import ServiceClient

from .. import loadgen, spans
from ..stats import median, percentile, supported_tail
from .common import (
    Checks,
    Measurement,
    generate,
    overhead_pct,
    pass_info,
    same_csr,
    sim_layers,
    simulate,
)

NAME = "serve-open"
PERSONS = 10_000
#: one rank, as in paper-pipeline: the service reads the logs, not the
#: ranks, and a threaded multi-rank set-up only adds host noise
RANKS = 1
WEEKS = 2
#: requests in one closed pass
CLOSED_REQUESTS = 60
#: a closed pass sends its requests one at a time, so the server and the
#: generator take turns and never compete for a core
CLOSED_CONNS = 1
#: timed closed passes each server makes at least
MIN_PASSES = 3
#: the closed pass replays one fixed request list, so ``pass_s``
#: compares like with like across runs; open-loop traffic is seeded
CLOSED_SEED = 0
#: frozen open-loop rates, requests per second: about a quarter and
#: three quarters of the capacity (40 q/s, closed passes over 2
#: connections) an untraced server reached on a busy 2-core host
LOW_QPS = 10.0
HIGH_QPS = 30.0
#: extra rungs above HIGH_QPS climbed by the traced run
LADDER = (1.25, 1.5)
#: share of --seconds per phase: closed passes, low, high (+ ladder rungs)
SPLIT_UNTRACED = {"closed": 0.5, "low": 0.25, "high": 0.25}
SPLIT_TRACED = {"closed": 0.3, "low": 0.2, "high": 0.2, "rung": 0.15}
#: window responses per phase kept for the bit-identity check
KEEP_PER_PHASE = 2
SERVER_START_TIMEOUT_S = 120.0
#: set-ups per untraced run; ``setup_s`` is their median
SETUPS = 3


def n_conns() -> int:
    return os.cpu_count() or 1


@dataclass
class Server:
    proc: subprocess.Popen
    port: int
    trace_log: Path | None


def start_server(world: Path, logs: Path, workdir: Path, telemetry: bool,
                 trace_log: Path | None) -> Server:
    src = Path(repro.__file__).resolve().parent.parent
    env = dict(os.environ)
    env["REPRO_TELEMETRY"] = "1" if telemetry else "0"
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH")) if p
    )
    cmd = [sys.executable, "-u", "-m", "repro", "serve",
           "--log-dir", str(logs), "--population", str(world), "--port", "0"]
    if trace_log is not None:
        cmd += ["--trace-log", str(trace_log)]
    stderr = open(workdir / f"server-{'t' if telemetry else 'u'}.err", "w")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=stderr,
                            text=True, env=env, cwd=workdir)
    stderr.close()
    sel = selectors.DefaultSelector()
    sel.register(proc.stdout, selectors.EVENT_READ)
    try:
        if not sel.select(SERVER_START_TIMEOUT_S):
            raise RuntimeError("server did not start in time")
        line = proc.stdout.readline()
        found = re.search(r":(\d+) \(", line)
        if found is None:
            raise RuntimeError(f"server failed to start: {line!r}")
    except BaseException:
        stop_process(proc)
        raise
    finally:
        sel.close()
    return Server(proc, int(found.group(1)), trace_log)


def stop_process(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()
    if proc.stdout is not None:
        proc.stdout.close()


def process_cpu_s(pid: int) -> float:
    """User plus system CPU seconds of process ``pid``, all threads."""
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def server_peak_rss_mb(proc: subprocess.Popen) -> float:
    """Peak resident set of a live server (``VmHWM``)."""
    with open(f"/proc/{proc.pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc status")


async def _shutdown(port: int) -> None:
    async with ServiceClient(port=port) as client:
        await client.shutdown()


def stop_server(server: Server) -> None:
    try:
        if server.proc.poll() is None:
            asyncio.run(_shutdown(server.port))
            server.proc.wait(timeout=30)
    except (OSError, subprocess.TimeoutExpired, repro.ReproError):
        pass
    finally:
        stop_process(server.proc)


async def _warm(port: int, horizon: int) -> None:
    async with ServiceClient(port=port) as client:
        for t0 in range(0, horizon - repro.HOURS_PER_WEEK + 1, 24):
            await client.query_window(t0, t0 + repro.HOURS_PER_WEEK)


def setup(seed: int, workdir: Path, traced: bool) -> dict:
    workdir.mkdir(parents=True, exist_ok=True)
    t = time.perf_counter()
    pop = generate(PERSONS)
    layers = {"synthpop.generate_s": time.perf_counter() - t}
    world = repro.save_population(pop, workdir / "world.npz")
    logs = workdir / "logs"
    t = time.perf_counter()
    result = simulate(pop, RANKS, WEEKS, logs)
    layers["sim.run_s"] = time.perf_counter() - t
    layers.update(sim_layers(result, logs))
    state = {"seed": seed, "workdir": workdir, "logs": logs,
             "n_persons": pop.n_persons, "setup_layers": layers, "servers": []}
    horizon = WEEKS * repro.HOURS_PER_WEEK
    try:
        # traced runs keep an untraced twin for the overhead comparison
        for telemetry in ((False, True) if traced else (False,)):
            log = workdir / "server-spans.jsonl" if telemetry else None
            server = start_server(world, logs, workdir, telemetry, log)
            state["servers"].append(server)
            asyncio.run(_warm(server.port, horizon))
    except BaseException:
        teardown(state)
        raise
    return state


def teardown(state: dict) -> None:
    for server in state["servers"]:
        stop_server(server)
    state["servers"] = []
    shutil.rmtree(state["workdir"], ignore_errors=True)


async def _closed_passes(servers: list[Server], requests, seconds: float):
    """An untimed warm-up pass on each server (it builds the fringe
    tiles of the list's unaligned windows), then timed closed passes,
    alternating between ``servers``, until ``seconds`` have elapsed
    since the start and each server made :data:`MIN_PASSES`.  Returns
    each timed pass's CPU seconds (server plus generator) and wall
    seconds per server port, and every outcome."""
    cpus: dict[int, list[float]] = {s.port: [] for s in servers}
    walls: dict[int, list[float]] = {s.port: [] for s in servers}
    outcomes = []
    deadline = time.perf_counter() + seconds
    for server in servers:
        outs, _wall = await loadgen.run_phase(server.port, requests, CLOSED_CONNS)
        outcomes.extend(outs)
    i = 0
    while min(len(c) for c in cpus.values()) < MIN_PASSES or time.perf_counter() < deadline:
        server = servers[i % len(servers)]
        cpu = process_cpu_s(server.proc.pid) + time.process_time()
        outs, wall = await loadgen.run_phase(server.port, requests, CLOSED_CONNS)
        cpus[server.port].append(
            process_cpu_s(server.proc.pid) + time.process_time() - cpu
        )
        walls[server.port].append(wall)
        outcomes.extend(outs)
        i += 1
    return cpus, walls, outcomes


async def _open_phase(port: int, rng, rate: float, seconds: float, horizon: int,
                      n_persons: int):
    n = max(1, int(rate * seconds))
    expected_windows = 0.7 * n
    keep = max(1, int(expected_windows / KEEP_PER_PHASE))
    reqs = loadgen.at_rate(
        loadgen.make_requests(rng, n, horizon, n_persons, keep_every=keep), rate
    )
    outs, _wall = await loadgen.run_phase(port, reqs, n_conns())
    return outs, loadgen.summarize(outs, seconds)


async def _stats(port: int) -> dict:
    async with ServiceClient(port=port) as client:
        return await client.stats()


def check_windows(state: dict, outcomes, checks: Checks) -> None:
    """Kept window responses must be bit-identical to direct synthesis."""
    for o in outcomes:
        if o.network is None:
            continue
        r = o.request
        direct, _ = repro.synthesize_from_logs(state["logs"], state["n_persons"], r.t0, r.t1)
        checks.expect(same_csr(o.network, direct), f"served window [{r.t0},{r.t1})")
        o.network = None


def _phase_metrics(tag: str, summary: loadgen.PhaseSummary) -> dict:
    return {
        f"lat_p50_ms_{tag}": summary.p50_ms,
        f"lat_p95_ms_{tag}": summary.p95_ms,
    }


def measure(state: dict, seconds: float, traced: bool) -> tuple[Measurement, Checks]:
    rng = np.random.default_rng(state["seed"])
    horizon = WEEKS * repro.HOURS_PER_WEEK
    n = state["n_persons"]
    closed = loadgen.make_requests(
        np.random.default_rng(CLOSED_SEED), CLOSED_REQUESTS, horizon, n
    )
    servers = state["servers"]
    base, main = servers[0], servers[-1]
    split = SPLIT_TRACED if traced else SPLIT_UNTRACED

    async def run():
        spans.drain()
        cpus, walls, closed_outs = await _closed_passes(
            servers, closed, split["closed"] * seconds
        )
        # read after the fixed closed passes, so every run covers the
        # same work; the seeded open-loop phases vary it
        rss = server_peak_rss_mb(main.proc)
        phases = {}
        before = await _stats(main.port)
        for tag, rate in (("low", LOW_QPS), ("high", HIGH_QPS)):
            phases[tag] = await _open_phase(
                main.port, rng, rate, split[tag] * seconds, horizon, n
            )
        stats = await _stats(main.port)
        if traced:
            for k, mult in enumerate(LADDER):
                phases[f"rung{k}"] = await _open_phase(
                    main.port, rng, HIGH_QPS * mult, split["rung"] * seconds, horizon, n
                )
        return cpus, walls, rss, closed_outs, phases, before, stats

    cpus, walls, rss, closed_outs, phases, before, stats = asyncio.run(run())
    rss_end = server_peak_rss_mb(main.proc)
    client_spans = spans.drain()

    checks = Checks()
    checks.operations(len(closed_outs), sum(not o.ok for o in closed_outs), "closed-pass requests")
    open_outs = []
    # the rungs above the high rate probe past capacity on purpose: what
    # they refuse only decides max_rate_qps
    for tag in ("low", "high"):
        outs, summary = phases[tag]
        checks.operations(summary.sent, summary.failed, f"{tag}-rate requests")
        if not summary.valid:
            checks.expect(False, f"{tag}-rate run invalid: generator lag p95 "
                          f"{summary.lag_p95_ms:.1f} ms vs p50 {summary.p50_ms:.1f} ms")
        open_outs.extend(outs)
    check_windows(state, open_outs, checks)

    m = Measurement()
    m.end_to_end = {"pass_s": median(cpus[base.port]), "peak_rss_mb": rss}
    lat = {}
    for tag in ("low", "high"):
        lat.update(_phase_metrics(tag, phases[tag][1]))
    m.info = dict(lat)
    m.info.update(pass_info(walls[base.port]))
    m.info["pass_wall_s"] = median(walls[base.port])
    m.info["pass_cpus_s"] = " ".join(f"{c:.3f}" for c in cpus[base.port])
    m.info["peak_rss_mb_end"] = rss_end
    for tag, (outs, s) in phases.items():
        m.info[f"{tag}.n"] = s.sent
        m.info[f"{tag}.lag_p95_ms"] = s.lag_p95_ms
        m.info[f"{tag}.queued_p50_ms"] = median([o.queued_ms for o in outs])
        m.info[f"{tag}.queue_growth_ms"] = s.queue_growth_ms
        m.info[f"{tag}.tail_supported"] = str(supported_tail(s.sent))
    if traced:
        m.per_layer = dict(state["setup_layers"])
        m.per_layer.update(lat)
        m.spans, layers = service_layers(state, phases, before, stats, client_spans)
        m.per_layer.update(layers)
        m.per_layer["obs.overhead_pct"] = overhead_pct(cpus[base.port], cpus[main.port])
        m.traced_wall_s = sum(split[t] for t in ("low", "high")) * seconds
    return m, checks


def max_rate(phases: dict) -> float:
    """The highest rung meeting the latency limit with every lower rung
    meeting it too (0 when even the low rate misses)."""
    rungs = [("low", LOW_QPS), ("high", HIGH_QPS)]
    rungs += [(f"rung{k}", HIGH_QPS * m) for k, m in enumerate(LADDER)]
    best = 0.0
    for tag, rate in rungs:
        if tag not in phases or not phases[tag][1].meets_limit:
            break
        best = rate
    return best


def service_layers(state: dict, phases: dict, before: dict, after: dict,
                   client_spans: list) -> dict:
    """Server span times and counters for the low- and high-rate phases
    (``stats`` op responses from before and after them), matched to the
    generator's own request spans by trace id.  Returns the layer
    metrics and the matched spans."""
    outs = phases["low"][0] + phases["high"][0]
    ids = {o.trace_id for o in outs if o.trace_id}
    server_spans = read_spans_jsonl(state["servers"][-1].trace_log)
    phase_spans = [s for s in server_spans + client_spans if s["trace_id"] in ids]

    by_name: dict[str, list[dict]] = {}
    for s in phase_spans:
        by_name.setdefault(s["name"], []).append(s)

    def med_ms(name: str) -> float:
        vals = [1000.0 * s["duration"] for s in by_name.get(name, [])]
        return median(vals) if vals else 0.0

    selfs = spans.self_times(phase_spans)
    # a coalesce span's own time is spent waiting: for the executor to
    # start the composition, or for a peer's composition to finish
    waits = [1000.0 * selfs[s["span_id"]] for s in by_name.get("coalesce", [])]
    server_req = {s["trace_id"]: s["duration"] for s in by_name.get("request", [])}
    gaps = [
        1000.0 * (s["duration"] - server_req[s["trace_id"]])
        for s in by_name.get("client.request", [])
        if s["trace_id"] in server_req
    ]
    client_total = sum(s["duration"] for s in by_name.get("client.request", []))
    decode = [d for _o, s in (phases["low"], phases["high"]) for d in s.decode_ms]

    def delta(section: str, key: str) -> float:
        a = after.get(section, {})
        b = before.get(section, {})
        if section == "caches":
            a, b = a.get("full", {}), b.get("full", {})
        return a.get(key, 0) - b.get(key, 0)

    served = delta("caches", "tile_hits") + delta("caches", "fringe_hits")
    built = delta("caches", "tiles_built") + delta("caches", "tiles_merged")
    lags = [o.lag_ms for o in outs]
    return phase_spans, {
        "service.request_ms": med_ms("request"),
        "service.admission_ms": med_ms("admission"),
        "service.coalesce_ms": med_ms("coalesce"),
        "service.compose_ms": med_ms("compose"),
        "service.wait_ms": median(waits) if waits else 0.0,
        "service.unattributed_ms": median(gaps) if gaps else 0.0,
        "client.decode_ms": median(decode) if decode else 0.0,
        "service.compositions": delta("stats", "compositions"),
        "service.coalesced": delta("stats", "coalesced"),
        "service.shed": delta("stats", "shed"),
        "service.expired": delta("stats", "expired"),
        "service.errors": delta("stats", "errors"),
        "tilecache.build_s": sum(selfs[s["span_id"]] for s in by_name.get("kernel", [])),
        "tilecache.compose_s": sum(s["duration"] for s in by_name.get("compose", [])),
        "tilecache.tiles_built": delta("caches", "tiles_built"),
        "tilecache.hit_ratio": served / max(1, served + built),
        "tilecache.peak_nnz": after.get("caches", {}).get("full", {}).get("cached_nnz", 0),
        "loadgen.lag_p95_ms": percentile(lags, 95.0) if lags else 0.0,
        "loadgen.sent": len(outs),
        "loadgen.failed": sum(not o.ok for o in outs),
        "max_rate_qps": max_rate(phases),
        "trace.unattributed_pct": (
            100.0 * sum(gaps) / 1000.0 / client_total if client_total else 0.0
        ),
    }

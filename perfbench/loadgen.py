"""Open-loop load generator for the network-query service.

One process, one asyncio loop, at most ``n_conns`` connections.  A
dispatcher releases each request at its due time regardless of how
earlier ones fared (open loop); workers, one per connection, send the
released requests in order.  Latency is timed from the *due* time, so
a stall also charges the wait it imposes on every later request.  How
late the dispatcher itself woke is reported as generator lag: when it
is large next to the latencies, the run measured the generator, not
the service, and is flagged invalid.

A closed pass is the same machinery with every request due at once:
the connections then stay busy back to back, and the pass's wall time
is the service's capacity for the mix.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ReproError
from repro.service import ServiceClient
from repro.service.protocol import decode_csr, decode_network

from .stats import percentile

#: a request slower than this, or failed, misses the latency limit
LATENCY_LIMIT_MS = 250.0
#: per-request budget sent to the server; nothing waits longer
REQUEST_DEADLINE_S = 5.0
#: generator lag (p95) above this share of the median latency swamps it
MAX_LAG_SHARE = 1.0

#: request mix: op -> share of requests
MIX = (("window", 0.6), ("unaligned", 0.1), ("degrees", 0.2), ("ego", 0.1))


@dataclass(frozen=True)
class Request:
    due: float  # seconds after the phase starts
    op: str
    t0: int
    t1: int
    person: int = 0
    keep: bool = False  # keep the decoded window for an output check


@dataclass
class Outcome:
    request: Request
    released: float = 0.0  # dispatcher wake, seconds after phase start
    sent: float = 0.0  # a connection took it, seconds after phase start
    done: float = 0.0  # completion, seconds after phase start
    ok: bool = False
    code: str = ""
    decode_s: float = 0.0
    trace_id: str | None = None
    network: object = None

    @property
    def latency_ms(self) -> float:
        return 1000.0 * (self.done - self.request.due)

    @property
    def lag_ms(self) -> float:
        return 1000.0 * (self.released - self.request.due)

    @property
    def queued_ms(self) -> float:
        """Wait from due time until a connection was free to send."""
        return 1000.0 * (self.sent - self.request.due)


def mix_ops(n: int) -> list[str]:
    """``n`` op names split by :data:`MIX` shares, largest remainder
    first, so every run of a given length sends the same mix."""
    exact = [(share * n, op) for op, share in MIX]
    counts = {op: int(x) for x, op in exact}
    by_remainder = sorted(exact, key=lambda e: e[0] - int(e[0]), reverse=True)
    for _x, op in by_remainder[: n - sum(counts.values())]:
        counts[op] += 1
    return [op for op, _ in MIX for _ in range(counts[op])]


def make_requests(
    rng: np.random.Generator,
    n: int,
    horizon: int,
    n_persons: int,
    keep_every: int = 0,
) -> list[Request]:
    """``n`` requests in :data:`MIX` proportions (exact up to rounding,
    in seeded order) over one-week windows of a ``horizon``-hour log,
    all due at 0.  Aligned windows start on a day boundary (warm tile
    reads); unaligned ones start and end off it (fringe builds);
    ``keep_every`` marks every k-th window request for an output
    check."""
    week = 168
    days = (horizon - week) // 24 + 1
    out: list[Request] = []
    windows = 0
    for op in rng.permutation(mix_ops(n)):
        t0 = int(rng.integers(days)) * 24
        t1 = t0 + week
        person = 0
        if op == "unaligned":
            # off the day grid at both ends, one day of fringe in all
            t0 = min(t0, horizon - week - 24) + int(rng.integers(1, 24))
            t1 = t0 + week
        if op == "ego":
            person = int(rng.integers(n_persons))
        keep = False
        if op in ("window", "unaligned"):
            windows += 1
            keep = keep_every > 0 and windows % keep_every == 0
        out.append(Request(0.0, str(op), t0, t1, person, keep))
    return out


def at_rate(requests: list[Request], rate: float) -> list[Request]:
    """The same requests due at a fixed rate (``rate`` per second)."""
    return [
        Request(i / rate, r.op, r.t0, r.t1, r.person, r.keep)
        for i, r in enumerate(requests)
    ]


async def _send(client: ServiceClient, req: Request, out: Outcome) -> None:
    op = "window" if req.op == "unaligned" else req.op
    params = {"t0": req.t0, "t1": req.t1}
    if op == "ego":
        params["person"] = req.person
    _resp, blob = await client.request(op, **params)
    out.trace_id = client.last_trace_id
    tic = time.perf_counter()
    if op == "window":
        net = decode_network(blob)
        if req.keep:
            out.network = net
    elif op == "ego":
        decode_csr(blob)
    out.decode_s = time.perf_counter() - tic


async def run_phase(
    port: int, requests: list[Request], n_conns: int
) -> tuple[list[Outcome], float]:
    """Drive one phase; returns the outcomes (in request order) and the
    phase wall time from its start to the last completion."""
    queue: asyncio.Queue = asyncio.Queue()
    outcomes = [Outcome(r) for r in requests]
    start = time.perf_counter() + 0.02

    async def dispatcher() -> None:
        for out in outcomes:
            delay = start + out.request.due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            out.released = time.perf_counter() - start
            queue.put_nowait(out)
        for _ in range(n_conns):
            queue.put_nowait(None)

    async def worker(k: int) -> None:
        client = ServiceClient(
            port=port, tenant=f"bench{k}", deadline=REQUEST_DEADLINE_S
        )
        await client.connect()
        try:
            while (out := await queue.get()) is not None:
                out.sent = time.perf_counter() - start
                try:
                    await _send(client, out.request, out)
                    out.ok = True
                except ReproError as exc:
                    out.code = getattr(exc, "code", type(exc).__name__)
                except (ConnectionError, OSError, asyncio.IncompleteReadError) as exc:
                    out.code = type(exc).__name__
                    await client.close()
                    await client.connect()
                out.done = time.perf_counter() - start
        finally:
            await client.close()

    tasks = [asyncio.ensure_future(dispatcher())]
    tasks += [asyncio.ensure_future(worker(k)) for k in range(n_conns)]
    await asyncio.gather(*tasks)
    wall = max((o.done for o in outcomes), default=0.0)
    return outcomes, wall


def penalized_latencies(outcomes: list[Outcome], phase_s: float) -> list[float]:
    """Latencies in ms with every failed request charged the whole
    phase — more than any limit — so failures count as misses."""
    miss = max(1000.0 * phase_s, 2 * LATENCY_LIMIT_MS)
    return [o.latency_ms if o.ok else miss for o in outcomes]


def queue_growth_ms(outcomes: list[Outcome]) -> float:
    """How much longer requests waited for a connection at the end of a
    phase than at its start: the median wait of the last quarter minus
    that of the first.  A sustainable rate keeps it near 0; past
    capacity the queue, and so the wait, grows with every request."""
    quarter = len(outcomes) // 4
    if quarter == 0:
        return 0.0
    first = [o.queued_ms for o in outcomes[:quarter]]
    last = [o.queued_ms for o in outcomes[-quarter:]]
    return percentile(last, 50.0) - percentile(first, 50.0)


@dataclass
class PhaseSummary:
    sent: int
    failed: int
    p50_ms: float
    p95_ms: float
    lag_p95_ms: float
    queue_growth_ms: float
    decode_ms: list[float] = field(default_factory=list)

    @property
    def meets_limit(self) -> bool:
        """p95 within the latency limit and no backlog building up (the
        wait for a connection grew by less than half the limit)."""
        return (
            self.p95_ms <= LATENCY_LIMIT_MS
            and self.queue_growth_ms <= LATENCY_LIMIT_MS / 2
        )

    @property
    def valid(self) -> bool:
        """False when generator lag swamps the latencies measured."""
        return self.lag_p95_ms <= MAX_LAG_SHARE * self.p50_ms


def summarize(outcomes: list[Outcome], phase_s: float) -> PhaseSummary:
    lat = penalized_latencies(outcomes, phase_s)
    return PhaseSummary(
        sent=len(outcomes),
        failed=sum(1 for o in outcomes if not o.ok),
        p50_ms=percentile(lat, 50.0),
        p95_ms=percentile(lat, 95.0),
        lag_p95_ms=percentile([o.lag_ms for o in outcomes], 95.0),
        queue_growth_ms=queue_growth_ms(outcomes),
        decode_ms=[1000.0 * o.decode_s for o in outcomes if o.ok and o.decode_s],
    )

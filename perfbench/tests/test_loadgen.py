"""Open-loop scheduling and lateness accounting, against a fake client
whose service time is fixed, so expected latencies follow from the
schedule alone.  Tolerances leave room for a busy host's stalls."""

import asyncio

import numpy as np
import pytest
import scipy.sparse as sp

from perfbench import loadgen
from repro.core import CollocationNetwork
from repro.errors import ServiceError
from repro.service.protocol import encode_network

BLOB = encode_network(
    CollocationNetwork(sp.csr_matrix(np.array([[0, 2], [0, 0]], dtype=np.int64)), 0, 168)
)


def fake_client(service_s: float, fail_ops=()):
    class FakeClient:
        def __init__(self, **kwargs):
            self.last_trace_id = None

        async def connect(self):
            return self

        async def close(self):
            pass

        async def request(self, op, **params):
            await asyncio.sleep(service_s)
            if op in fail_ops:
                raise ServiceError("refused", code="overload")
            self.last_trace_id = f"t{params['t0']}"
            return {"ok": True}, BLOB if op in ("window", "ego") else b""

    return FakeClient


def requests(n, op="degrees"):
    return [loadgen.Request(0.0, op, 0, 168) for _ in range(n)]


def test_mix_is_exact_and_seeded():
    ops = loadgen.mix_ops(60)
    assert ops.count("window") == 36 and ops.count("unaligned") == 6
    assert ops.count("degrees") == 12 and ops.count("ego") == 6
    assert len(loadgen.mix_ops(7)) == 7
    a = loadgen.make_requests(np.random.default_rng(3), 40, 336, 100)
    b = loadgen.make_requests(np.random.default_rng(3), 40, 336, 100)
    assert a == b
    for r in a:
        assert 0 <= r.t0 < r.t1 <= 336 and r.t1 - r.t0 == 168
        assert (r.t0 % 24 != 0) == (r.op == "unaligned")


def test_at_rate_spaces_due_times():
    due = [r.due for r in loadgen.at_rate(requests(5), 20.0)]
    assert due == pytest.approx([0.0, 0.05, 0.1, 0.15, 0.2])


def test_underloaded_open_loop_latency_is_service_time(monkeypatch):
    monkeypatch.setattr(loadgen, "ServiceClient", fake_client(0.01))
    reqs = loadgen.at_rate(requests(20), 40.0)  # one request per 25 ms
    outs, wall = asyncio.run(loadgen.run_phase(0, reqs, n_conns=1))
    assert all(o.ok for o in outs)
    s = loadgen.summarize(outs, 0.5)
    assert 10.0 <= s.p50_ms < 60.0
    assert abs(s.queue_growth_ms) < 50.0 and s.meets_limit
    assert s.lag_p95_ms < 50.0
    assert wall == pytest.approx(19 / 40 + 0.01, abs=0.2)


def test_overload_is_charged_from_due_time(monkeypatch):
    # 20 ms of service at 100/s on one connection: each request waits
    # for all earlier ones, so latency grows along the schedule
    monkeypatch.setattr(loadgen, "ServiceClient", fake_client(0.02))
    reqs = loadgen.at_rate(requests(30), 100.0)
    outs, _ = asyncio.run(loadgen.run_phase(0, reqs, n_conns=1))
    lat = [o.latency_ms for o in outs]
    assert lat[-1] > lat[0] + 200.0
    # the generator itself stayed on time: lateness is the service's
    assert max(o.lag_ms for o in outs) < 50.0
    assert outs[-1].queued_ms > 200.0
    assert loadgen.queue_growth_ms(outs) > 150.0
    assert not loadgen.summarize(outs, 0.3).meets_limit


def test_closed_pass_keeps_connections_busy(monkeypatch):
    monkeypatch.setattr(loadgen, "ServiceClient", fake_client(0.01))
    _outs, wall = asyncio.run(loadgen.run_phase(0, requests(20), n_conns=2))
    assert wall == pytest.approx(20 / 2 * 0.01, abs=0.1)


def test_failures_miss_the_limit(monkeypatch):
    monkeypatch.setattr(loadgen, "ServiceClient", fake_client(0.001, fail_ops=("ego",)))
    reqs = loadgen.at_rate(requests(10) + requests(10, op="ego"), 50.0)
    outs, _ = asyncio.run(loadgen.run_phase(0, reqs, n_conns=1))
    assert [o.code for o in outs if not o.ok] == ["overload"] * 10
    s = loadgen.summarize(outs, 0.4)
    assert s.failed == 10
    assert s.p95_ms >= 2 * loadgen.LATENCY_LIMIT_MS
    assert not s.meets_limit


def test_kept_windows_are_decoded(monkeypatch):
    monkeypatch.setattr(loadgen, "ServiceClient", fake_client(0.001))
    reqs = [loadgen.Request(0.0, "window", 0, 168, keep=True)]
    outs, _ = asyncio.run(loadgen.run_phase(0, reqs, n_conns=1))
    assert outs[0].network.adjacency.nnz == 1 and outs[0].decode_s > 0
    assert outs[0].trace_id == "t0"


def test_lag_swamping_latency_is_invalid():
    s = loadgen.PhaseSummary(50, 0, p50_ms=20.0, p95_ms=40.0,
                             lag_p95_ms=25.0, queue_growth_ms=0.0)
    assert not s.valid

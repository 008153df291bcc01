"""Per-layer breakdown of a traced run from span dicts.

Spans are the dicts :mod:`repro.obs.trace` produces (``span_id``,
``parent_id``, ``name``, ``start`` wall seconds, ``duration`` seconds):
the benchmark's own ``bench.*`` spans around each layer call, the
program spans nested under them, and the server's ``trace_log``.  A
span's *self time* is its duration minus the part of its interval its
children cover; time a pass spends outside every layer span is its
unattributed share.
"""

from __future__ import annotations

from contextlib import contextmanager

from repro.obs import get_collector, start_span


@contextmanager
def layer(name: str):
    """A ``bench.<name>`` span around one layer call (a shared no-op
    while telemetry is off)."""
    with start_span(f"bench.{name}") as span:
        yield span


def drain() -> list[dict]:
    """Every span finished in this process since the last drain."""
    return get_collector().drain()


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Total length of the union of ``intervals``."""
    total = 0.0
    end = float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def self_times(spans: list[dict]) -> dict[str, float]:
    """``span_id -> self seconds``; children are clipped to their
    parent's interval, so clock skew between processes never makes a
    self time negative."""
    by_id = {s["span_id"]: s for s in spans}
    children: dict[str, list[tuple[float, float]]] = {}
    for s in spans:
        parent = by_id.get(s.get("parent_id"))
        if parent is None:
            continue
        lo = max(s["start"], parent["start"])
        hi = min(s["start"] + s["duration"], parent["start"] + parent["duration"])
        if hi > lo:
            children.setdefault(parent["span_id"], []).append((lo, hi))
    return {
        sid: max(0.0, s["duration"] - _covered(children.get(sid, [])))
        for sid, s in by_id.items()
    }


def layer_table(spans: list[dict]) -> dict[str, dict]:
    """Per span name: calls, total and self seconds."""
    selfs = self_times(spans)
    table: dict[str, dict] = {}
    for s in spans:
        row = table.setdefault(
            s["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        )
        row["calls"] += 1
        row["total_s"] += s["duration"]
        row["self_s"] += selfs[s["span_id"]]
    return table


def unattributed_share(spans: list[dict], root_name: str) -> float:
    """Share of the ``root_name`` spans' time covered by no child span:
    the part of a pass no layer accounts for."""
    selfs = self_times(spans)
    roots = [s for s in spans if s["name"] == root_name]
    total = sum(s["duration"] for s in roots)
    if total <= 0:
        return 0.0
    return sum(selfs[s["span_id"]] for s in roots) / total


def render_table(table: dict[str, dict], wall_s: float) -> str:
    """Fixed-width table: name, calls, total, self, self share of
    ``wall_s``; busiest self time first."""
    lines = [
        f"  {'span':<28} {'calls':>7} {'total s':>10} {'self s':>10} {'self %':>7}"
    ]
    for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
        share = 100.0 * row["self_s"] / wall_s if wall_s > 0 else 0.0
        lines.append(
            f"  {name:<28} {row['calls']:>7} {row['total_s']:>10.4f} "
            f"{row['self_s']:>10.4f} {share:>6.1f}%"
        )
    return "\n".join(lines)

"""Order statistics the benchmark reports.

Percentiles interpolate between order statistics at rank ``p/100 *
(n + 1)``, as ``statistics.quantiles`` does by default, so quartiles
printed here match ones recomputed from the same values; outside the
sample range they clamp instead of extrapolating.
"""

from __future__ import annotations

import statistics

#: percentiles a tail metric may be reported at, highest first
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 50.0)
#: a tail percentile is supported only with this many samples beyond it
MIN_BEYOND = 10


def percentile(values, p: float) -> float:
    """The ``p``-th percentile (0 < p < 100) with linear interpolation
    between order statistics at rank ``p/100 * (n + 1)``, clamped to the
    sample range; a single value is its own percentile."""
    xs = sorted(float(v) for v in values)
    if not xs:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < p < 100.0:
        raise ValueError(f"percentile must be in (0, 100), got {p}")
    n = len(xs)
    rank = p / 100.0 * (n + 1)
    if rank <= 1:
        return xs[0]
    if rank >= n:
        return xs[-1]
    lo = int(rank)
    frac = rank - lo
    return xs[lo - 1] + frac * (xs[lo] - xs[lo - 1])


def median(values) -> float:
    return percentile(values, 50.0)


def samples_beyond(n: int, p: float) -> int:
    """How many of ``n`` samples lie strictly above the ``p``-th
    percentile's rank."""
    return n - int(p / 100.0 * (n + 1))


def supported_tail(n: int) -> float | None:
    """The highest percentile in :data:`TAIL_PERCENTILES` with at least
    :data:`MIN_BEYOND` samples beyond it, or None for tiny samples."""
    for p in TAIL_PERCENTILES:
        if samples_beyond(n, p) >= MIN_BEYOND:
            return p
    return None


def iqr_share(values) -> float:
    """Distance between the first and third quartile as a share of the
    median — the run-to-run spread the benchmark's bounds are set
    against (``statistics.quantiles(values, n=4)``)."""
    q1, q2, q3 = statistics.quantiles([float(v) for v in values], n=4)
    if q2 == 0:
        raise ValueError("spread of a sample whose median is 0")
    return (q3 - q1) / abs(q2)

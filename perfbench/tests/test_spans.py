import pytest

from perfbench import spans


def span(sid, parent, name, start, duration):
    return {"trace_id": "t", "span_id": sid, "parent_id": parent,
            "name": name, "start": start, "duration": duration}


def test_self_time_subtracts_the_union_of_children():
    tree = [
        span("p", None, "bench.pass", 0.0, 10.0),
        span("a", "p", "bench.sim", 1.0, 3.0),
        span("b", "p", "bench.synth", 3.0, 3.0),  # overlaps a by 1 s
        span("c", "b", "synthesize", 3.5, 1.0),
        span("x", "p", "late", 9.0, 5.0),  # runs past its parent: clipped
    ]
    selfs = spans.self_times(tree)
    assert selfs["p"] == pytest.approx(10.0 - 5.0 - 1.0)
    assert selfs["b"] == pytest.approx(2.0)
    assert selfs["c"] == pytest.approx(1.0)
    assert spans.unattributed_share(tree, "bench.pass") == pytest.approx(0.4)


def test_layer_table_sums_by_name():
    tree = [
        span("p", None, "bench.pass", 0.0, 4.0),
        span("a", "p", "bench.fits", 0.0, 1.0),
        span("q", None, "bench.pass", 10.0, 2.0),
        span("b", "q", "bench.fits", 10.0, 2.0),
    ]
    table = spans.layer_table(tree)
    assert table["bench.fits"] == {"calls": 2, "total_s": 3.0, "self_s": 3.0}
    assert table["bench.pass"]["self_s"] == pytest.approx(3.0)
    assert "bench.fits" in spans.render_table(table, 6.0)


def test_unparented_spans_and_empty_roots():
    assert spans.self_times([span("o", "missing", "orphan", 0.0, 2.0)]) == {"o": 2.0}
    assert spans.unattributed_share([], "bench.pass") == 0.0

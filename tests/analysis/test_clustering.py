"""Tests for the local clustering coefficient and the triangle kernel
behind it (networkx cross-checks, every implementation tier)."""

from __future__ import annotations

import itertools
import os

import networkx as nx
import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.clustering import (
    clustering_histogram,
    local_clustering,
    local_triangles,
    mean_clustering,
)
from repro.core import CollocationNetwork
from repro.core.kernels import TRIANGLE_STAGES, edge_triangles, pyref
from repro.core.kernels.cext import cext_available, cext_error
from repro.errors import AnalysisError
from repro.obs import (
    CollectingProbe,
    MetricsRegistry,
    capture_spans,
    configure,
    push_probe,
)

#: the triangle kernel's implementations: ``REPRO_KERNEL_IMPL`` value
#: -> whether this environment can run it
IMPLS = {"cext": cext_available(), "numpy": True}


def net_from_edges(edges, n):
    rows, cols, data = [], [], []
    for i, j in edges:
        a, b = min(i, j), max(i, j)
        rows.append(a)
        cols.append(b)
        data.append(1)
    return CollocationNetwork(
        sp.coo_matrix((data, (rows, cols)), shape=(n, n)).tocsr()
    )


def nx_triangles(net: CollocationNetwork) -> np.ndarray:
    g = nx.Graph()
    g.add_nodes_from(range(net.n_persons))
    coo = net.adjacency.tocoo()
    g.add_edges_from(zip(coo.row.tolist(), coo.col.tolist()))
    t = nx.triangles(g)
    return np.array([t[v] for v in range(net.n_persons)], dtype=np.int64)


def triangles_under(impl: str, net: CollocationNetwork) -> np.ndarray:
    """Per-vertex triangle counts with the kernel pinned to ``impl``."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("REPRO_KERNEL_IMPL", impl)
        return local_triangles(net)


@pytest.fixture(params=sorted(IMPLS))
def impl(request, monkeypatch):
    """Run the test once per implementation tier available here."""
    if not IMPLS[request.param]:
        pytest.skip(f"{request.param} kernel unavailable")
    monkeypatch.setenv("REPRO_KERNEL_IMPL", request.param)
    return request.param


def test_pinned_tier_is_present():
    """A run pinned to the C tier must really have it: otherwise every
    cext case below would skip instead of fail."""
    if os.environ.get("REPRO_KERNEL_IMPL") == "cext":
        assert IMPLS["cext"], cext_error()


class TestKnownGraphs:
    def test_triangle_is_fully_clustered(self):
        net = net_from_edges([(0, 1), (1, 2), (0, 2)], 3)
        assert local_clustering(net).tolist() == [1.0, 1.0, 1.0]

    def test_star_has_zero_clustering(self):
        net = net_from_edges([(0, 1), (0, 2), (0, 3)], 4)
        cc = local_clustering(net)
        assert cc[0] == 0.0  # hub's neighbors unconnected
        assert (cc[1:] == 0.0).all()  # leaves have degree 1

    def test_triangle_plus_pendant(self):
        net = net_from_edges([(0, 1), (1, 2), (0, 2), (2, 3)], 4)
        cc = local_clustering(net)
        assert cc[0] == 1.0
        assert cc[2] == pytest.approx(1 / 3)
        assert cc[3] == 0.0

    def test_weights_ignored(self):
        """Clustering is a topology measure; edge weights must not matter."""
        a = net_from_edges([(0, 1), (1, 2), (0, 2)], 3)
        heavy = CollocationNetwork(a.adjacency * 100)
        assert (local_clustering(a) == local_clustering(heavy)).all()


class TestTriangleShapes:
    """Exact per-edge and per-vertex counts on shapes with closed forms,
    under every implementation tier."""

    def test_empty_graph(self, impl):
        empty = CollocationNetwork(sp.csr_matrix((0, 0), dtype=np.int64))
        assert edge_triangles(empty.adjacency).shape == (0,)
        assert local_triangles(empty).shape == (0,)
        assert local_clustering(empty).shape == (0,)

    def test_isolated_vertices(self, impl):
        net = CollocationNetwork(sp.csr_matrix((5, 5), dtype=np.int64))
        assert local_triangles(net).tolist() == [0] * 5
        assert local_clustering(net).tolist() == [0.0] * 5

    def test_single_edge(self, impl):
        net = net_from_edges([(1, 3)], 4)
        assert edge_triangles(net.adjacency).tolist() == [0]
        assert local_triangles(net).tolist() == [0, 0, 0, 0]

    def test_star(self, impl):
        net = net_from_edges([(0, k) for k in range(1, 7)], 7)
        assert edge_triangles(net.adjacency).tolist() == [0] * 6
        assert local_triangles(net).tolist() == [0] * 7

    @pytest.mark.parametrize("n", [3, 4, 7, 12])
    def test_complete_graph(self, impl, n):
        net = net_from_edges(itertools.combinations(range(n), 2), n)
        # every edge lies on n-2 triangles, every vertex on C(n-1, 2)
        assert (edge_triangles(net.adjacency) == n - 2).all()
        assert (local_triangles(net) == (n - 1) * (n - 2) // 2).all()
        assert (local_clustering(net) == 1.0).all()

    def test_isolated_vertices_beside_a_clique(self, impl):
        net = net_from_edges(itertools.combinations([2, 5, 6, 8], 2), 10)
        expect = [0, 0, 3, 0, 0, 3, 3, 0, 3, 0]
        assert local_triangles(net).tolist() == expect


@st.composite
def small_graphs(draw):
    n = draw(st.integers(min_value=0, max_value=16))
    if n < 2:
        return net_from_edges([], n)
    pairs = list(itertools.combinations(range(n), 2))
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    return net_from_edges(chosen, n)


class TestTriangleCountsAgree:
    @given(small_graphs())
    @settings(max_examples=150, deadline=None)
    def test_every_tier_matches_networkx(self, net):
        expect = nx_triangles(net)
        for impl, available in IMPLS.items():
            if available:
                assert np.array_equal(triangles_under(impl, net), expect), impl

    def test_reference_blocking_invariant(self, small_net, monkeypatch):
        """Tiny lookup tables and wedge blocks force the numpy twin
        through many blocks; the counts must not move."""
        a = small_net.adjacency
        n = a.shape[0]
        indptr = a.indptr.astype(np.int64)
        whole, tri = pyref.edge_support(n, *pyref.orient_edges(n, indptr, a.indices))
        monkeypatch.setattr(pyref, "_LOOKUP_CELLS", 3 * n)
        monkeypatch.setattr(pyref, "_WEDGE_BLOCK", 1000)
        blocked, tri_b = pyref.edge_support(
            n, *pyref.orient_edges(n, indptr, a.indices)
        )
        assert tri_b == tri > 0
        assert np.array_equal(blocked, whole)

    @pytest.mark.skipif(not IMPLS["cext"], reason="cext kernel unavailable")
    def test_cext_support_identical_to_reference(self, small_net):
        a = small_net.adjacency
        support = {}
        for impl in IMPLS:
            with pytest.MonkeyPatch.context() as mp:
                mp.setenv("REPRO_KERNEL_IMPL", impl)
                support[impl] = edge_triangles(a)
        assert support["cext"].dtype == np.int64
        assert np.array_equal(support["cext"], support["numpy"])


class TestNetworkxCrossCheck:
    def test_matches_networkx_on_real_network(self, small_net):
        g = small_net.to_networkx()
        tri = nx.triangles(g)
        expect = np.array([tri[v] for v in range(small_net.n_persons)])
        assert np.array_equal(local_triangles(small_net), expect)
        theirs = nx.clustering(g)
        theirs = np.array([theirs[v] for v in range(small_net.n_persons)])
        assert np.allclose(local_clustering(small_net), theirs, rtol=0, atol=1e-12)

    def test_matches_networkx_on_real_network_every_tier(self, small_net, impl):
        assert np.array_equal(local_triangles(small_net), nx_triangles(small_net))


class TestSparseInput:
    """A raw sparse matrix is read as the undirected pattern of its
    nonzeros, whichever triangle(s) it stores."""

    def test_network_adjacency_and_symmetric_agree(self, small_net):
        cc = local_clustering(small_net)
        assert np.array_equal(local_clustering(small_net.adjacency), cc)
        assert np.array_equal(local_clustering(small_net.symmetric()), cc)
        assert np.array_equal(local_clustering(small_net.adjacency.T), cc)

    def test_diagonal_and_explicit_zeros_ignored(self):
        net = net_from_edges([(0, 1), (1, 2), (0, 2), (2, 3)], 4)
        # lower triangle, plus a self loop and a stored zero (1, 3)
        raw = sp.csr_matrix(
            (
                np.array([1, 1, 1, 1, 7, 0]),
                (np.array([1, 2, 2, 3, 3, 3]), np.array([0, 1, 0, 2, 3, 1])),
            ),
            shape=(4, 4),
        )
        assert np.array_equal(local_clustering(raw), local_clustering(net))
        assert local_triangles(raw).tolist() == [1, 1, 1, 0]

    def test_non_square_rejected(self):
        with pytest.raises(AnalysisError):
            local_clustering(sp.csr_matrix((3, 4)))

    def test_kernel_rejects_non_canonical_input(self, impl):
        """The kernel itself takes only the canonical strict-upper CSR.
        On a symmetric star the C tier's degree counting sort would run
        past its buffer, so such input must raise before any tier runs."""
        star = net_from_edges([(0, 1), (0, 2)], 3)
        dup = sp.csr_matrix(
            (np.ones(2), np.array([1, 1]), np.array([0, 2, 2, 2])), shape=(3, 3)
        )
        unsorted = sp.csr_matrix(
            (np.ones(2), np.array([2, 1]), np.array([0, 2, 2, 2])), shape=(3, 3)
        )
        for bad in (star.symmetric(), star.adjacency.T.tocsr(), dup, unsorted):
            with pytest.raises(AnalysisError):
                edge_triangles(bad)
        with pytest.raises(AnalysisError):
            edge_triangles(sp.csr_matrix((2, 3)))


class TestTelemetry:
    def test_span_and_kernel_stages(self, small_net):
        prev = configure(True)
        probe = CollectingProbe(MetricsRegistry())
        try:
            with capture_spans() as spans, push_probe(probe):
                local_clustering(small_net)
        finally:
            configure(prev)
        (span,) = [s for s in spans if s["name"] == "analysis.clustering"]
        expect = int(nx_triangles(small_net).sum()) // 3
        assert span["attrs"]["triangles"] == expect > 0
        assert span["attrs"]["edges"] == small_net.n_edges
        for stage in TRIANGLE_STAGES:
            assert probe.kernel[stage]["tasks"] == 1
            assert probe.kernel[stage]["seconds"] >= 0.0


class TestHistogram:
    def test_bin_structure(self):
        cc = np.array([0.0, 0.5, 1.0, 1.0])
        edges, counts = clustering_histogram(cc, n_bins=4)
        assert len(edges) == 5
        assert counts.sum() == 4
        assert counts[-1] == 2  # both 1.0s in the top bin

    def test_degree_filter_excludes_undefined(self):
        cc = np.array([0.0, 0.0, 1.0])
        degrees = np.array([1, 0, 5])
        _, counts = clustering_histogram(cc, degrees=degrees)
        assert counts.sum() == 1

    def test_paper_spike_at_one(self, small_net):
        """Figure 4: a visible population of fully-clustered vertices."""
        cc = local_clustering(small_net)
        deg = small_net.degrees()
        _, counts = clustering_histogram(cc, n_bins=20, degrees=deg)
        assert counts[-1] > 0

    def test_mean_clustering(self):
        cc = np.array([1.0, 0.0, 0.5])
        assert mean_clustering(cc) == pytest.approx(0.5)
        assert mean_clustering(cc, degrees=np.array([3, 1, 3])) == pytest.approx(0.75)
        assert mean_clustering(np.array([])) == 0.0

"""Local clustering coefficient (Figure 4).

"The local clustering coefficient, or transitivity, is calculated for each
person vertex in the collocation network and describes the local
connectedness of each vertex's neighbors via the ratio of connected edge
triangles and triples centered on the vertex."

Computed from per-edge triangle support
(:func:`~repro.core.kernels.edge_triangles`): the kernel ranks vertices
by ``(degree, id)``, orients every edge of the upper-triangular adjacency
from its lower- to its higher-ranked end and finds each triangle exactly
once, at its lowest-ranked corner, in ``O(Σ d⁺²)`` work over out-degrees
``d⁺``.  No ``A·A`` intermediate exists at any point.  A vertex's
triangle count is half the support summed over its edges, so the
coefficient is a pair of ``bincount`` reductions over the support array.
Integer counts are cross-validated against networkx in the tests.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from ..core.kernels import edge_triangles
from ..core.network import CollocationNetwork
from ..errors import AnalysisError
from ..obs import start_span

__all__ = [
    "local_clustering",
    "local_triangles",
    "clustering_histogram",
    "mean_clustering",
]


def upper_pattern(network: CollocationNetwork | sp.spmatrix) -> sp.csr_matrix:
    """The strict-upper CSR the triangle kernel reads.

    A network's own canonical adjacency is used as is (weights intact).
    Any other sparse matrix is read as the undirected pattern of its
    nonzeros, ``A ∪ Aᵀ`` with the diagonal dropped, so a symmetric
    matrix and its upper or lower triangle all give the same graph.
    """
    if isinstance(network, CollocationNetwork):
        a = network.adjacency
        if not a.has_canonical_format:
            a = a.copy()
            a.sum_duplicates()
        return a
    coo = sp.coo_matrix(network)
    if coo.shape[0] != coo.shape[1]:
        raise AnalysisError(f"adjacency must be square, got {coo.shape}")
    keep = (coo.data != 0) & (coo.row != coo.col)
    row, col = coo.row[keep], coo.col[keep]
    upper = sp.csr_matrix(
        (
            np.ones(len(row), dtype=np.int64),
            (np.minimum(row, col), np.maximum(row, col)),
        ),
        shape=coo.shape,
    )
    upper.sum_duplicates()
    return upper


def incident_sums(a: sp.csr_matrix, edge_values: np.ndarray | None = None):
    """Per vertex of the strict-upper ``a``, the sum of ``edge_values``
    (aligned with ``a.data``) over its incident edges; with no values,
    the degree (``int64``)."""
    n = a.shape[0]
    rows = np.repeat(np.arange(n), np.diff(a.indptr))
    return np.bincount(rows, edge_values, n) + np.bincount(
        a.indices, edge_values, n
    )


def _triangles_and_degrees(a: sp.csr_matrix) -> tuple[np.ndarray, np.ndarray]:
    # each triangle at a vertex is counted once by each of its two edges
    # there; float sums of integers this small are exact
    triangles = incident_sums(a, edge_triangles(a)).astype(np.int64) // 2
    return triangles, incident_sums(a)


def local_triangles(network: CollocationNetwork | sp.spmatrix) -> np.ndarray:
    """Per-vertex triangle count (``int64``), as ``networkx.triangles``."""
    return _triangles_and_degrees(upper_pattern(network))[0]


def local_clustering(network: CollocationNetwork | sp.spmatrix) -> np.ndarray:
    """Per-vertex local clustering coefficient in [0, 1].

    Vertices with degree < 2 get coefficient 0 (consistent with igraph's
    ``transitivity_local`` NaN→excluded convention being mapped to 0 for
    histogramming).  A raw sparse matrix is read as the undirected
    pattern of its nonzeros (see :func:`upper_pattern`).
    """
    with start_span("analysis.clustering") as span:
        a = upper_pattern(network)
        triangles, degrees = _triangles_and_degrees(a)
        span.set_attr("edges", int(a.nnz))
        span.set_attr("triangles", int(triangles.sum()) // 3)
        coeff = np.zeros(len(degrees), dtype=np.float64)
        can = degrees >= 2
        possible = degrees[can] * (degrees[can] - 1) / 2
        coeff[can] = triangles[can] / possible
        if coeff.size and (coeff.max() > 1.0 + 1e-9 or coeff.min() < 0):
            raise AnalysisError("clustering coefficient outside [0, 1]")
        return np.clip(coeff, 0.0, 1.0)


def clustering_histogram(
    coefficients: np.ndarray,
    n_bins: int = 20,
    degrees: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Histogram of local clustering coefficients (Figure 4).

    Returns ``(bin_edges, counts)`` with ``n_bins`` equal bins over [0, 1].
    When ``degrees`` is given, vertices with degree < 2 are excluded (they
    have no defined coefficient), matching the paper's per-person-vertex
    histogram.
    """
    coefficients = np.asarray(coefficients, dtype=np.float64)
    if degrees is not None:
        coefficients = coefficients[np.asarray(degrees) >= 2]
    edges = np.linspace(0.0, 1.0, n_bins + 1)
    counts, _ = np.histogram(coefficients, bins=edges)
    return edges, counts.astype(np.int64)


def mean_clustering(
    coefficients: np.ndarray, degrees: np.ndarray | None = None
) -> float:
    """Mean local clustering over vertices with a defined coefficient."""
    coefficients = np.asarray(coefficients, dtype=np.float64)
    if degrees is not None:
        coefficients = coefficients[np.asarray(degrees) >= 2]
    return float(coefficients.mean()) if coefficients.size else 0.0

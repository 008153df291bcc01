"""Per-edge triangle support: the Fig. 4 clustering kernel.

:func:`edge_triangles` counts, for every edge of a canonical
strict-upper CSR pattern, the common neighbours of its two ends.  It
never forms ``A·A``: vertices are ranked by ``(degree, id)``, each edge
points from its lower-ranked to its higher-ranked end, and every
triangle is found exactly once, at its lowest-ranked corner, by walking
out-lists — ``O(Σ d⁺²)`` work over out-degrees ``d⁺ ≤ sqrt(2m)``.

:func:`~repro.core.kernels.compiled_impl` picks the implementation, as
for the synthesis kernels: the C extension (``rk_orient_edges`` +
``rk_edge_support``) under ``cext``, the vectorised numpy twin in
:mod:`.pyref` otherwise.  Both give identical integer counts.  The two
phases report as the ``triangle_orient`` and ``triangle_count`` kernel
stages through the probe.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from ...errors import AnalysisError
from . import pyref
from .cext import load_cext
from .workspace import emit_kernel_stages, get_workspace, kernel_stage

__all__ = ["edge_triangles", "TRIANGLE_STAGES"]

#: the triangle kernel's stages, in order
TRIANGLE_STAGES = ("triangle_orient", "triangle_count")


def _check_strict_upper(n, indptr, indices) -> None:
    # O(nnz): row-major keys must rise strictly (sorted, no duplicates)
    # and every column must lie right of the diagonal.  Both tiers rely
    # on it: the C tier sizes its degree counting sort by ``degree < n``
    row = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    if len(indices) and (
        (indices <= row).any()
        or (indices >= n).any()
        or (np.diff(row * n + indices) <= 0).any()
    ):
        raise AnalysisError(
            "triangle kernel needs a strict-upper CSR with sorted, "
            "distinct indices"
        )


def edge_triangles(adjacency: sp.csr_matrix) -> np.ndarray:
    """``int64[nnz]`` common-neighbour counts, aligned with
    ``adjacency.data``.

    ``adjacency`` must be a square strict-upper CSR with sorted indices
    and no duplicate entries (a
    :class:`~repro.core.network.CollocationNetwork`'s canonical
    adjacency); its values are ignored.  Anything else raises
    :class:`~repro.errors.AnalysisError`.
    """
    from . import compiled_impl

    n = adjacency.shape[0]
    if adjacency.shape != (n, n):
        raise AnalysisError(f"adjacency must be square, got {adjacency.shape}")
    indptr = np.ascontiguousarray(adjacency.indptr, dtype=np.int64)
    nnz = int(indptr[n])
    indices = np.ascontiguousarray(adjacency.indices[:nnz], dtype=np.int32)
    _check_strict_upper(n, indptr, indices)
    kernels = load_cext() if compiled_impl() == "cext" else None
    try:
        if kernels is None:
            with kernel_stage("triangle_orient"):
                optr, odst, oeid = pyref.orient_edges(n, indptr, indices)
            with kernel_stage("triangle_count"):
                sup, _ = pyref.edge_support(n, optr, odst, oeid)
        else:
            ws = get_workspace()
            with kernel_stage("triangle_orient"):
                optr = ws.take("tri_optr", n + 1, np.int64)
                odst = ws.take("tri_odst", nnz, np.int32)
                oeid = ws.take("tri_oeid", nnz, np.int64)
                kernels.orient_edges(
                    n,
                    indptr,
                    indices,
                    ws.take("tri_deg", n, np.int64),
                    ws.take("tri_rank", n, np.int64),
                    optr,
                    odst,
                    oeid,
                )
            with kernel_stage("triangle_count"):
                sup = np.empty(nnz, dtype=np.int64)
                kernels.edge_support(
                    n, optr, odst, oeid, ws.take("tri_mark", n, np.int64), sup
                )
    finally:
        # drained even on failure, so no stray clock rides into a later
        # task's timings
        emit_kernel_stages(*TRIANGLE_STAGES)
    return sup

"""Pure-python reference loops for the masked SpGEMM kernel.

These functions are the *algorithm of record* for the compiled backends:
the C extension (:mod:`.cext`) is a line-for-line port, and the numba
backend (:mod:`.numba_backend`) jits exactly these functions.  They use
only plain loops and array indexing — the numba-supported subset — so
the same code object is testable un-jitted on small inputs and
compilable when numba is installed.

Do not call these on production-sized data without numba: they exist for
correctness (tests exercise them against scipy) and for jitting, not for
interpreted speed.

The exception is the triangle kernel's pair, :func:`orient_edges` and
:func:`edge_support`: vectorised numpy twins of ``rk_orient_edges`` /
``rk_edge_support`` that every tier without the C extension runs at
production size.  They produce the same orientation (up to the order
within each out-list) and the same integer support.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "masked_spgemm",
    "csr_to_csc",
    "pack_triples",
    "keys_to_csr",
    "fill_values",
    "orient_edges",
    "edge_support",
]

#: wedges expanded per block of :func:`edge_support` (bounds its scratch)
_WEDGE_BLOCK = 1 << 20
#: cells of the dense ``(block rows × n)`` edge-id lookup table.  It caps
#: a block at ``_LOOKUP_CELLS // n`` source rows, so the block loop runs
#: at least ``n² / 2²¹`` times; even so, the table beat a ``searchsorted``
#: over the sorted ``src*n+dst`` keys at every size measured (2-core
#: x86 VM): 0.04 vs 0.11 s at 6k vertices / 146k edges, 0.8 vs 1.9 s at
#: 60k / 1.7M, 5.1 vs 8.6 s at 240k / 6.8M, and 7.9 vs 9.0 s with the
#: same edges spread over 1M vertex ids
_LOOKUP_CELLS = 1 << 21


def csr_to_csc(nr, nc, indptr, cols, cp, ri, qp):
    """Counting transpose of a CSR pattern into CSC (rows ascending per
    column), recording each CSR entry's CSC position in ``qp``.

    Outputs: ``cp`` int64[nc+1], ``ri`` int32[nnz], ``qp`` int64[nnz].
    """
    nnz = indptr[nr]
    for c in range(nc + 1):
        cp[c] = 0
    for p in range(nnz):
        cp[cols[p] + 1] += 1
    for c in range(nc):
        cp[c + 1] += cp[c]
    for i in range(nr):
        for p in range(indptr[i], indptr[i + 1]):
            c = cols[p]
            q = cp[c]
            cp[c] = q + 1
            ri[q] = i
            qp[p] = q
    for c in range(nc, 0, -1):
        cp[c] = cp[c - 1]
    cp[0] = 0
    return nnz


def masked_spgemm(
    nr, indptr, cols, qp, cp, ri, w, acc, mark, touch, out_r, out_c, out_v, cap
):
    """Strict-upper-triangle triples of ``(Y·diag(w))·Yᵀ``.

    Y comes in as its CSR pattern (``indptr``/``cols``) plus the CSC from
    :func:`csr_to_csc` (``cp``/``ri`` ascending rows, ``qp`` mapping CSR
    entry → CSC position).  Row-wise Gustavson restricted to upper pairs:
    rows are ascending within each CSC column, so for an entry of row
    ``i`` every later entry in the same column is a partner ``j > i`` —
    the suffix starting right after ``qp[p]``.  Returns the triple count,
    or ``-needed`` when ``cap`` is too small (counting continues without
    writing so the caller can size the retry).

    Workspaces (caller-provided, any contents): ``acc`` int64[nr],
    ``mark``/``touch`` int32[nr].
    """
    for i in range(nr):
        mark[i] = -1
    out_n = 0
    for i in range(nr):
        nt = 0
        for p in range(indptr[i], indptr[i + 1]):
            c = cols[p]
            wc = w[c]
            for q in range(qp[p] + 1, cp[c + 1]):
                j = ri[q]
                if mark[j] != i:
                    mark[j] = i
                    acc[j] = wc
                    touch[nt] = j
                    nt += 1
                else:
                    acc[j] += wc
        if out_n + nt <= cap:
            for t in range(nt):
                j = touch[t]
                out_r[out_n] = i
                out_c[out_n] = j
                out_v[out_n] = acc[j]
                out_n += 1
        else:
            out_n += nt  # count on, write nothing: sizes the retry
    if out_n > cap:
        return -out_n
    return out_n


def pack_triples(n, rows, cols, pmap, use_map, keys):
    """Rewrite one run's local COO triples as packed ``(global_row << 32
    | global_col)`` sort keys, mapping local ids through ``pmap`` when
    ``use_map`` is nonzero — the gather and the key packing fused into
    one pass.
    """
    if use_map:
        for t in range(n):
            keys[t] = (pmap[rows[t]] << 32) | pmap[cols[t]]
    else:
        # rows/cols are int32: widen before shifting
        for t in range(n):
            keys[t] = (np.int64(rows[t]) << 32) | np.int64(cols[t])
    return 0


def keys_to_csr(keys, n_tr, n_rows, indptr, cols_out):
    """Dedup *globally sorted* packed triple keys into the canonical CSR
    pattern (``indptr`` int32[n_rows+1], ``cols_out`` capacity n_tr) in
    one linear scan.  Returns the deduped nnz.
    """
    nnz = 0
    row = 0
    prev = -1
    indptr[0] = 0
    for i in range(n_tr):
        k = keys[i]
        if k == prev:
            continue
        prev = k
        r = k >> 32
        while row < r:
            row += 1
            indptr[row] = nnz
        cols_out[nnz] = k & 0xFFFFFFFF
        nnz += 1
    while row < n_rows:
        row += 1
        indptr[row] = nnz
    return nnz


def fill_values(
    n_runs,
    run_ptr,
    keys,
    vals,
    n_rows,
    indptr,
    cols_out,
    acc,
    mark,
    cursor,
    vals_out,
):
    """Sum duplicate triple values into the canonical CSR's value array.

    The *unsorted* keys come as ``n_runs`` concatenated runs (``run_ptr``
    boundaries, one run per pack) with rows non-decreasing within each
    run: the SpGEMM emits rows ascending and the pack map is sorted, so
    mapping preserves the order.  Walk the global rows once, draining
    every run's prefix for the current row into the dense accumulator,
    then emit the row's values in the canonical column order
    :func:`keys_to_csr` fixed.

    Scratch (caller-provided, any contents): ``acc`` int64[n_rows],
    ``mark`` int32[n_rows], ``cursor`` int64[n_runs].
    """
    for c in range(n_rows):
        mark[c] = -1
    for u in range(n_runs):
        cursor[u] = run_ptr[u]
    for r in range(n_rows):
        for u in range(n_runs):
            s = cursor[u]
            e = run_ptr[u + 1]
            while s < e and (keys[s] >> 32) == r:
                c = keys[s] & 0xFFFFFFFF
                if mark[c] != r:
                    mark[c] = r
                    acc[c] = vals[s]
                else:
                    acc[c] += vals[s]
                s += 1
            cursor[u] = s
        for k in range(indptr[r], indptr[r + 1]):
            vals_out[k] = acc[cols_out[k]]
    return 0


def orient_edges(n, indptr, indices):
    """Degree-ordered orientation of a strict-upper CSR pattern.

    Ranks vertices by ``(degree, id)`` and points each edge from its
    lower-ranked to its higher-ranked end.  Returns the out-lists in rank
    labels: ``optr`` int64[n+1], ``odst`` int64[nnz] (head ranks,
    ascending within each list) and ``oeid`` int64[nnz] (each out-edge's
    position in the input).
    """
    row = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    col = np.asarray(indices, dtype=np.int64)
    deg = np.bincount(row, minlength=n) + np.bincount(col, minlength=n)
    rank = np.empty(n, dtype=np.int64)
    rank[np.argsort(deg, kind="stable")] = np.arange(n)
    ru = rank[row]
    rv = rank[col]
    src = np.minimum(ru, rv)
    dst = np.maximum(ru, rv)
    oeid = np.argsort(src * n + dst)
    optr = np.searchsorted(src[oeid], np.arange(n + 1))
    return optr, dst[oeid], oeid


def edge_support(n, optr, odst, oeid):
    """Per-edge triangle support over :func:`orient_edges`' output.

    Expands every wedge ``u→v→w`` (``v`` an out-neighbour of ``u``,
    ``w`` of ``v``) and looks ``u→w`` up in a dense edge-id table over a
    block of source rows; each hit is a triangle, found once at its
    lowest-ranked corner, and adds one to each of its three edges.
    Blocks bound both the table and the expanded wedges.  Returns
    ``(sup int64[nnz] aligned with the input edges, triangle count)``.
    """
    nnz = len(odst)
    out_deg = np.diff(optr)
    lens = out_deg[odst]
    # wedge offsets per out-edge, and per source row through optr
    wptr = np.zeros(nnz + 1, dtype=np.int64)
    np.cumsum(lens, out=wptr[1:])
    row_wedges = wptr[optr]
    rows = max(1, min(n, _LOOKUP_CELLS // max(n, 1)))
    table = np.full(rows * n, -1, dtype=np.int64)
    src = np.repeat(np.arange(n, dtype=np.int64), out_deg)
    sup = np.zeros(nnz, dtype=np.int64)
    hits = []
    n_hits = n_tri = 0
    u0 = 0
    while u0 < n:
        u1 = int(np.searchsorted(row_wedges, row_wedges[u0] + _WEDGE_BLOCK, "right")) - 1
        u1 = min(n, u0 + rows, max(u1, u0 + 1))
        k0, k1 = optr[u0], optr[u1]
        total = int(wptr[k1] - wptr[k0])
        if total:
            cell = (src[k0:k1] - u0) * n + odst[k0:k1]
            table[cell] = np.arange(k0, k1)
            span = lens[k0:k1]
            uv = np.repeat(np.arange(k0, k1), span)
            vw = np.repeat(optr[odst[k0:k1]] - (wptr[k0:k1] - wptr[k0]), span)
            vw += np.arange(total)
            uw = table[(src[uv] - u0) * n + odst[vw]]
            closed = np.flatnonzero(uw >= 0)
            hits += [uv[closed], vw[closed], uw[closed]]
            n_hits += 3 * len(closed)
            n_tri += len(closed)
            table[cell] = -1
        u0 = u1
        if hits and (n_hits >= _WEDGE_BLOCK or u0 == n):
            # fold closed triangles in every block's worth, not at the
            # end: the hit lists would otherwise hold 3 ids per triangle
            sup += np.bincount(np.concatenate(hits), minlength=nnz)
            hits, n_hits = [], 0
    out = np.empty(nnz, dtype=np.int64)
    out[oeid] = sup
    return out, n_tri

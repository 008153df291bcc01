"""Bit-identity contract of the kernel backends.

``backend="masked"`` (compiled masked-triangular SpGEMM, whichever
implementation is available) and ``backend="scipy"`` (the reference) must
produce **bit-identical** CSR adjacencies — same ``data``, ``indices``,
``indptr``, dtypes — for every kernel, on any input.  The property suite
drives randomized logs through every (kernel, backend) pair, deliberately
covering empty windows, empty places, single-person places, and records
straddling the window boundary; the unit tests pin the pure-python
reference loops against scipy directly, so the contract holds even where
no compiled implementation exists.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import synthesize_network
from repro.core.intervals import build_interval_pack
from repro.core.kernels import (
    BACKENDS,
    backend_info,
    check_backend,
    compiled_impl,
    get_workspace,
    resolve_backend,
)
from repro.core.kernels import cext, pyref
from repro.core.kernels.cext import cext_available
from repro.core.slicing import clip_records, slice_records
from repro.errors import SynthesisError
from repro.evlog import make_records

N_PERSONS = 60
T0, T1 = 10, 58


def csr_identical(a, b):
    """Bit-for-bit CSR equality — the contract, not mere closeness."""
    return (
        a.shape == b.shape
        and a.dtype == b.dtype
        and a.indices.dtype == b.indices.dtype
        and np.array_equal(a.data, b.data)
        and np.array_equal(a.indices, b.indices)
        and np.array_equal(a.indptr, b.indptr)
    )


def to_records(rows):
    if not rows:
        return make_records(*(np.empty(0, np.uint32) for _ in range(5)))
    person, place, start, dur = (np.array(c, np.uint32) for c in zip(*rows))
    return make_records(start, start + dur, person, np.zeros_like(place), place)


#: (person, place, start, duration) — starts range past T1 and durations
#: cross T0/T1, so records straddle both window boundaries; small place
#: range forces shared places, while sparse draws leave single-person and
#: empty places
record_lists = st.lists(
    st.tuples(
        st.integers(0, N_PERSONS - 1),
        st.integers(0, 12),
        st.integers(0, 70),
        st.integers(1, 25),
    ),
    max_size=60,
)


class TestBackendBitIdentity:
    @settings(deadline=None, max_examples=40)
    @given(record_lists)
    def test_all_kernel_backend_pairs(self, rows):
        """One adjacency, four (kernel, backend) routes, zero bit drift."""
        rec = to_records(rows)
        ref = None
        for kernel in ("intervals", "dense-hours"):
            for backend in BACKENDS:
                net, report = synthesize_network(
                    rec, N_PERSONS, T0, T1, kernel=kernel, backend=backend
                )
                assert report.backend == backend
                if ref is None:
                    ref = net.adjacency
                else:
                    assert csr_identical(ref, net.adjacency)

    @settings(deadline=None, max_examples=20)
    @given(record_lists)
    def test_pack_fields_identical(self, rows):
        """The compiled pack build yields the reference pack exactly —
        every field, every dtype — not just the same adjacency."""
        rec = slice_records(to_records(rows), T0, T1)
        if not len(rec):
            return
        ref = build_interval_pack(rec, T0, T1, backend="scipy")
        fast = build_interval_pack(rec, T0, T1, backend="masked")
        for name in (
            "places",
            "place_work",
            "place_hours",
            "col_place",
            "col_start",
            "col_weight",
            "persons",
        ):
            a, b = getattr(ref, name), getattr(fast, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name
        assert csr_identical(ref.matrix, fast.matrix)

    def test_empty_window(self):
        for backend in BACKENDS:
            net, _ = synthesize_network(
                to_records([(0, 0, 1, 5)]), N_PERSONS, 500, 600, backend=backend
            )
            assert net.adjacency.nnz == 0


class TestPyrefAgainstScipy:
    """The reference loops (jitted by numba, ported to C) pinned against
    scipy on small random inputs — interpreted, no compiled code."""

    @pytest.mark.parametrize("seed", range(4))
    def test_masked_spgemm_is_strict_upper_product(self, seed):
        rng = np.random.default_rng(seed)
        n_rows, n_cols = 12, 9
        dense = (rng.random((n_rows, n_cols)) < 0.3).astype(np.uint32)
        y = sp.csr_matrix(dense)
        y.indptr = y.indptr.astype(np.int32)
        y.indices = y.indices.astype(np.int32)
        w = rng.integers(1, 6, n_cols).astype(np.int64)
        nnz = y.nnz
        cp = np.empty(n_cols + 1, np.int64)
        ri = np.empty(max(nnz, 1), np.int32)
        qp = np.empty(max(nnz, 1), np.int64)
        pyref.csr_to_csc(n_rows, n_cols, y.indptr, y.indices, cp, ri, qp)
        acc = np.empty(n_rows, np.int64)
        mark = np.empty(n_rows, np.int32)
        touch = np.empty(n_rows, np.int32)
        cap = n_rows * n_rows
        out_r = np.empty(cap, np.int32)
        out_c = np.empty(cap, np.int32)
        out_v = np.empty(cap, np.int64)
        n = pyref.masked_spgemm(
            n_rows, y.indptr, y.indices, qp, cp, ri, w,
            acc, mark, touch, out_r, out_c, out_v, cap,
        )
        got = sp.coo_matrix(
            (out_v[:n], (out_r[:n], out_c[:n])), shape=(n_rows, n_rows)
        ).toarray()
        full = dense.astype(np.int64) @ np.diag(w) @ dense.T.astype(np.int64)
        assert np.array_equal(got, np.triu(full, k=1))

    def test_spgemm_undersized_buffer_reports_needed(self):
        y = sp.csr_matrix(np.ones((3, 1), np.uint32))
        y.indptr = y.indptr.astype(np.int32)
        y.indices = y.indices.astype(np.int32)
        cp = np.empty(2, np.int64)
        ri = np.empty(3, np.int32)
        qp = np.empty(3, np.int64)
        pyref.csr_to_csc(3, 1, y.indptr, y.indices, cp, ri, qp)
        w = np.ones(1, np.int64)
        scratch = np.empty(3, np.int64), np.empty(3, np.int32), np.empty(3, np.int32)
        tiny = np.empty(1, np.int32), np.empty(1, np.int32), np.empty(1, np.int64)
        n = pyref.masked_spgemm(
            3, y.indptr, y.indices, qp, cp, ri, w, *scratch, *tiny, 1
        )
        assert n == -3  # three upper pairs needed, capacity 1

    @pytest.mark.parametrize("seed", range(4))
    def test_accumulate_trio_matches_scipy(self, seed):
        """pack_triples → sort → keys_to_csr → fill_values equals one
        scipy COO accumulation of the same runs."""
        rng = np.random.default_rng(10 + seed)
        n_rows = 15
        runs = []
        for _ in range(3):
            n_local = int(rng.integers(2, n_rows))
            pmap = np.sort(
                rng.choice(n_rows, size=n_local, replace=False)
            ).astype(np.int64)
            cnt = int(rng.integers(0, 12))
            # rows ascending per run, like the SpGEMM emits them
            rows = np.sort(rng.integers(0, n_local, cnt)).astype(np.int32)
            cols = rng.integers(0, n_local, cnt).astype(np.int32)
            vals = rng.integers(1, 9, cnt).astype(np.int64)
            runs.append((rows, cols, vals, pmap))
        total = sum(len(r[0]) for r in runs)
        keys = np.empty(max(total, 1), np.int64)
        run_ptr = np.zeros(len(runs) + 1, np.int64)
        vals_cat = np.empty(max(total, 1), np.int64)
        base = 0
        for i, (rows, cols, vals, pmap) in enumerate(runs):
            end = base + len(rows)
            pyref.pack_triples(
                len(rows), rows, cols, pmap, 1, keys[base:end]
            )
            vals_cat[base:end] = vals
            run_ptr[i + 1] = end
            base = end
        keys_sorted = np.sort(keys[:total])
        indptr = np.empty(n_rows + 1, np.int32)
        cols_out = np.empty(max(total, 1), np.int32)
        nnz = pyref.keys_to_csr(keys_sorted, total, n_rows, indptr, cols_out)
        acc = np.empty(n_rows, np.int64)
        mark = np.empty(n_rows, np.int32)
        cursor = np.empty(len(runs), np.int64)
        vals_out = np.empty(max(total, 1), np.int64)
        pyref.fill_values(
            len(runs), run_ptr, keys[:total], vals_cat[:total], n_rows,
            indptr, cols_out, acc, mark, cursor, vals_out,
        )
        got = sp.csr_matrix(
            (vals_out[:nnz], cols_out[:nnz], indptr), shape=(n_rows, n_rows)
        )
        parts = [
            sp.coo_matrix(
                (vals, (pmap[rows], pmap[cols])), shape=(n_rows, n_rows)
            )
            for rows, cols, vals, pmap in runs
        ]
        want = (
            sp.coo_matrix(
                (
                    np.concatenate([p.data for p in parts]),
                    (
                        np.concatenate([p.row for p in parts]),
                        np.concatenate([p.col for p in parts]),
                    ),
                ),
                shape=(n_rows, n_rows),
            ).tocsr()
            if total
            else sp.csr_matrix((n_rows, n_rows), dtype=np.int64)
        )
        assert np.array_equal(got.toarray(), want.toarray())

    def test_pack_triples_identity_map(self):
        rows = np.array([0, 2], np.int32)
        cols = np.array([1, 3], np.int32)
        keys = np.empty(2, np.int64)
        pyref.pack_triples(2, rows, cols, np.empty(0, np.int64), 0, keys)
        assert list(keys) == [(0 << 32) | 1, (2 << 32) | 3]


class TestBackendResolution:
    def test_check_backend_rejects_unknown(self):
        with pytest.raises(SynthesisError):
            check_backend("cuda")

    def test_resolve_concrete_passthrough(self):
        assert resolve_backend("scipy") == "scipy"
        assert resolve_backend("masked") == "masked"
        assert resolve_backend(None) in BACKENDS
        assert resolve_backend("auto") in BACKENDS

    def test_numpy_forcing_disables_compiled_impl(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL_IMPL", "numpy")
        assert compiled_impl() is None
        # auto therefore falls back to the reference backend
        assert resolve_backend("auto") == "scipy"
        # an explicit masked request still runs (degrading internally)
        net, report = synthesize_network(
            to_records([(0, 0, 12, 5), (1, 0, 12, 5)]),
            N_PERSONS, T0, T1, backend="masked",
        )
        assert report.backend == "masked"
        assert net.adjacency.nnz == 1

    @pytest.mark.parametrize(
        "value, disabled",
        [("", False), ("0", False), (" 0 ", False), ("1", True), ("yes", True)],
    )
    def test_no_cc_reads_zero_as_off(self, monkeypatch, value, disabled):
        """``REPRO_NO_CC=0`` (as CI's compiled legs set it) must leave the
        C build on; only a truthy value switches it off."""
        monkeypatch.setattr(cext, "_lib", None)
        monkeypatch.setattr(cext, "_error", None)
        # stops the load right after the switch, so nothing is compiled
        monkeypatch.setattr(cext, "_find_cc", lambda: None)
        monkeypatch.setenv("REPRO_NO_CC", value)
        assert cext.load_cext() is None
        want = "disabled by REPRO_NO_CC" if disabled else "no C compiler on PATH"
        assert cext.cext_error() == want

    def test_backend_info_shape(self):
        info = backend_info()
        assert info["default"] in BACKENDS
        assert info["compiled_impl"] in ("cext", "numba", None)


class TestWorkspacePooling:
    def test_take_reuses_buffers(self):
        ws = get_workspace()
        ws.clear()
        a = ws.take("t_pool", 100, np.int64)
        grows = ws.grows
        b = ws.take("t_pool", 80, np.int64)
        assert b.base is a.base  # same backing buffer, no allocation
        assert ws.grows == grows
        c = ws.take("t_pool", 10_000, np.int64)
        assert len(c) == 10_000 and ws.grows == grows + 1
        ws.clear()

    def test_take_is_per_name_and_dtype(self):
        ws = get_workspace()
        ws.clear()
        a = ws.take("t_a", 64, np.int64)
        b = ws.take("t_b", 64, np.int32)
        assert a.base is not b.base
        # dtype change on one name reallocates rather than aliasing
        c = ws.take("t_a", 64, np.int32)
        assert c.dtype == np.int32
        ws.clear()

    def test_steady_state_synthesis_stops_allocating(self):
        """Second identical run through the masked path must be all pool
        hits — the preallocated-workspace claim, asserted."""
        if compiled_impl() is None:
            pytest.skip("no compiled implementation available")
        rng = np.random.default_rng(5)
        rows = [
            (int(rng.integers(0, N_PERSONS)), int(rng.integers(0, 6)),
             int(rng.integers(0, 40)), int(rng.integers(1, 10)))
            for _ in range(200)
        ]
        rec = to_records(rows)
        ws = get_workspace()
        synthesize_network(rec, N_PERSONS, T0, T1, backend="masked")
        grows = ws.grows
        synthesize_network(rec, N_PERSONS, T0, T1, backend="masked")
        assert ws.grows == grows


@pytest.mark.skipif(not cext_available(), reason="no C compiler / cext")
class TestCompiledGuards:
    """The compiled pack build must decline — not corrupt — inputs the
    reference semantics reserve."""

    def _cols(self, rec, t0=T0, t1=T1):
        rec = clip_records(rec, t0, t1)
        return (
            rec["start"].astype(np.int64),
            rec["stop"].astype(np.int64),
            rec["person"].astype(np.int64),
            rec["place"].astype(np.int64),
        )

    def test_zero_length_record_falls_back(self):
        from repro.core.kernels.masked import build_pack_arrays

        start = np.array([5, 7], np.int64)
        stop = np.array([5, 9], np.int64)  # first record covers nothing
        person = np.array([1, 2], np.int64)
        place = np.array([0, 0], np.int64)
        assert build_pack_arrays(start, stop, person, place, 0, 24) is None

    def test_negative_place_falls_back(self):
        from repro.core.kernels.masked import build_pack_arrays

        start = np.array([1], np.int64)
        stop = np.array([3], np.int64)
        person = np.array([1], np.int64)
        place = np.array([-1], np.int64)
        assert build_pack_arrays(start, stop, person, place, 0, 24) is None

    def test_huge_person_id_falls_back(self):
        from repro.core.kernels.masked import build_pack_arrays

        start = np.array([1], np.int64)
        stop = np.array([3], np.int64)
        person = np.array([2**32], np.int64)
        place = np.array([0], np.int64)
        assert build_pack_arrays(start, stop, person, place, 0, 24) is None

    def test_build_matches_reference_on_tricky_window(self):
        from repro.core.kernels.masked import build_pack_arrays

        rng = np.random.default_rng(9)
        rows = [
            (int(rng.integers(0, N_PERSONS)), int(rng.integers(0, 8)),
             int(rng.integers(0, 70)), int(rng.integers(1, 25)))
            for _ in range(300)
        ]
        rec = slice_records(to_records(rows), T0, T1)
        fields = build_pack_arrays(*self._cols(rec), T0, T1)
        assert fields is not None
        ref = build_interval_pack(rec, T0, T1, backend="scipy")
        for name in ("places", "col_place", "col_start", "col_weight", "persons"):
            assert np.array_equal(fields[name], getattr(ref, name)), name
        assert csr_identical(fields["matrix"], ref.matrix)

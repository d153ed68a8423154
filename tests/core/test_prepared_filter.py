"""Prepared polar-filter operators: bit-identity pins and a work-count guard.

The filter backends do their set-up once (kernels, transfer matrices,
assignment move lists, per-rank index state) and every later application
is data movement and arithmetic only.  These tests pin that the prepared
path computes *the same bits* as the per-application path it replaced,
at the same virtual cost and with the same spans, and that a second
application really does no set-up work.
"""

import functools
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    EXTENDED_BACKENDS,
    FilterAssignment,
    apply_serial_filter,
    make_filter_plan,
    prepare_filter_backend,
)
from repro.core.convolution import circulant_matrix, circulant_rows
from repro.core.spectral import strong_filter, weak_filter
from repro.grid import Decomposition, SphericalGrid
from repro.obs import Observer
from repro.parallel import GENERIC, PARAGON, ProcessorMesh, Simulator


# ----------------------------------------------------------------------
# (a) circulant_rows == the legacy index construction, bit for bit
# ----------------------------------------------------------------------

def legacy_index_construction(kernel: np.ndarray) -> np.ndarray:
    """The operator build the backends used before ``circulant_rows``: an
    N x N int64 index, a modulo and a gather.  Kept only as the oracle."""
    n = kernel.shape[0]
    idx = (np.arange(n)[:, None] - np.arange(n)[None, :]) % n
    return kernel[idx]


@pytest.mark.parametrize("n", [1, 2, 5, 8, 9, 12])
def test_circulant_rows_matches_legacy_for_every_block(n):
    kernel = np.random.default_rng(n).standard_normal(n)
    legacy = legacy_index_construction(kernel)
    doubled = np.concatenate((kernel[::-1], kernel[::-1]))
    doubled.flags.writeable = False  # as the memoised vectors are
    for lo in range(n):
        for hi in range(lo + 1, n + 1):
            rows = circulant_rows(kernel, lo, hi)
            assert rows.shape == (hi - lo, n)
            assert rows.flags.c_contiguous
            assert rows.tobytes() == legacy[lo:hi].tobytes(), (n, lo, hi)
            given = circulant_rows(kernel, lo, hi, doubled)
            assert given.flags.c_contiguous and given.flags.writeable
            assert given.tobytes() == rows.tobytes(), (n, lo, hi)
    full = circulant_matrix(kernel)
    assert full.flags.c_contiguous
    assert full.tobytes() == legacy.tobytes()


def test_circulant_rows_is_a_fresh_writable_block():
    kernel = np.arange(6.0)
    rows = circulant_rows(kernel, 1, 4)
    rows[...] = -1.0  # must not write through to the kernel
    np.testing.assert_array_equal(kernel, np.arange(6.0))


@pytest.mark.parametrize("lo, hi", [(-1, 3), (2, 2), (3, 2), (0, 7)])
def test_circulant_rows_rejects_bad_bounds(lo, hi):
    with pytest.raises(ValueError):
        circulant_rows(np.arange(6.0), lo, hi)


def test_product_is_bit_identical_at_paper_size():
    """What the ring backend computes: its longitude block of rows times
    the assembled lines (a strided column view of the packed array)."""
    rng = np.random.default_rng(144)
    kernel = rng.standard_normal(144)
    lines = rng.standard_normal((144, 29))[:, 9:18]
    legacy = legacy_index_construction(kernel)[np.arange(36, 72)] @ lines
    assert (circulant_rows(kernel, 36, 72) @ lines).tobytes() == legacy.tobytes()


# ----------------------------------------------------------------------
# (b) gathered filtered fields: sha256 recorded at the parent commit
# ----------------------------------------------------------------------

def _numeric_platform_digest() -> str:
    """A digest of the two library kernels the backends rest on (BLAS
    matmul and pocketfft), on fixed inputs and through no repo code.
    The field digests below are only comparable where this one agrees
    with the machine they were recorded on."""
    rng = np.random.default_rng(2026)
    a = rng.standard_normal((8, 32))
    x = rng.standard_normal((32, 7))
    spec = np.fft.rfft(x, axis=0) * rng.standard_normal((17, 1))
    h = hashlib.sha256()
    h.update((a @ x).tobytes())
    h.update(np.fft.irfft(spec, n=32, axis=0).tobytes())
    return h.hexdigest()


#: Recorded at commit 4c2cf82 (the parent of the prepared-operator
#: change), numpy 2.4.6 + OpenBLAS 0.3.31, as the sha256 of this file's
#: ``_filtered_bytes`` there.
RECORDED_PLATFORM = (
    "81045f9eb10a12646418a7ec7dc920be4e5e6ae70a13a47cf853dcbd1d842f03"
)
_CONVOLUTION = "c885d020a4c1e1c95cd2a7ffdb7740020e5a58eb1b29e68d8a37b379db1b5585"
_TRANSPOSE_FFT = "85689330c22aec986471d71f3597994eea439d7c05a5c295216a6055df6a5023"
_DISTRIBUTED_FFT = "beed02bbfe92f780131ea2d7819050cfedb0ee280c783a7c3b1afa47a5e76926"
#: The parent's bits do not depend on the mesh, and the ring and the tree
#: (and the plain and the balanced transpose FFT) agree to the last bit.
RECORDED_DIGESTS = {
    "convolution-ring": _CONVOLUTION,
    "convolution-tree": _CONVOLUTION,
    "fft": _TRANSPOSE_FFT,
    "fft-lb": _TRANSPOSE_FFT,
    "fft-distributed": _DISTRIBUTED_FFT,
}


_FIELD_GRID = SphericalGrid(nlat=16, nlon=32)


def _input_fields():
    rng = np.random.default_rng(11)
    fields = {
        n: rng.standard_normal((_FIELD_GRID.nlat, _FIELD_GRID.nlon, 3))
        for n in ("u", "v", "pt", "q")
    }
    fields["ps"] = rng.standard_normal((_FIELD_GRID.nlat, _FIELD_GRID.nlon, 1))
    return fields


def _random_fields(grid, nlayers, seed):
    rng = np.random.default_rng(seed)
    return {
        n: rng.standard_normal((grid.nlat, grid.nlon, nlayers))
        for n in ("u", "v", "pt", "q", "ps")
    }


def _field_bytes(applications) -> bytes:
    """The fields after each application, variables in name order."""
    return b"".join(
        np.ascontiguousarray(fields[n]).tobytes()
        for fields in applications for n in sorted(fields)
    )


def _two_applications(backend_name, mesh_dims, machine=GENERIC, observer=None):
    """Two barrier-separated applications of one prepared backend (the
    second runs entirely on prepared state): the run, its decomposition
    and the backend."""
    grid, fields = _FIELD_GRID, _input_fields()
    mesh = ProcessorMesh(*mesh_dims)
    decomp = Decomposition(grid.nlat, grid.nlon, mesh)
    backend = prepare_filter_backend(backend_name, make_filter_plan(grid), decomp)

    def program(ctx):
        local = {n: decomp.scatter(fields[n])[ctx.rank].copy() for n in fields}
        yield from backend.apply(ctx, local)
        once = {n: a.copy() for n, a in local.items()}
        yield from ctx.barrier()
        yield from backend.apply(ctx, local)
        return once, local

    res = Simulator(mesh.size, machine, observer=observer).run(program)
    return res, decomp, backend


@functools.lru_cache(maxsize=None)
def _filtered_bytes(backend_name: str, mesh_dims) -> bytes:
    """Every gathered field after one and after two applications."""
    fields = _input_fields()
    res, decomp, _ = _two_applications(backend_name, mesh_dims)
    applications = [
        {
            n: decomp.gather([ret[k][n] for ret in res.returns])
            for n in fields
        }
        for k in (0, 1)
    ]
    for gathered in applications:
        for n in fields:
            assert not np.array_equal(gathered[n], fields[n])  # it did filter
    return _field_bytes(applications)


MESHES = pytest.mark.parametrize("mesh_dims", [(2, 4), (4, 4)], ids=["2x4", "4x4"])


@MESHES
@pytest.mark.parametrize("backend_name", EXTENDED_BACKENDS)
def test_filtered_fields_unchanged_since_parent(backend_name, mesh_dims):
    if _numeric_platform_digest() != RECORDED_PLATFORM:
        pytest.skip("BLAS/FFT build differs from the one the digests were "
                    "recorded on; float bit patterns are not comparable")
    assert (
        hashlib.sha256(_filtered_bytes(backend_name, mesh_dims)).hexdigest()
        == RECORDED_DIGESTS[backend_name]
    )


# The same guard without a recorded platform: exact relations between the
# backends that held at the parent and run wherever the suite does.

@MESHES
def test_ring_and_tree_agree_to_the_last_bit(mesh_dims):
    assert (
        _filtered_bytes("convolution-ring", mesh_dims)
        == _filtered_bytes("convolution-tree", mesh_dims)
    )


@MESHES
def test_balanced_transpose_fft_agrees_with_plain_to_the_last_bit(mesh_dims):
    assert _filtered_bytes("fft", mesh_dims) == _filtered_bytes("fft-lb", mesh_dims)


@MESHES
def test_parallel_fft_agrees_with_serial_to_the_last_bit(mesh_dims):
    plan, fields = make_filter_plan(_FIELD_GRID), _input_fields()
    applications = []
    for _ in range(2):
        apply_serial_filter(plan, fields, method="fft")  # fft_filter_rows
        applications.append({n: a.copy() for n, a in fields.items()})
    assert _filtered_bytes("fft", mesh_dims) == _field_bytes(applications)


# ----------------------------------------------------------------------
# (c) virtual cost and spans: recorded at the parent of the one-pipeline
#     change (commit c7b1b67), before the filter was touched
# ----------------------------------------------------------------------

def _cost_digest(res) -> str:
    """The ``_digest`` recipe of tests/parallel/test_engine_frozen.py:
    per-rank clocks, the busy/wait accounting floats, message and byte
    counts — priced from shapes and counts, so platform-independent."""
    acc = res.trace.ranks
    h = hashlib.sha256()
    h.update(np.array(res.clocks, dtype=np.float64).tobytes())
    for name in ("send_busy_time", "recv_busy_time", "recv_wait_time"):
        h.update(
            np.array([getattr(a, name) for a in acc], dtype=np.float64).tobytes()
        )
    h.update(np.array(
        [[a.messages_sent, a.messages_received, a.bytes_sent, a.bytes_received]
         for a in acc],
        dtype=np.int64,
    ).tobytes())
    return h.hexdigest()


RECORDED_COSTS = {
    ("convolution-ring", (2, 4)):
        "04457284b560900f1139a855b6e2b3132cc8bc2d3499aca4a6f92868a05180a4",
    ("convolution-ring", (4, 4)):
        "30443217294ce3a2e599a99584b3f7e8f4e3afeeac6cdcde5b2a21a323c05e42",
    ("convolution-tree", (2, 4)):
        "91dc645ae7a9cc17791297c9e24afea9a3ef1af42cf6e6ab13ef5fba2025e32c",
    ("convolution-tree", (4, 4)):
        "c7fe650a41a30201fe7278761e86aa1f99899a6f4c8972cca22a23ad78aa90aa",
    ("fft", (2, 4)):
        "9e6f47dd977b3a95bfbb0eb034adc92cd3319d249a478dafae9a83f717064a1b",
    ("fft", (4, 4)):
        "76a67ded5f8cfd0ecdbc199e94343f2c2b31760ac34aaaa399110c1a2925f118",
    ("fft-lb", (2, 4)):
        "a3e34ab6170aa04c224b5ac4b91e7eb6feb729eb0c9f521e677c79d9682498dc",
    ("fft-lb", (4, 4)):
        "2f0d8b90677b552ad4b40865dfcbe7bded904e67a0d65804f5c137d3d756f028",
    ("fft-distributed", (2, 4)):
        "c0801289e8cd71332654637c0adff4e5ce2776cd15b3a252e2d8249b0983d52d",
    ("fft-distributed", (4, 4)):
        "a0906109e7960c825d5e283d5442e3e919fca3b3334756e6952e5d373da8ef49",
}


@MESHES
@pytest.mark.parametrize("backend_name", EXTENDED_BACKENDS)
def test_virtual_cost_unchanged_since_parent(backend_name, mesh_dims):
    res, _, _ = _two_applications(backend_name, mesh_dims, PARAGON)
    assert _cost_digest(res) == RECORDED_COSTS[backend_name, mesh_dims]


RECORDED_FILTER_SPANS = (
    "f650b852ef35fe6d832a42a926fd31320b8b7696840b63be4677e2c6e86d2680"
)


def test_filter_spans_unchanged_since_parent():
    """Every ``filter.*`` span of a traced ``fft-lb`` 4 x 4 run, as a
    multiset of (rank, name, begin, end).  The parent also opened a
    zero-length ``filter.redistribute`` on a rank that neither ships nor
    receives a stage-A segment; that one may be absent."""
    obs = Observer()
    _, decomp, backend = _two_applications("fft-lb", (4, 4), PARAGON, obs)
    moving_rows = {
        row for src, dst, _ in backend.assignment.stage_a_moves()
        for row in (src, dst)
    }
    spans = sorted(
        (s.rank, s.name, s.start.hex(), s.end.hex())
        for s in obs.spans
        if s.name.startswith("filter.") and not (
            s.name == "filter.redistribute" and s.start == s.end
            and decomp.mesh.coords_of(s.rank)[0] not in moving_rows
        )
    )
    assert {name for _, name, _, _ in spans} == {
        "filter.redistribute", "filter.transpose", "filter.fft"
    }
    assert (
        hashlib.sha256(repr(spans).encode()).hexdigest() == RECORDED_FILTER_SPANS
    )


# ----------------------------------------------------------------------
# (d) cached vectors are read-only
# ----------------------------------------------------------------------

@pytest.mark.parametrize("make", [strong_filter, weak_filter])
def test_cached_filter_vectors_are_read_only(make, small_grid):
    f = make(small_grid)
    j = int(f.latitude_indices()[0])
    reversed_kernel = f.kernel(j)[::-1]
    assert f.doubled_kernel(j).tobytes() == np.concatenate(
        (reversed_kernel, reversed_kernel)).tobytes()
    for vector in (f.kernel(j), f.transfer(j), f.doubled_kernel(j)):
        before = vector.copy()
        with pytest.raises(ValueError, match="read-only"):
            vector[0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            vector *= 2.0
        np.testing.assert_array_equal(vector, before)
    assert f.kernel(j) is f.kernel(j)  # memoised, not rebuilt
    assert f.doubled_kernel(j) is f.doubled_kernel(j)
    assert isinstance(f.damped_bin_count(j), int)


# ----------------------------------------------------------------------
# count-based regression guard: the second application does no set-up
# ----------------------------------------------------------------------

@pytest.mark.parametrize(
    "backend_name", ["convolution-ring", "convolution-tree", "fft-lb"]
)
def test_second_application_does_no_setup_work(backend_name, monkeypatch):
    grid = SphericalGrid(nlat=18, nlon=24)
    mesh = ProcessorMesh(3, 4)
    decomp = Decomposition(grid.nlat, grid.nlon, mesh)
    backend = prepare_filter_backend(backend_name, make_filter_plan(grid), decomp)
    fields = _random_fields(grid, nlayers=2, seed=5)

    counts = {"irfft": 0, "stage_a_moves": 0, "units_assigned_to_row": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(np.fft, "irfft", counted("irfft", np.fft.irfft))
    for name in ("stage_a_moves", "units_assigned_to_row"):
        monkeypatch.setattr(
            FilterAssignment, name, counted(name, getattr(FilterAssignment, name))
        )

    def program(ctx):
        local = {n: decomp.scatter(fields[n])[ctx.rank].copy() for n in fields}
        yield from backend.apply(ctx, local)

    sim = Simulator(mesh.size, GENERIC)
    sim.run(program)
    first = dict(counts)
    sim.run(program)
    second = {k: counts[k] - first[k] for k in counts}

    assert second["stage_a_moves"] == 0
    assert second["units_assigned_to_row"] == 0
    if backend_name == "fft-lb":
        # The filtering itself: one stacked inverse transform per rank
        # that holds lines — never one per unit, never a kernel build.
        ranks_with_lines = int((backend.assignment.lines_per_rank() > 0).sum())
        assert 0 < second["irfft"] == ranks_with_lines
    else:
        assert second["irfft"] == 0


def test_packings_are_built_once_per_processor_row(monkeypatch):
    """A host-independent work count, for every backend: what the filter
    knows about a processor row (the units it keeps, each stage-A move it
    ships, all it holds when arrivals come in) is packed once per row,
    not once per rank of the row; the transposes read a rank's lines as
    a slice of the row's and add no packing of their own."""
    from repro.core.parallel_filter import _Packing

    grid = SphericalGrid(nlat=32, nlon=64)
    mesh = ProcessorMesh(4, 8)
    decomp = Decomposition(grid.nlat, grid.nlon, mesh)
    plan = make_filter_plan(grid)
    fields = _random_fields(grid, nlayers=2, seed=7)
    rows = mesh.nlat_procs

    built = {}
    init = _Packing.__init__

    def counted(self, plan, units, layers, lat0=None, **kwargs):
        kind = "foreign" if lat0 is None else "owned"
        built[kind] = built.get(kind, 0) + 1
        init(self, plan, units, layers, lat0, **kwargs)

    monkeypatch.setattr(_Packing, "__init__", counted)

    for backend_name in EXTENDED_BACKENDS:
        backend = prepare_filter_backend(backend_name, plan, decomp)
        built.clear()

        def program(ctx):
            local = {n: decomp.scatter(fields[n])[ctx.rank].copy() for n in fields}
            yield from backend.apply(ctx, local)
            yield from ctx.barrier()
            yield from backend.apply(ctx, local)

        Simulator(mesh.size, GENERIC).run(program)
        moves = backend.assignment.stage_a_moves()
        # Only the balancer ships units between rows.
        assert bool(moves) == (backend_name == "fft-lb")
        # Owned: the row's kept units, and each move at its source row.
        assert 0 < built["owned"] <= rows + len(moves), backend_name
        # In all: also what a row that takes in a move holds.
        assert sum(built.values()) <= rows + 2 * len(moves), backend_name


@pytest.mark.parametrize("backend_name", ["convolution-ring", "convolution-tree"])
def test_one_circulant_block_per_filter_and_latitude(backend_name, monkeypatch):
    """Units of one (filter, latitude) share a kernel: an application
    builds one block per distinct pair of the row on each rank that
    convolves (every rank of the ring, the row leader of the tree), not
    one per unit."""
    from repro.core import parallel_filter

    grid = SphericalGrid(nlat=32, nlon=64)
    mesh = ProcessorMesh(4, 8)
    decomp = Decomposition(grid.nlat, grid.nlon, mesh)
    backend = prepare_filter_backend(backend_name, make_filter_plan(grid), decomp)
    fields = _random_fields(grid, nlayers=2, seed=3)

    calls = []
    real = parallel_filter.circulant_rows

    def counted(kernel, lo, hi, doubled=None):
        calls.append((lo, hi))
        return real(kernel, lo, hi, doubled)

    monkeypatch.setattr(parallel_filter, "circulant_rows", counted)

    def program(ctx):
        local = {n: decomp.scatter(fields[n])[ctx.rank].copy() for n in fields}
        yield from backend.apply(ctx, local)
        yield from ctx.barrier()
        yield from backend.apply(ctx, local)

    Simulator(mesh.size, GENERIC).run(program)
    ranks_convolving = 1 if backend_name == "convolution-tree" else mesh.nlon_procs
    keys = units = 0
    for row in backend._rows.values():
        keys += ranks_convolving * len(set(row.held.filters))
        units += ranks_convolving * len(row.held.units)
    assert 0 < keys < units
    assert len(calls) == 2 * keys


@pytest.mark.parametrize(
    "mesh_dims", [(2, 4), (4, 4), (4, 8), (8, 8), (6, 4)],
    ids=lambda d: "x".join(map(str, d)),
)
def test_a_natural_assignment_packs_one_run_per_variable(mesh_dims):
    """Plan order puts each variable's latitude rows side by side, so the
    units a processor row owns are at most one strided copy per
    filtered variable (no processor row here straddles the equator)."""
    from repro.core.parallel_filter import _RowState

    grid = SphericalGrid(nlat=90, nlon=144)
    mesh = ProcessorMesh(*mesh_dims)
    decomp = Decomposition(grid.nlat, grid.nlon, mesh)
    plan = make_filter_plan(grid)
    backend = prepare_filter_backend("fft", plan, decomp)
    layers = {"u": 9, "v": 9, "pt": 9, "q": 9, "ps": 1}
    n_vars = len(plan.strong_vars) + len(plan.weak_vars)
    for i_row in range(mesh.nlat_procs):
        row = _RowState(backend, i_row, layers)
        assert row.held is row.own
        assert len(row.own.runs) <= n_vars, (i_row, row.own.runs)
        assert sum(r1 - r0 for _, r0, r1, _, _ in row.own.runs) == len(
            row.own.units)


@settings(max_examples=40, deadline=None)
@given(
    nlat_procs=st.integers(1, 4),
    nlon_procs=st.integers(1, 4),
    nlat=st.integers(12, 40),
    nlon=st.integers(8, 24),
    nlayers=st.integers(1, 4),
    ps_layers=st.integers(1, 2),
    balanced=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_store_of_pack_restores_the_fields_byte_for_byte(
    nlat_procs, nlon_procs, nlat, nlon, nlayers, ps_layers, balanced, seed
):
    """Every rank packs what its row keeps and ships through stage A, and
    storing those arrays back into fields of NaN restores exactly the
    filtered rows it owns, and writes nothing else."""
    from repro.core.parallel_filter import _RowState

    grid = SphericalGrid(nlat=nlat, nlon=nlon)
    mesh = ProcessorMesh(nlat_procs, nlon_procs)
    decomp = Decomposition(grid.nlat, grid.nlon, mesh)
    plan = make_filter_plan(grid)
    backend = prepare_filter_backend(
        "fft-lb" if balanced else "fft", plan, decomp)
    rng = np.random.default_rng(seed)
    layers = {n: nlayers for n in ("u", "v", "pt", "q")}
    layers["ps"] = ps_layers
    fields = {
        n: rng.standard_normal((grid.nlat, grid.nlon, k))
        for n, k in layers.items()
    }
    owner = backend.assignment.owner_row
    for i_row in range(mesh.nlat_procs):
        row = _RowState(backend, i_row, layers)
        lat0, _ = decomp.lat_bounds_of_proc_row(i_row)
        owned = {
            (u.var, u.lat - lat0)
            for k, u in enumerate(plan.units) if owner[k] == i_row
        }
        for rank in row.ranks:
            local = {n: decomp.scatter(fields[n])[rank] for n in fields}
            nlon_loc = decomp.subdomain(rank).nlon
            packings = [row.own] + [p for _, p in row.outgoing]
            packed = [p.pack(local, nlon_loc) for p in packings]
            restored = {n: np.full_like(a, np.nan) for n, a in local.items()}
            for p, arr in zip(packings, packed):
                p.store(restored, arr)
            for n, arr in local.items():
                for r in range(arr.shape[0]):
                    if (n, r) in owned:
                        assert restored[n][r].tobytes() == arr[r].tobytes()
                    else:
                        assert np.isnan(restored[n][r]).all()


def test_backend_reused_across_runs_filters_like_fresh_ones():
    """The prepared state (per row and per rank) outlives a simulator
    run; a second run through it must not see anything of the first."""
    grid = SphericalGrid(nlat=16, nlon=32)
    mesh = ProcessorMesh(2, 4)
    decomp = Decomposition(grid.nlat, grid.nlon, mesh)
    plan = make_filter_plan(grid)

    def gathered(backend, fields):
        def program(ctx):
            local = {n: decomp.scatter(fields[n])[ctx.rank].copy() for n in fields}
            yield from backend.apply(ctx, local)
            return local

        res = Simulator(mesh.size, GENERIC).run(program)
        return {
            n: decomp.gather([res.returns[r][n] for r in range(mesh.size)])
            for n in fields
        }

    for name in ("fft", "fft-lb"):
        reused = prepare_filter_backend(name, plan, decomp)
        for seed in (1, 2):
            fields = _random_fields(grid, nlayers=3, seed=seed)
            fresh = prepare_filter_backend(name, plan, decomp)
            assert _field_bytes([gathered(reused, fields)]) == _field_bytes(
                [gathered(fresh, fields)]
            )


def test_foreign_packing_cannot_address_local_rows():
    """A packing of units held elsewhere knows their wire offsets only."""
    from repro.core.parallel_filter import _Packing

    plan = make_filter_plan(SphericalGrid(nlat=16, nlon=32))
    layers = {n: 3 for n in ("u", "v", "pt", "q", "ps")}
    foreign = _Packing(plan, [0, 1], layers)
    assert foreign.runs is None and foreign.width == 6
    with pytest.raises(TypeError):
        foreign.pack({}, 8)
    with pytest.raises(TypeError):
        foreign.store({}, np.zeros((8, 6)))

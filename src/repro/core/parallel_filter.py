"""Parallel polar-filter drivers: the four configurations the paper times.

Tables 8-11 compare three filtering implementations (plus the implicit
serial case):

* ``convolution-ring``  — the original eq.-2 convolution with full lines
  assembled by a ring allgather around each processor row;
* ``convolution-tree``  — the eq.-2 convolution with lines gathered to a
  row leader through a binomial ("binary") tree and segments scattered
  back;
* ``fft``               — transpose-based FFT filtering *without* load
  balancing (:func:`~repro.core.balance_plan.natural_assignment`): whole
  lines are assembled by an all-to-all within each processor row, but
  only the high-latitude rows have any lines;
* ``fft-lb``            — the paper's contribution: the same transpose
  FFT behind the generic row-redistribution balancer
  (:func:`~repro.core.balance_plan.balanced_assignment`), so every rank
  FFTs ~``sum_j R_j / P`` lines.

Every driver is a generator to be run inside a rank program.  They move
*real* array data (results are asserted identical to the serial filters in
the test suite) and charge the machine model for every message and flop,
so the virtual timings reproduce the paper's comparisons structurally.

Wire format: a group of row-unit segments is concatenated along the layer
axis into one ``(nlon_segment, sum_of_layers)`` array — variables with
different layer counts (``ps`` has one, the 3-D fields have K) pack into
a single message, and both endpoints derive the split offsets from the
globally known plan.  All filtered fields must be 3-D
``(nlat, nlon, nlayers)`` arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.balance_plan import (
    FilterAssignment,
    balanced_assignment,
    natural_assignment,
)
from repro.core.convolution import (
    circulant_matrix,
    circulant_rows,
    convolution_filter_rows,
)
from repro.core.distributed_fft import (
    bitrev_transfer,
    check_distributed_fft_shape,
    distributed_fft_filter_line,
)
from repro.core.fft import fft_filter_rows, fft_filter_flop_count
from repro.core.masks import FilterPlan
from repro.grid.decomposition import Decomposition2D
from repro.parallel import collectives as coll
from repro.parallel.comm import VirtualComm
from repro.parallel.events import Exchange

#: Recognised backend names, in the order the paper's tables list them.
FILTER_BACKENDS = ("convolution-ring", "convolution-tree", "fft", "fft-lb")

#: FILTER_BACKENDS plus the distributed 1-D FFT — the alternative the
#: paper rejected in Section 3.2.  It requires power-of-two line lengths
#: and ranks per row, so it is not part of the default set.
EXTENDED_BACKENDS = FILTER_BACKENDS + ("fft-distributed",)

_TAG_STAGE_A = 0x00BB0001
_TAG_STAGE_A_BACK = 0x00BB0002


def _staged_exchange(sends, recvs) -> Exchange:
    """One Exchange for an *all-sends-then-all-recvs* schedule.

    Stage A of the transpose filter posts every outgoing segment before
    draining the incoming ones; the rounds are padded with ``None`` so
    the wire order is exactly that: the received payloads sit in
    ``result()[len(sends):]``.
    """
    return Exchange(
        sends=tuple(sends) + (None,) * len(recvs),
        recvs=(None,) * len(sends) + tuple(recvs),
    )


@dataclass
class FilterBackend:
    """A prepared filtering configuration for one decomposition.

    Mirrors the paper's one-time set-up step, in two parts:

    * :func:`prepare_filter_backend` does what depends on ``(plan,
      decomp)`` alone: it validates the shape and builds the
      :class:`FilterAssignment`, whose move lists and per-column line
      lists are computed once, on first use.
    * the first :meth:`apply` on a rank does what also depends on the rank
      and on the layer count of each filtered variable, which only the
      fields reveal: the units it owns, sends, receives and filters, their
      offsets in every packed message, the flop charge, the row group, and
      the prescribed coefficients (convolution kernels, or one stacked
      transfer matrix) — vectors from the memoised per-latitude arrays of
      :mod:`repro.core.spectral`, never N x N operators.  Of this, what
      the transpose backends need is the same on every rank of a
      processor row — which units the row keeps, ships and takes in, and
      the lines each of its columns holds: the first rank of a row to
      apply builds that once (:class:`_RowState`) and the others of the
      row read it.

    Every later ``apply`` is data movement and arithmetic.  The state is
    rebuilt only if a rank's layer counts change.  It lives and dies with
    the backend and holds nothing of a simulator run (no ``ctx``, trace or
    group communicator), so one backend may be applied in run after run.
    """

    name: str
    plan: FilterPlan
    decomp: Decomposition2D
    assignment: Optional[FilterAssignment]  # None for convolution backends
    _ranks: Dict[int, "_RankState"] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _rows: Dict[int, "_RowState"] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def apply(self, ctx: VirtualComm, local_fields: Dict[str, np.ndarray]):
        """Generator: filter the local fields in place on this rank."""
        layers = _layers_of(local_fields)
        state = self._ranks.get(ctx.rank)
        if state is None or state.layers != layers:
            state = self._ranks[ctx.rank] = _RankState(self, ctx.rank, layers)
        if self.name == "convolution-ring":
            yield from filter_convolution_ring(ctx, state, local_fields)
        elif self.name == "convolution-tree":
            yield from filter_convolution_tree(ctx, state, local_fields)
        elif self.name in ("fft", "fft-lb"):
            yield from filter_fft_transpose(ctx, state, local_fields)
        elif self.name == "fft-distributed":
            yield from filter_fft_distributed(ctx, state, local_fields)
        else:  # pragma: no cover - prepare_filter_backend validates
            raise ValueError(f"unknown backend {self.name!r}")

    def _row_state(self, i_row: int, layers: Dict[str, int]) -> "_RowState":
        """The transpose state of processor row ``i_row``, built once."""
        row = self._rows.get(i_row)
        if row is None or row.layers != layers:
            row = self._rows[i_row] = _RowState(self, i_row, layers)
        return row


def prepare_filter_backend(
    name: str, plan: FilterPlan, decomp: Decomposition2D
) -> FilterBackend:
    """Build the per-run setup state for a named filter backend."""
    if name not in EXTENDED_BACKENDS:
        raise ValueError(
            f"unknown filter backend {name!r}; choose from {EXTENDED_BACKENDS}"
        )
    if name == "fft-distributed":
        check_distributed_fft_shape(decomp.nlon, decomp.mesh.nlon_procs)
    assignment: Optional[FilterAssignment] = None
    if name == "fft":
        assignment = natural_assignment(plan, decomp)
    elif name == "fft-lb":
        assignment = balanced_assignment(plan, decomp)
    return FilterBackend(name=name, plan=plan, decomp=decomp, assignment=assignment)


def apply_serial_filter(
    plan: FilterPlan, fields: Dict[str, np.ndarray], method: str = "fft"
) -> None:
    """Serial reference: filter global fields in place.

    ``method`` is ``"fft"`` or ``"convolution"``; both must (and, by the
    convolution theorem, do) give identical results — asserted in tests.
    """
    for var in plan.strong_vars:
        if var in fields:
            if method == "fft":
                fields[var][...] = fft_filter_rows(fields[var], plan.strong)
            else:
                fields[var][...] = convolution_filter_rows(fields[var], plan.strong)
    for var in plan.weak_vars:
        if var in fields:
            if method == "fft":
                fields[var][...] = fft_filter_rows(fields[var], plan.weak)
            else:
                fields[var][...] = convolution_filter_rows(fields[var], plan.weak)


# ----------------------------------------------------------------------
# prepared per-row and per-rank state: unit lists <-> wire arrays
# ----------------------------------------------------------------------

def _layers_of(local_fields: Dict[str, np.ndarray]) -> Dict[str, int]:
    """Layer count of each filtered variable (identical on every rank)."""
    out = {}
    for name, arr in local_fields.items():
        if arr.ndim != 3:
            raise ValueError(
                f"filtered field {name!r} must be 3-D (nlat, nlon, K); "
                f"got shape {arr.shape}"
            )
        out[name] = arr.shape[2]
    return out


class _Packing:
    """An ordered unit list and each unit's place in its packed wire array.

    A packing of units whose latitudes this rank holds is built with the
    rank's ``lat0`` and can also address the local field rows
    (:meth:`pack`, :meth:`store`).  One of units held elsewhere (stage-A
    arrivals, the lines of a column) has ``rows = None``, so those two
    raise instead of indexing somebody else's latitude.
    """

    def __init__(
        self, plan: FilterPlan, units: Sequence[int],
        layers: Dict[str, int], lat0: Optional[int] = None,
    ):
        self.units = tuple(units)
        #: (variable, local latitude row) of each unit; owned units only.
        self.rows = None if lat0 is None else [
            (plan.units[u].var, plan.units[u].lat - lat0) for u in self.units
        ]
        offsets = [0]
        for u in self.units:
            offsets.append(offsets[-1] + layers[plan.units[u].var])
        #: Layer-column range of each unit inside the packed array.
        self.bounds = list(zip(offsets, offsets[1:]))
        self.width = offsets[-1]

    def pack(self, local_fields: Dict[str, np.ndarray], nlon_loc: int):
        """This rank's segments side by side: ``(nlon_loc, width)``."""
        if not self.units:
            return np.empty((nlon_loc, 0))
        return np.concatenate(
            [local_fields[var][row] for var, row in self.rows], axis=1
        )

    def split(self, packed: np.ndarray) -> List[np.ndarray]:
        """Invert packing: one ``(nlon, K_var)`` view per unit."""
        return [packed[:, a:b] for a, b in self.bounds]

    def store(self, local_fields: Dict[str, np.ndarray], packed: np.ndarray):
        """Write filtered segments back into the local field rows."""
        for (var, row), (a, b) in zip(self.rows, self.bounds):
            local_fields[var][row] = packed[:, a:b]

    def collect(self, seg_store: Dict[int, np.ndarray], nlon_loc: int):
        """Like :meth:`pack`, from segments held by unit — wherever they
        came from."""
        if not self.units:
            return np.empty((nlon_loc, 0))
        return np.concatenate([seg_store[u] for u in self.units], axis=1)

    def deliver(self, seg_store: Dict[int, np.ndarray], packed: np.ndarray):
        """Invert :meth:`collect`: hold each unit's view of ``packed``."""
        seg_store.update(zip(self.units, self.split(packed)))

    def stack(self, vectors: Sequence[np.ndarray]) -> np.ndarray:
        """One coefficient vector per unit, repeated over the unit's
        layer columns: ``(len(vector), width)``."""
        out = np.empty((len(vectors[0]) if vectors else 0, self.width))
        for vec, (a, b) in zip(vectors, self.bounds):
            out[:, a:b] = vec[:, None]
        return out


class _RowState:
    """What the ranks of one processor row share under a transpose backend:
    everything that depends only on ``(plan, decomp, assignment, row)`` and
    the variables' layer counts.  Read-only once built."""

    def __init__(self, backend: FilterBackend, i_row: int, layers: Dict[str, int]):
        plan, decomp, a = backend.plan, backend.decomp, backend.assignment
        mesh = decomp.mesh
        self.layers = layers
        lat0, _ = decomp.lat_bounds_of_proc_row(i_row)

        def owned(units) -> _Packing:
            return _Packing(plan, units, layers, lat0)

        def foreign(units) -> _Packing:
            return _Packing(plan, units, layers)

        assigned = a.units_assigned_to_row(i_row)
        self.has_units = bool(assigned)
        #: Units this row both owns and keeps through stage A.
        self.own = owned(u for u in assigned if a.owner_row[u] == i_row)
        moves = a.stage_a_moves()
        #: Stage A, (peer row, units): shipped out / taken in.
        self.outgoing = [
            (dst, owned(units)) for src, dst, units in moves if src == i_row
        ]
        self.incoming = [
            (src, foreign(units)) for src, dst, units in moves if dst == i_row
        ]
        #: Stage B: the complete lines each column of the row holds.
        self.by_col = [
            foreign(a.lines_on_rank(r)) for r in mesh.row_ranks(i_row)
        ]


class _RankState:
    """What one rank's applications share: everything that depends only on
    ``(plan, decomp, assignment, rank)`` and the variables' layer counts."""

    def __init__(self, backend: FilterBackend, rank: int, layers: Dict[str, int]):
        plan, decomp = backend.plan, backend.decomp
        mesh = decomp.mesh
        self.layers = layers
        self.nlon = decomp.nlon
        self.sub = sub = decomp.subdomain(rank)
        i_row, j_col = mesh.coords_of(rank)
        self.row_ranks = tuple(mesh.row_ranks(i_row))
        self.col_bounds = [
            decomp.lon_bounds_of_proc_col(c) for c in range(mesh.nlon_procs)
        ]

        def filters_of(p: _Packing):
            """(filter, latitude) of each unit: what its coefficients are
            memoised under in :mod:`repro.core.spectral`."""
            units = [plan.units[u] for u in p.units]
            return [(plan.filter_for(ru), ru.lat) for ru in units]

        if backend.assignment is None:
            #: The units whose latitudes this rank holds.
            self.own = _Packing(
                plan,
                (u for u, ru in enumerate(plan.units)
                 if sub.lat0 <= ru.lat < sub.lat1),
                layers, sub.lat0,
            )
            if backend.name == "fft-distributed":
                # Per-layer bit-reversed transfer factors for this rank's block.
                local_n = decomp.nlon // mesh.nlon_procs
                block = slice(j_col * local_n, (j_col + 1) * local_n)
                self.transfer = self.own.stack([
                    bitrev_transfer(f.transfer(lat), decomp.nlon)[block]
                    for f, lat in filters_of(self.own)
                ])
            else:
                self.kernels = [f.kernel(lat) for f, lat in filters_of(self.own)]
                # The ring computes only its own longitude segment of each
                # output line; the tree's row leader computes whole lines.
                self.conv_flops = _convolution_segment_flops(
                    plan, self.own.units, layers,
                    sub.nlon if backend.name == "convolution-ring" else decomp.nlon,
                )
        else:
            row = backend._row_state(i_row, layers)
            self.row_has_units = row.has_units
            self.own = row.own
            #: Stage A, (peer rank, units): the row's moves, in this column.
            self.outgoing = [
                (mesh.rank_of(dst, j_col), p) for dst, p in row.outgoing
            ]
            self.incoming = [
                (mesh.rank_of(src, j_col), p) for src, p in row.incoming
            ]
            self.by_col = row.by_col
            self.lines = row.by_col[j_col]
            self.transfer = self.lines.stack(
                [f.transfer(lat) for f, lat in filters_of(self.lines)]
            )
            self.fft_flops = fft_filter_flop_count(decomp.nlon, 1, self.lines.width)


def _convolution_segment_flops(
    plan: FilterPlan,
    units: Sequence[int],
    layers: Dict[str, int],
    out_points: int,
) -> float:
    """Eq.-2 wavenumber-sum cost of convolving ``out_points`` per line.

    ``4 * out_points * M_s`` flops per layer of each unit, where ``M_s``
    is the number of damped wavenumbers at the unit's latitude (sine and
    cosine contributions, one multiply + one add each).
    """
    total = 0.0
    for u in units:
        ru = plan.units[u]
        m = plan.filter_for(ru).damped_bin_count(ru.lat)
        total += 4.0 * out_points * m * layers[ru.var]
    return total


# ----------------------------------------------------------------------
# convolution backends (the original code's algorithms)
# ----------------------------------------------------------------------

def filter_convolution_ring(
    ctx: VirtualComm, state: _RankState, local_fields: Dict[str, np.ndarray]
):
    """Eq.-2 convolution with ring allgather of line segments.

    Within each processor row, all ranks allgather their segments of every
    filtered line owned by the row (``N_procs - 1`` ring rounds, the
    paper's "communications around processor rings in the longitudinal
    direction" with no partial summation), then each rank convolves the
    full lines to produce *its own* longitude segment of the output.
    """
    own, sub = state.own, state.sub
    if not own.units:
        # Idle during filtering: the load imbalance the paper measures.
        return
    row_group = ctx.group(state.row_ranks)

    packed = own.pack(local_fields, sub.nlon)
    with ctx.span("filter.gather", units=len(own.units)):
        gathered = yield from row_group.allgather(packed)
    lines = np.concatenate(gathered, axis=0)  # (nlon, sum K)

    # Charge the AGCM's wavenumber-sum form of eq. (2): each output point
    # of a line sums over the M_s damped wavenumbers of that latitude
    # (sine and cosine components), and this rank only computes its own
    # longitude segment of each line.
    # The ring variant computes only its own (short) longitude segment of
    # each output line, so its inner loops suffer the vector-startup
    # penalty on small blocks — one of the reasons the original filter
    # scales poorly.
    with ctx.span("filter.convolve", units=len(own.units)):
        yield from ctx.compute(
            flops=state.conv_flops,
            mem_bytes=2.0 * lines.nbytes,
            inner_length=sub.nlon,
        )
    for (var, row), (a, b), kernel in zip(own.rows, own.bounds, state.kernels):
        rows = circulant_rows(kernel, sub.lon0, sub.lon1)  # (nlon_loc, nlon)
        local_fields[var][row] = rows @ lines[:, a:b]


def filter_convolution_tree(
    ctx: VirtualComm, state: _RankState, local_fields: Dict[str, np.ndarray]
):
    """Eq.-2 convolution with binomial-tree gather to a row leader.

    Segments funnel up a binary tree to column 0 of each processor row
    (``O(2P)`` messages, ``O(NP + N log P)`` volume), the leader convolves
    whole lines, and filtered segments are scattered straight back.
    """
    own, sub = state.own, state.sub
    if not own.units:
        return
    row_group = ctx.group(state.row_ranks)

    packed = own.pack(local_fields, sub.nlon)
    with ctx.span("filter.gather", units=len(own.units)):
        gathered = yield from coll.gather_binomial(row_group, packed, root=0)

    if row_group.rank == 0:
        lines = np.concatenate(gathered, axis=0)  # (nlon, sum K)
        with ctx.span("filter.convolve", units=len(own.units)):
            yield from ctx.compute(
                flops=state.conv_flops,
                mem_bytes=2.0 * lines.nbytes,
                inner_length=state.nlon,
            )
        filtered = np.empty_like(lines)
        for (a, b), kernel in zip(own.bounds, state.kernels):
            filtered[:, a:b] = circulant_matrix(kernel) @ lines[:, a:b]
        pieces = [
            np.ascontiguousarray(filtered[lo:hi]) for lo, hi in state.col_bounds
        ]
        with ctx.span("filter.scatter"):
            mine = yield from row_group.scatter(pieces, root=0)
    else:
        with ctx.span("filter.scatter"):
            mine = yield from row_group.scatter(None, root=0)
    own.store(local_fields, mine)


# ----------------------------------------------------------------------
# transpose-based FFT backends (the paper's optimisation)
# ----------------------------------------------------------------------

def filter_fft_transpose(
    ctx: VirtualComm, state: _RankState, local_fields: Dict[str, np.ndarray]
):
    """Transpose-based FFT filtering, optionally load balanced.

    Stage A ships row-unit segments from owning to target processor rows
    (identity when the assignment is natural); stage B transposes within
    each processor row so complete lines land on their owning column;
    local FFTs filter the lines; the inverse movements restore the
    original layout (paper Figures 2-3 and Section 3.2).
    """
    sub, nlon = state.sub, state.nlon
    outgoing, incoming = state.outgoing, state.incoming

    # ---------- stage A: latitudinal redistribution --------------------
    seg_store: Dict[int, np.ndarray] = {
        u: local_fields[var][row]
        for u, (var, row) in zip(state.own.units, state.own.rows)
    }
    with ctx.span("filter.redistribute"):
        if outgoing or incoming:
            received = yield _staged_exchange(
                [(peer, p.pack(local_fields, sub.nlon), _TAG_STAGE_A, None, True)
                 for peer, p in outgoing],
                [(peer, _TAG_STAGE_A) for peer, _ in incoming],
            )
            for (_, p), payload in zip(incoming, received[len(outgoing):]):
                p.deliver(seg_store, payload)

    # ---------- stage B: transpose within the processor row ------------
    if state.row_has_units:
        row_group = ctx.group(state.row_ranks)
        chunks = [p.collect(seg_store, sub.nlon) for p in state.by_col]
        with ctx.span("filter.transpose"):
            received = yield from row_group.alltoall(chunks)
        # Assemble complete lines: concatenate column segments along lon.
        lines = np.concatenate(received, axis=0)
        if state.lines.units:
            # Whole-line FFTs: full vector length — the reason the paper
            # chose the transpose over a distributed 1-D FFT.
            with ctx.span("filter.fft", lines=len(state.lines.units)):
                yield from ctx.compute(
                    flops=state.fft_flops,
                    mem_bytes=2.0 * lines.nbytes,
                    inner_length=nlon,
                )
            # Every line of every layer in one batched transform pair.
            spec = np.fft.rfft(lines, axis=0)
            spec *= state.transfer
            lines = np.fft.irfft(spec, n=nlon, axis=0)

        # ---------- inverse stage B -------------------------------------
        back_chunks = [
            np.ascontiguousarray(lines[lo:hi]) for lo, hi in state.col_bounds
        ]
        with ctx.span("filter.transpose"):
            back = yield from row_group.alltoall(back_chunks)
        for p, payload in zip(state.by_col, back):
            p.deliver(seg_store, payload)

    # ---------- inverse stage A -----------------------------------------
    with ctx.span("filter.redistribute"):
        if outgoing or incoming:
            received = yield _staged_exchange(
                [(peer, p.collect(seg_store, sub.nlon),
                  _TAG_STAGE_A_BACK, None, True) for peer, p in incoming],
                [(peer, _TAG_STAGE_A_BACK) for peer, _ in outgoing],
            )
            for (_, p), payload in zip(outgoing, received[len(incoming):]):
                p.store(local_fields, payload)

    # Write back the segments this rank both owns and was assigned.
    for u, (var, row) in zip(state.own.units, state.own.rows):
        local_fields[var][row] = seg_store[u]


# ----------------------------------------------------------------------
# the distributed 1-D FFT backend (the paper's rejected alternative)
# ----------------------------------------------------------------------

def filter_fft_distributed(
    ctx: VirtualComm, state: _RankState, local_fields: Dict[str, np.ndarray]
):
    """Filter via binary-exchange distributed FFTs along processor rows.

    No transpose: each rank keeps its longitude segment and the FFT
    butterflies themselves communicate (``2 log2 P`` block exchanges per
    filtering pass).  Requires power-of-two line lengths and ranks per
    row — one of the practical reasons the paper preferred the
    transpose + local (mixed-radix library) FFT.  Load balance matches
    the plain ``fft`` backend: rows without filtered latitudes idle.
    """
    own = state.own
    if not own.units:
        return
    row_group = ctx.group(state.row_ranks)
    packed = own.pack(local_fields, state.sub.nlon)
    with ctx.span("filter.fft", lines=len(own.units)):
        filtered = yield from distributed_fft_filter_line(
            row_group, packed, state.transfer
        )
    own.store(local_fields, filtered)

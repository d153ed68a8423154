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

Every backend runs one pipeline, :meth:`FilterBackend.apply` (a generator
to be run inside a rank program), and is one row of :data:`_BACKENDS`: an
assignment, its coefficient set-up and a ``filter_held`` generator.
*Pack* the segments of the units the rank's processor row owns and keeps
straight into their columns of the plan-order *held* array; *stage A*
(the Section 3.3 balancer, Figure 2 — nothing to do under a natural
assignment) ships the segments assigned to another row and writes each
arrival into its own columns, so the rank *holds* its longitude segment
of every unit assigned to its row.  ``filter_held`` exchanges within the
row, filters, and returns an array of the same shape; visitors go home;
*store*.  The balancer only decides where row units live, whatever
filters them: in plan order the lines of each processor column are a
contiguous column slice of the held array and each stage-A move is one
column slice or index array, so nothing between pack and store works
unit by unit — and pack and store themselves copy one *run* at a time
(consecutive latitude rows of one variable), not one unit.

The drivers move *real* array data (results are asserted identical to the
serial filters in the test suite) and charge the machine model for every
message and flop, so the virtual timings reproduce the paper's
comparisons structurally.

Wire format, and the held array's: a group of row-unit segments is
concatenated along the layer axis into one ``(nlon_segment,
sum_of_layers)`` array — variables with different layer counts (``ps``
has one, the 3-D fields have K) pack into a single message, and both
endpoints derive the split offsets from the globally known plan.  All
filtered fields must be 3-D ``(nlat, nlon, nlayers)`` arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Optional, Sequence

import numpy as np

from repro.core.balance_plan import (
    FilterAssignment,
    balanced_assignment,
    natural_assignment,
)
from repro.core.convolution import circulant_rows, convolution_filter_rows
from repro.core.distributed_fft import (
    bitrev_transfer,
    check_distributed_fft_shape,
    distributed_fft_filter_line,
)
from repro.core.fft import fft_filter_rows, fft_filter_flop_count
from repro.core.masks import FilterPlan
from repro.grid.decomposition import Decomposition
from repro.parallel import collectives as coll
from repro.parallel.comm import VirtualComm
from repro.parallel.events import Blocks, Exchange

#: Recognised backend names, in the order the paper's tables list them.
FILTER_BACKENDS = ("convolution-ring", "convolution-tree", "fft", "fft-lb")

#: FILTER_BACKENDS plus the distributed 1-D FFT — the alternative the
#: paper rejected in Section 3.2.  It requires power-of-two line lengths
#: and ranks per row, so it is not part of the default set.
EXTENDED_BACKENDS = FILTER_BACKENDS + ("fft-distributed",)

_TAG_STAGE_A = 0x00BB0001
_TAG_STAGE_A_BACK = 0x00BB0002


def _stage_a(ctx: VirtualComm, tag: int, sends, sources):
    """One Exchange for an *all-sends-then-all-recvs* schedule.

    Stage A posts every outgoing ``(peer, segment)`` before draining the
    incoming ones; the rounds are padded with ``None`` so the wire order
    is exactly that.  Returns the payloads received, in ``sources`` order.
    """
    sends = tuple((peer, payload, tag, None, True) for peer, payload in sends)
    with ctx.span("filter.redistribute"):
        received = yield Exchange(
            sends=sends + (None,) * len(sources),
            recvs=(None,) * len(sends) + tuple((peer, tag) for peer in sources),
        )
    return received[len(sends):]


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
      :mod:`repro.core.spectral`, never N x N operators.  Of this, the
      layout is the same on every rank of a processor row — which units
      the row keeps, ships and takes in, and where the lines of each of
      its columns sit in the held array — and so are the convolution
      kernels: the first rank of a row to apply builds them once
      (:class:`_RowState`) and the others of the row read them.

    Every later ``apply`` is data movement and arithmetic.  The state is
    rebuilt only if a rank's layer counts change.  It lives and dies with
    the backend and holds nothing of a simulator run (no ``ctx``, trace or
    group communicator), so one backend may be applied in run after run.
    """

    name: str
    plan: FilterPlan
    decomp: Decomposition
    assignment: FilterAssignment

    def __post_init__(self):
        self._ranks: Dict[int, "_RankState"] = {}
        self._rows: Dict[int, "_RowState"] = {}

    def apply(self, ctx: VirtualComm, local_fields: Dict[str, np.ndarray]):
        """Generator: filter the local fields in place on this rank."""
        _, prepare, filter_held = _BACKENDS[self.name]
        layers = _layers_of(local_fields)
        st = self._ranks.get(ctx.rank)
        if st is None or st.layers != layers:
            st = self._ranks[ctx.rank] = _RankState(self, ctx.rank, layers)
            prepare(st, self.plan)
        row, j, nlon_loc = st.row, st.j_col, st.sub.nlon

        # ---------- pack, stage A: latitudinal redistribution -------------
        # Kept segments land in their held columns, each arrival in its own.
        held = row.own.pack(local_fields, nlon_loc)
        if row.outgoing or row.incoming:
            arrived = yield from _stage_a(
                ctx, _TAG_STAGE_A,
                [(to[j], p.pack(local_fields, nlon_loc)) for to, p in row.outgoing],
                [source[j] for source, _ in row.incoming],
            )
            for (_, cols), payload in zip(row.incoming, arrived):
                held[:, cols] = payload
            del arrived

        # ---------- the backend filters what the row holds ----------------
        if row.held.units:  # else idle: the load imbalance the paper measures
            # The backend owns the array from here: a reference left in
            # this frame while it is suspended in a collective would keep
            # one packed array alive for every rank of the run at once.
            filtering = filter_held(ctx, st, held)
            del held
            held = yield from filtering

        # ---------- stage A home, store -----------------------------------
        # Visitors leave as views of ``held`` where their columns are one
        # slice; nothing writes ``held`` once they are sent.
        if row.outgoing or row.incoming:
            returned = yield from _stage_a(
                ctx, _TAG_STAGE_A_BACK,
                [
                    (to[j], held[:, cols] if isinstance(cols, slice)
                     else held.take(cols, axis=1))
                    for to, cols in row.incoming
                ],
                [source[j] for source, _ in row.outgoing],
            )
            for (_, p), payload in zip(row.outgoing, returned):
                p.store(local_fields, payload)
        row.own.store(local_fields, held)


def prepare_filter_backend(
    name: str, plan: FilterPlan, decomp: Decomposition
) -> FilterBackend:
    """Build the per-run setup state for a named filter backend."""
    if name not in _BACKENDS:
        raise ValueError(
            f"unknown filter backend {name!r}; choose from {EXTENDED_BACKENDS}"
        )
    assign, _, _ = _BACKENDS[name]
    return FilterBackend(
        name=name, plan=plan, decomp=decomp, assignment=assign(plan, decomp)
    )


def apply_serial_filter(
    plan: FilterPlan, fields: Dict[str, np.ndarray], method: str = "fft"
) -> None:
    """Serial reference: filter global fields in place.

    ``method`` is ``"fft"`` or ``"convolution"``; both must (and, by the
    convolution theorem, do) give identical results — asserted in tests.
    """
    filter_rows = fft_filter_rows if method == "fft" else convolution_filter_rows
    for names, polar in (
        (plan.strong_vars, plan.strong), (plan.weak_vars, plan.weak)
    ):
        for var in names:
            if var in fields:
                fields[var][...] = filter_rows(fields[var], polar)


# -- prepared per-row and per-rank state: unit lists <-> wire arrays --

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
    (:meth:`pack`, :meth:`store`), one *run* at a time.  One of units
    held elsewhere (a row that took in stage-A arrivals) has ``runs =
    None``, so those two raise instead of indexing somebody else's
    latitude.  A packing built ``within`` another (the units a row keeps,
    among all it holds) puts each unit at its columns there and packs an
    array of that one's width.
    """

    def __init__(
        self, plan: FilterPlan, units: Sequence[int],
        layers: Dict[str, int], lat0: Optional[int] = None,
        within: Optional["_Packing"] = None,
    ):
        self.units = tuple(units)
        row_units = [plan.units[u] for u in self.units]
        #: (filter, latitude) of each unit: :mod:`repro.core.spectral`'s memo key.
        self.filters = [(plan.filter_for(ru), ru.lat) for ru in row_units]
        if within is None:
            offsets = np.cumsum([0] + [layers[ru.var] for ru in row_units]).tolist()
            #: Layer-column range of each unit inside the packed array.
            self.bounds = list(zip(offsets, offsets[1:]))
            self.width = offsets[-1]
        else:
            where = dict(zip(within.units, within.bounds))
            self.bounds = [where[u] for u in self.units]
            self.width = within.width
        #: Owned units only: maximal ``(var, row0, row1, col0, col1)``
        #: groups of consecutive local rows of one variable whose packed
        #: columns are contiguous — the unit of :meth:`pack` and
        #: :meth:`store`.  Plan order puts a variable's rows side by side,
        #: so a natural assignment has one run per variable and hemisphere.
        self.runs = None
        if lat0 is not None:
            runs = []
            for ru, (a, b) in zip(row_units, self.bounds):
                row = ru.lat - lat0
                # Same variable, next row, next column: extend the last run.
                if runs and runs[-1][::2] == (ru.var, row, a):
                    runs[-1] = (ru.var, runs[-1][1], row + 1, runs[-1][3], b)
                else:
                    runs.append((ru.var, row, row + 1, a, b))
            self.runs = runs

    def pack(self, local_fields: Dict[str, np.ndarray], nlon_loc: int):
        """This rank's segments in their columns, one strided copy per
        run: ``(nlon_loc, width)``.  Columns of no run (a held array's
        arrivals) are left unset."""
        out = np.empty((nlon_loc, self.width))
        for var, r0, r1, a, b in self.runs:
            n = r1 - r0
            out[:, a:b].reshape(nlon_loc, n, (b - a) // n)[...] = (
                local_fields[var][r0:r1].transpose(1, 0, 2)
            )
        return out

    def store(self, local_fields: Dict[str, np.ndarray], packed: np.ndarray):
        """Write filtered segments back into the local field rows, one
        strided copy per run."""
        nlon_loc = packed.shape[0]
        for var, r0, r1, a, b in self.runs:
            n = r1 - r0
            local_fields[var][r0:r1] = packed[:, a:b].reshape(
                nlon_loc, n, (b - a) // n
            ).transpose(1, 0, 2)

    def cols(self, units: Sequence[int]):
        """The layer columns, in the packed array, of some of its units:
        one slice where they are contiguous, else an index array."""
        where = dict(zip(self.units, self.bounds))
        spans = [where[u] for u in units]
        if all(b == a for (_, b), (a, _) in zip(spans, spans[1:])):
            return slice(spans[0][0], spans[-1][1])
        return np.array([c for a, b in spans for c in range(a, b)], dtype=np.intp)


def _coefficient_columns(vectors, bounds, c0: int, width: int) -> np.ndarray:
    """One coefficient vector per unit, repeated over the unit's layer
    columns ``a - c0 : b - c0``: ``(len(vector), width)``."""
    out = np.empty((len(vectors[0]) if vectors else 0, width))
    for vec, (a, b) in zip(vectors, bounds):
        out[:, a - c0:b - c0] = vec[:, None]
    return out


class _RowState:
    """The layout the ranks of one processor row share: everything that
    depends only on ``(plan, decomp, assignment, row)`` and the variables'
    layer counts, and the convolution coefficients of the units it holds
    (built on first use).  Read-only once built."""

    def __init__(self, backend: FilterBackend, i_row: int, layers: Dict[str, int]):
        plan, decomp, a = backend.plan, backend.decomp, backend.assignment
        mesh = decomp.mesh
        self.layers = layers
        self.ranks = tuple(mesh.row_ranks(i_row))
        #: Longitude range of each processor column.
        self.col_bounds = [
            decomp.lon_bounds_of_proc_col(c) for c in range(mesh.nlon_procs)
        ]
        lat0, _ = decomp.lat_bounds_of_proc_row(i_row)
        assigned = a.units_assigned_to_row(i_row)
        kept = [u for u in assigned if a.owner_row[u] == i_row]
        moves = a.stage_a_moves()
        natural = len(kept) == len(assigned)
        held = None if natural else _Packing(plan, assigned, layers)
        #: Units this row both owns and keeps through stage A, at their
        #: columns of the held array.
        self.own = _Packing(plan, kept, layers, lat0, within=held)
        #: Every unit the row holds after stage A, in plan order.
        self.held = held = self.own if natural else held
        #: Stage A out, (the target row's ranks, units): packed to ship,
        #: stored when they come home.
        self.outgoing = [
            (mesh.row_ranks(dst), _Packing(plan, units, layers, lat0))
            for src, dst, units in moves if src == i_row
        ]
        #: Stage A in, (the source row's ranks, the arrivals' held columns).
        self.incoming = [
            (mesh.row_ranks(src), held.cols(units))
            for src, dst, units in moves if dst == i_row
        ]
        #: Stage B: per processor column, the held units ``(u0, u1)``
        #: whose complete lines it holds and the held columns ``(c0, c1)``
        #: they fill.
        lines = [a.lines_on_rank(r) for r in self.ranks]
        if [u for units in lines for u in units] != list(assigned):
            raise ValueError(
                "line columns must block-partition a row's units in plan order"
            )
        edges = np.cumsum([0] + [len(units) for units in lines]).tolist()
        self.unit_slices = list(zip(edges, edges[1:]))
        offsets = [a for a, _ in held.bounds] + [held.width]
        self.col_slices = [(offsets[u0], offsets[u1]) for u0, u1 in self.unit_slices]

    @cached_property
    def convolution(self):
        """The convolution backends' coefficients (see
        :func:`_prepare_convolution`), built by the first rank of the row
        that needs them and shared by the others."""
        kernels, flops, terms = {}, {}, []
        for key, (a, b) in zip(self.held.filters, self.held.bounds):
            if key not in kernels:
                f, lat = key
                kernels[key] = (f.kernel(lat), f.doubled_kernel(lat), [])
                flops[key] = 4.0 * f.damped_bin_count(lat)
            kernels[key][2].append((a, b))
            terms.append(flops[key] * (b - a))
        return list(kernels.values()), sum(terms)


class _RankState:
    """What one rank's applications share: everything that depends only on
    ``(plan, decomp, assignment, rank)`` and the variables' layer counts,
    and the coefficients its backend's set-up adds."""

    def __init__(self, backend: FilterBackend, rank: int, layers: Dict[str, int]):
        decomp = backend.decomp
        self.layers = layers
        self.nlon = decomp.nlon
        self.sub = decomp.subdomain(rank)
        i_row, self.j_col = decomp.mesh.coords_of(rank)
        row = backend._rows.get(i_row)  # the first rank of a row builds it
        if row is None or row.layers != layers:
            row = backend._rows[i_row] = _RowState(backend, i_row, layers)
        self.row = row


# -- convolution backends (the original code's algorithms) --

def _prepare_convolution(st: _RankState, plan: FilterPlan):
    """Kernels and their memoised doubled vectors, one per distinct
    ``(filter, latitude)`` of the row's units with the layer columns of
    its units, and the flops per output point in the AGCM's
    wavenumber-sum form of eq. (2): ``4 * M_s`` per layer of each unit,
    where ``M_s`` is the number of damped wavenumbers at the unit's
    latitude (sine and cosine contributions, one multiply + one add
    each).  They depend on the row alone: :attr:`_RowState.convolution`."""
    st.kernels, st.flops_per_point = st.row.convolution


def _convolve(ctx: VirtualComm, st: _RankState, lines: np.ndarray, lo: int, hi: int):
    """Charge and compute longitudes ``lo:hi`` of every filtered line:
    that block of each unit's circulant rows times the unit's lines.
    Units of one ``(filter, latitude)`` share the block, built after the
    charge's ``yield`` so that no suspended rank holds one."""
    with ctx.span("filter.convolve", units=len(st.row.held.units)):
        yield from ctx.compute(
            flops=st.flops_per_point * (hi - lo),
            mem_bytes=2.0 * lines.nbytes,
            inner_length=hi - lo,
        )
    filtered = np.empty((hi - lo, lines.shape[1]))
    for kernel, doubled, bounds in st.kernels:
        block = circulant_rows(kernel, lo, hi, doubled)
        for a, b in bounds:
            filtered[:, a:b] = block @ lines[:, a:b]
    return filtered


def _convolve_ring(ctx: VirtualComm, st: _RankState, held: np.ndarray):
    """Eq.-2 convolution with ring allgather of line segments.

    Within each processor row, all ranks allgather their segments of every
    filtered line owned by the row (``N_procs - 1`` ring rounds, the
    paper's "communications around processor rings in the longitudinal
    direction" with no partial summation), then each rank convolves the
    full lines to produce *its own* longitude segment of the output.
    """
    with ctx.span("filter.gather", units=len(st.row.held.units)):
        gathered = yield from ctx.group(st.row.ranks).allgather(held)
    lines = np.concatenate(gathered, axis=0)  # (nlon, sum K)
    # The ring computes only its own (short) longitude segment of each
    # output line, so its inner loops suffer the vector-startup penalty on
    # small blocks — one of the reasons the original filter scales poorly.
    return (yield from _convolve(ctx, st, lines, st.sub.lon0, st.sub.lon1))


def _convolve_tree(ctx: VirtualComm, st: _RankState, held: np.ndarray):
    """Eq.-2 convolution with binomial-tree gather to a row leader.

    Segments funnel up a binary tree to column 0 of each processor row
    (``O(2P)`` messages, ``O(NP + N log P)`` volume), the leader convolves
    whole lines, and filtered segments are scattered straight back.
    """
    row_group = ctx.group(st.row.ranks)
    with ctx.span("filter.gather", units=len(st.row.held.units)):
        gathered = yield from coll.gather_binomial(row_group, held, root=0)
    del held
    pieces = None
    if row_group.rank == 0:
        lines = np.concatenate(gathered, axis=0)  # (nlon, sum K)
        filtered = yield from _convolve(ctx, st, lines, 0, st.nlon)
        pieces = [filtered[lo:hi] for lo, hi in st.row.col_bounds]
    with ctx.span("filter.scatter"):
        return (yield from row_group.scatter(pieces, root=0))


# -- transpose-based FFT backends (the paper's optimisation) --

def _prepare_transpose(st: _RankState, plan: FilterPlan):
    # The units whose complete lines this rank holds after stage B: a
    # slice of the row's held units, filling a column slice of the array.
    held = st.row.held
    (u0, u1), (c0, c1) = st.row.unit_slices[st.j_col], st.row.col_slices[st.j_col]
    st.n_lines = u1 - u0
    st.transfer = _coefficient_columns(
        [f.transfer(lat) for f, lat in held.filters[u0:u1]],
        held.bounds[u0:u1], c0, c1 - c0,
    )
    st.fft_flops = fft_filter_flop_count(st.nlon, 1, c1 - c0)


def _fft_transpose(ctx: VirtualComm, st: _RankState, held: np.ndarray):
    """Transpose-based FFT filtering (paper Figure 3 and Section 3.2).

    Stage B transposes within each processor row so complete lines land
    on their owning column; local FFTs filter the lines; the inverse
    transpose restores the held layout.  Balanced or not is the
    assignment's business.
    """
    row_group = ctx.group(st.row.ranks)
    # Each direction ships one array cut at the row's bounds and gets its
    # lines back joined, read-only: complete lines (column segments
    # stacked along lon) on the way out, the held layout on the way home.
    transpose = row_group.alltoall(Blocks(held, 1, st.row.col_slices), join=0)
    del held
    with ctx.span("filter.transpose"):
        lines = yield from transpose
    if st.n_lines:
        # Whole-line FFTs: full vector length — the reason the paper
        # chose the transpose over a distributed 1-D FFT.
        with ctx.span("filter.fft", lines=st.n_lines):
            yield from ctx.compute(
                flops=st.fft_flops,
                mem_bytes=2.0 * lines.nbytes,
                inner_length=st.nlon,
            )
        # Every line of every layer in one batched transform pair.
        spec = np.fft.rfft(lines, axis=0)
        spec *= st.transfer
        lines = np.fft.irfft(spec, n=st.nlon, axis=0)
        del spec

    with ctx.span("filter.transpose"):
        return (yield from row_group.alltoall(
            Blocks(lines, 0, st.row.col_bounds), join=1))


# -- the distributed 1-D FFT backend (the paper's rejected alternative) --

def _pow2_assignment(plan: FilterPlan, decomp: Decomposition) -> FilterAssignment:
    check_distributed_fft_shape(decomp.nlon, decomp.mesh.nlon_procs)
    return natural_assignment(plan, decomp)


def _prepare_distributed(st: _RankState, plan: FilterPlan):
    # Per-layer bit-reversed transfer factors for this rank's block.
    block = slice(st.sub.lon0, st.sub.lon1)
    held = st.row.held
    st.transfer = _coefficient_columns(
        [bitrev_transfer(f.transfer(lat), st.nlon)[block] for f, lat in held.filters],
        held.bounds, 0, held.width,
    )


def _fft_distributed(ctx: VirtualComm, st: _RankState, held: np.ndarray):
    """Filter via binary-exchange distributed FFTs along processor rows.

    No transpose: each rank keeps its longitude segment and the FFT
    butterflies themselves communicate (``2 log2 P`` block exchanges per
    filtering pass).  Requires power-of-two line lengths and ranks per
    row — one of the practical reasons the paper preferred the
    transpose + local (mixed-radix library) FFT.
    """
    with ctx.span("filter.fft", lines=len(st.row.held.units)):
        return (yield from distributed_fft_filter_line(
            ctx.group(st.row.ranks), held, st.transfer
        ))


#: name -> (assignment, per-rank coefficient set-up, filter_held): the one
#: place a backend name becomes code.
_BACKENDS = {
    "convolution-ring": (natural_assignment, _prepare_convolution, _convolve_ring),
    "convolution-tree": (natural_assignment, _prepare_convolution, _convolve_tree),
    "fft": (natural_assignment, _prepare_transpose, _fft_transpose),
    "fft-lb": (balanced_assignment, _prepare_transpose, _fft_transpose),
    "fft-distributed": (_pow2_assignment, _prepare_distributed, _fft_distributed),
}

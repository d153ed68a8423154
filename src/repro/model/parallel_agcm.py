"""The SPMD parallel AGCM: the rank program the virtual machine executes.

This is the parallel counterpart of :class:`repro.model.agcm.AGCM` — same
numerics, decomposed over a processor mesh, with every message and flop
charged to the machine model.  Integration tests assert the gathered
parallel fields equal the serial driver's bit-for-bit (the numerics use
the same kernels on halo-padded blocks), while the virtual trace supplies
all the paper's timing tables.

One program serves both layouts of one
:class:`~repro.grid.decomposition.Decomposition`, chosen by its mesh:

* the paper's 2-D layout (``nlev_procs == 1``) — each rank owns a lat-lon
  block with every layer;
* the AGCM-3DLF layout (``nlev_procs > 1``) — each rank owns a
  ``(nlat_loc, nlon_loc, nlev_loc)`` slab.  Horizontal work runs per slab
  through the unmodified halo/filter code on
  :meth:`Decomposition.slab`; vertically coupled work (column physics,
  the surface-pressure closure, the implicit vertical-diffusion solves)
  transposes to column space over the pillar of ranks sharing a tile.

Per step:

* ``physics``   — column physics every ``physics_every`` steps, with
  optional scheme-3 load balancing (columns move between ranks following
  a globally derived :class:`~repro.model.physics_balance.ColumnFlowPlan`);
* ``dynamics``  — halo exchange, finite-difference tendencies, polar
  filtering of the tendencies (any of the four backends), leapfrog update.

Phase names recorded in the trace: ``"physics"``, ``"dynamics"``, and
within dynamics ``"halo"``, ``"fd"``, ``"filtering"``, ``"update"`` —
these give the Figure-1 component breakdown directly; a vertical split
adds ``"transpose"`` around every pillar collective.  With periodic
checkpointing (``checkpointer=``) a ``"checkpoint"`` phase appears, and
on a resumed run (``resume=``) a ``"restart"`` phase covers the
read-and-scatter of the last checkpoint (see :mod:`repro.faults`).

The physics load balancer is driven by *measured* per-rank compute
times (see :mod:`repro.faults.mitigation`): each physics pass records a
compute-only :class:`~repro.faults.mitigation.LoadMeasurement`, and the
next pass allgathers them to derive loads — so machine-induced
imbalance (an injected straggler) is rebalanced away exactly like
workload-induced imbalance.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import constants as c
from repro.core.masks import make_filter_plan
from repro.core.parallel_filter import prepare_filter_backend
from repro.dynamics.geometry import LocalGeometry
from repro.dynamics.implicit import implicit_vertical_diffusion
from repro.dynamics.state import PROGNOSTIC_NAMES, scatter_initial_fields
from repro.dynamics.tendencies import (
    TendencyWorkspace,
    compute_tendencies,
    dynamics_flops,
    dynamics_mem_bytes,
    surface_pressure_tendency,
)
from repro.faults.mitigation import LoadMeasurement, estimate_rank_loads
from repro.grid.decomposition import Decomposition
from repro.grid.halo import exchange_halos
from repro.model.config import AGCMConfig
from repro.model.physics_balance import ColumnFlowPlan, plan_column_flow
from repro.model.snapshot import RankSnapshot
from repro.parallel.collectives import exchange_vertical_halo
from repro.physics.driver import ColumnSet, run_physics
from repro.physics.workload import leap_schedule
from repro.util.partition import block_bounds

_TAG_LB_DATA = 0x00CC0001
_TAG_LB_RESULT = 0x00CC0002

#: Flops per point-layer of the leapfrog update (5 fields x ~3 ops).
UPDATE_FLOPS_PER_POINT_LAYER = 15.0

#: Flops per point-layer of one batched Thomas solve (2 fields x ~8 ops).
VDIFF_FLOPS_PER_POINT_LAYER = 16.0


class _RunPlan:
    """What is the same on every rank of one run: the ``(cfg, decomp)``-
    pure set-up, built once by the first rank to start.

    The paper's "one-time cost", paid once per run on the host instead of
    once per rank — the virtual set-up charges stay per rank, so clocks
    and traces do not change.  It lives in the run's store
    (:meth:`VirtualComm.once`) and dies with the run; it holds no
    ``ctx``, trace or group communicator, and nothing a rank keeps
    across a ``yield`` except arrays it took out for good.
    """

    def __init__(self, cfg: AGCMConfig, decomp: Decomposition):
        # An unsplit decomposition need not know the layer count.
        have = (decomp.nlat, decomp.nlon, decomp.nlev or cfg.nlayers)
        want = (cfg.nlat, cfg.nlon, cfg.nlayers)
        if have != want:
            raise ValueError(
                f"decomposition grid {have} does not match the config grid "
                f"{want} (nlat, nlon, nlayers)"
            )
        self.grid = grid = cfg.make_grid()
        self._cfg, self._decomp = cfg, decomp
        mesh = decomp.mesh
        # Halo exchange and filtering see one vertical level of the mesh.
        slabs = [decomp.slab(k) for k in range(mesh.nlev_procs)]
        filter_plan = make_filter_plan(grid)
        #: One prepared backend per slab (``backend.decomp`` is the slab),
        #: so that its per-row state is built once per processor row.
        self.backends = [
            prepare_filter_backend(cfg.filter_backend, filter_plan, slab)
            for slab in slabs
        ]
        #: One read-only geometry (and its stencil columns) per processor row.
        self.geoms = [
            LocalGeometry.from_grid(grid, *decomp.lat_bounds_of_proc_row(i))
            for i in range(mesh.nlat_procs)
        ]
        self._initial: Optional[List[Optional[Dict[str, np.ndarray]]]] = None
        self._workspaces: Dict[Tuple[int, int, int], TendencyWorkspace] = {}

    def take_initial(self, rank: int) -> Dict[str, np.ndarray]:
        """``rank``'s block of the initial fields, handed over for good.

        Computed once on the whole grid and scattered when the first rank
        asks (never on a resumed run, which starts from a checkpoint).
        """
        if self._initial is None:
            self._initial = scatter_initial_fields(
                self._decomp, self.grid, self._cfg.nlayers,
                seed=self._cfg.seed,
            )
        block, self._initial[rank] = self._initial[rank], None
        return block

    def workspace(self, shape: Tuple[int, int, int]) -> TendencyWorkspace:
        """The kernel scratch shared by every rank whose tile is ``shape``.

        Safe only because nothing between taking it and the last use of
        it yields: a rank must not keep anything in it across a ``yield``.
        """
        work = self._workspaces.get(shape)
        if work is None:
            work = self._workspaces[shape] = TendencyWorkspace(*shape)
        return work


def agcm_rank_program(
    ctx,
    cfg: AGCMConfig,
    decomp: Decomposition,
    nsteps: int,
    return_fields: bool = False,
    checkpointer=None,
    resume=None,
    guard=None,
):
    """Generator: run ``nsteps`` AGCM steps on this rank's subdomain.

    Returns a summary dict; with ``return_fields=True`` it includes the
    final local prognostic arrays (used by the equivalence tests).

    ``decomp`` picks the layout, and must cover ``cfg``'s grid (a
    ``ValueError`` names both grids otherwise).  When its mesh is
    vertically split (``nlev_procs > 1``) the step gains the pillar
    branches, each inside a ``"transpose"`` phase:

    * column physics — slab -> column transpose, compute (balanced or
      not) on the pillar share, transpose the tendencies back;
    * the vertical ghost-layer exchange for the full model's vertical
      differencing, priced per step (the reduced kernel has no vertical
      stencil, but the calibrated ``AGCM_FLOPS_PER_POINT_LAYER``
      workload it stands in for does);
    * the surface-pressure closure — pillar allgather of the
      pre-forcing ``pt`` tendency, full-K layer mean in global layer
      order (:func:`~repro.dynamics.tendencies.surface_pressure_tendency`);
    * implicit vertical diffusion — the Thomas solves run on the
      transposed full columns.

    Leap-format stepping: the pairwise transpose rounds rotate partners
    per vertical rank, and the finite-difference latitude sweep is
    charged in ``nlev_procs`` chunks in :func:`leap-rotated
    <repro.physics.workload.leap_schedule>` order, so pillar members
    touch different latitude bands (and different filter rows) at any
    instant instead of serialising on the same ones.  Without a split
    the sweep is one chunk and the step is the paper's 2-D one; the
    gathered trajectory is bit-identical to the serial driver for the
    fft filter backends on every mesh.

    ``checkpointer`` (disk, buddy or chain) is handed this rank's
    :class:`~repro.model.snapshot.RankSnapshot` when due; ``resume``
    (what a checkpointer's ``load()`` returns) restores one, and the
    run continues from its step bit-identically to an uninterrupted
    one.  Both charge their transport to the machine.

    ``guard`` (a :class:`repro.guard.detectors.StepGuard`) runs the
    numerical-health detectors after each step's dynamics, *before* the
    state can be checkpointed — a snapshot is therefore always
    guard-clean.  Disabled (``None`` or ``guard.enabled`` False) it
    costs exactly nothing: one attribute check here, no virtual ops.

    The three hooks gather, scatter, pair buddies and run detectors on
    full-column blocks, so each raises ``ValueError`` on a vertically
    split mesh rather than being dropped.
    """
    plan: _RunPlan = ctx.once(
        (_RunPlan, cfg, decomp), lambda: _RunPlan(cfg, decomp))
    grid = plan.grid
    mesh = decomp.mesh
    nlev_procs = mesh.nlev_procs
    split = nlev_procs > 1
    guarded = guard is not None and guard.enabled
    if split:
        for hook, given in (("checkpointer", checkpointer is not None),
                            ("resume", resume is not None),
                            ("guard", guarded)):
            if given:
                raise ValueError(
                    f"{hook} works on full-column blocks and cannot run on "
                    f"the vertically split mesh {mesh.describe()} "
                    f"(nlev_procs must be 1)"
                )
    sub = decomp.subdomain(ctx.rank)
    nlayers = cfg.nlayers
    extent = (sub.lat0, sub.lat1, sub.lon0, sub.lon1)
    klev, nlev_loc = 0, nlayers
    if split:
        klev, nlev_loc = sub.klev_proc, sub.nlev
        extent += (sub.lev0, sub.lev1)
    backend = plan.backends[klev]
    horiz = backend.decomp
    geom = plan.geoms[sub.ilat_proc]
    work = plan.workspace((sub.nlat, sub.nlon, nlev_loc))
    lat_rad_loc = grid.lat_rad[sub.lat_slice]
    lon_rad_loc = grid.lon_rad[sub.lon_slice]
    dt = cfg.timestep()
    npts = sub.nlat * sub.nlon
    is_north_edge = sub.lat1 == decomp.nlat

    # This rank's share of the tile's columns once the pillar has
    # transposed to column space — the whole tile without a split.
    col_bounds = block_bounds(npts, nlev_procs)
    my_c0, my_c1 = col_bounds[klev]
    my_ncols = my_c1 - my_c0
    # Leap-format latitude sweep: chunk bounds + this rank's rotation.
    sweep = leap_schedule(nlev_procs, klev)
    sweep_bounds = block_bounds(sub.nlat, nlev_procs)

    # One enabled-attribute check (the NULL_OBSERVER pattern): a disabled
    # guard never constructs state and never yields a virtual op.
    gstate = guard.rank_state(ctx, cfg, grid, sub, dt) if guarded else None

    # This rank's slab of the initial fields (``ps`` whole: single-level
    # fields are replicated across the pillar).
    now = plan.take_initial(ctx.rank) if resume is None else None
    if split:
        i_proc, j_proc, _ = mesh.coords3_of(ctx.rank)
        pillar = ctx.group(mesh.pillar_ranks(i_proc, j_proc))
        lev_bounds = [decomp.lev_bounds_of_proc(k) for k in range(nlev_procs)]
        # Latitude/longitude of the column share, in the lat-major
        # flattening order of ColumnSet.from_block.
        share_lat = np.repeat(lat_rad_loc, sub.nlon)[my_c0:my_c1]
        share_lon = np.tile(lon_rad_loc, sub.nlat)[my_c0:my_c1]
    prev: Optional[Dict[str, np.ndarray]] = None
    forcing_pt = np.zeros((sub.nlat, sub.nlon, nlev_loc))
    forcing_q = np.zeros_like(forcing_pt)

    # Physics-LB state: static column counts are exchanged once at setup;
    # load estimates derive from the measured previous physics pass.
    all_ncols: Optional[List[int]] = None
    my_measure: Optional[LoadMeasurement] = None
    physics_calls = 0
    columns_moved_total = 0
    phys_compute_seconds = 0.0  # compute-only, every physics call
    phys_compute_steady = 0.0   # compute-only, calls after the first

    time_now = 0.0
    start_step = 0
    if resume is not None:
        with ctx.region("restart"):
            snap = yield from resume.restore(ctx, decomp)
        now, prev = snap.now, snap.prev
        forcing_pt, forcing_q = snap.forcing_pt, snap.forcing_q
        time_now, start_step = snap.time, snap.step
        counters = snap.counters
        if counters["measure"] is not None:
            my_measure = LoadMeasurement.from_tuple(counters["measure"])
        physics_calls = counters["physics_calls"]
        columns_moved_total = counters["columns_moved"]
        phys_compute_seconds = counters["phys_compute_seconds"]
        phys_compute_steady = counters["phys_compute_steady"]
        ctx.instant("restart", step=start_step)

    for step in range(start_step, nsteps):
        step_span = ctx.span("step", step=step)
        step_span.__enter__()
        # ---------------- physics (column space) ----------------------
        if step % cfg.physics_every == 0:
            with ctx.region("physics"):
                time_frac = (time_now % c.SECONDS_PER_DAY) / c.SECONDS_PER_DAY
                if split:
                    with ctx.region("transpose"):
                        col_pt = yield from _pillar_to_columns(
                            pillar, now["pt"], col_bounds)
                        col_q = yield from _pillar_to_columns(
                            pillar, now["q"], col_bounds)
                    cols = ColumnSet(pt=col_pt, q=col_q,
                                     lat_rad=share_lat, lon_rad=share_lon)
                else:
                    cols = ColumnSet.from_block(
                        now["pt"], now["q"], lat_rad_loc, lon_rad_loc
                    )
                use_lb = cfg.physics_lb and mesh.size > 1
                if use_lb and all_ncols is None:
                    all_ncols = yield from ctx.allgather(cols.ncol)
                if use_lb and my_measure is not None:
                    (tend_pt_cols, tend_q_cols, moved,
                     my_measure) = yield from _physics_balanced(
                        ctx, cfg, cols, time_frac, step, all_ncols,
                        my_measure,
                    )
                    columns_moved_total += moved
                else:
                    result = run_physics(
                        cols, time_frac, step, cfg.physics,
                        metrics=ctx.metrics if ctx.obs.enabled else None,
                    )
                    with ctx.span("physics.compute", ncols=cols.ncol):
                        t_compute0 = ctx.clock
                        yield from ctx.compute(flops=result.total_flops)
                    # Compute-only measurement: waits excluded, so a
                    # machine-induced slowdown is visible to the balancer
                    # instead of being smeared into everyone's waits.
                    my_measure = LoadMeasurement(
                        ctx.clock - t_compute0, cols.ncol, cols.ncol
                    )
                    tend_pt_cols, tend_q_cols = result.tend_pt, result.tend_q
                if split:
                    with ctx.region("transpose"):
                        tend_pt_cols = yield from _columns_to_pillar(
                            pillar, tend_pt_cols, lev_bounds
                        )
                        tend_q_cols = yield from _columns_to_pillar(
                            pillar, tend_q_cols, lev_bounds
                        )
                forcing_pt[...] = tend_pt_cols.reshape(forcing_pt.shape)
                forcing_q[...] = tend_q_cols.reshape(forcing_q.shape)
                # Every suspended rank holds what its frame holds: carry
                # only model state across the next yield.
                cols = result = tend_pt_cols = tend_q_cols = None
                col_pt = col_q = None
                phys_compute_seconds += my_measure.compute_seconds
                if physics_calls > 0:
                    phys_compute_steady += my_measure.compute_seconds
                physics_calls += 1

        # ---------------- dynamics -----------------------------------
        with ctx.region("dynamics"):
            with ctx.region("halo"):
                padded = {}
                for name in PROGNOSTIC_NAMES:
                    padded[name] = yield from exchange_halos(
                        ctx, horiz, now[name])
            if split:
                # Ghost layers for the full model's vertical
                # differencing (priced, not consumed by the reduced
                # kernel — see the docstring).
                with ctx.region("transpose"):
                    yield from exchange_vertical_halo(ctx, decomp, now["pt"])
            with ctx.region("fd"):
                for chunk in sweep:
                    c_lat0, c_lat1 = sweep_bounds[chunk]
                    chunk_pts = (c_lat1 - c_lat0) * sub.nlon
                    if chunk_pts == 0:
                        continue
                    yield from ctx.compute(
                        flops=dynamics_flops(chunk_pts, nlev_loc),
                        mem_bytes=dynamics_mem_bytes(chunk_pts, nlev_loc),
                        inner_length=sub.nlon,
                    )
                tend = compute_tendencies(padded, geom, cfg.dynamics, work)
                del padded
            if split:
                # Pillar surface-pressure closure: the layer mean needs
                # every layer of the column, assembled in global layer
                # order from the pre-forcing pt tendency.
                with ctx.region("transpose"):
                    dpt_blocks = yield from pillar.allgather(tend["pt"])
                tend["ps"] = surface_pressure_tendency(
                    np.concatenate(dpt_blocks, axis=2)
                )
                del dpt_blocks
            # Out of place: the pillar allgather above sent tend["pt"]
            # by reference, and a payload must not change after its send.
            tend["pt"] = tend["pt"] + forcing_pt
            tend["q"] = tend["q"] + forcing_q
            with ctx.region("filtering"):
                yield from backend.apply(ctx, tend)
            with ctx.region("update"):
                yield from ctx.compute(
                    flops=UPDATE_FLOPS_PER_POINT_LAYER * npts * nlev_loc,
                    inner_length=sub.nlon,
                )
                prev, now = _advance(prev, now, tend, dt, cfg.ra_coeff,
                                     work.scratch[0])
                if is_north_edge:
                    now["v"][-1, ...] = 0.0
                if cfg.vertical_diffusion > 0:
                    yield from ctx.compute(
                        flops=VDIFF_FLOPS_PER_POINT_LAYER * my_ncols * nlayers,
                        inner_length=nlayers,
                    )
                    for name in ("pt", "q"):
                        if not split:
                            now[name] = implicit_vertical_diffusion(
                                now[name], dt, cfg.vertical_diffusion, cfg.dz
                            )
                            continue
                        # Thomas solves need full columns: solve in
                        # transposed space, then return to slabs.
                        with ctx.region("transpose"):
                            col = yield from _pillar_to_columns(
                                pillar, now[name], col_bounds)
                        solved = implicit_vertical_diffusion(
                            col.reshape(my_ncols, 1, nlayers),
                            dt, cfg.vertical_diffusion, cfg.dz,
                        ).reshape(my_ncols, nlayers)
                        with ctx.region("transpose"):
                            back = yield from _columns_to_pillar(
                                pillar, solved, lev_bounds
                            )
                        # The joined transpose is read-only, and the next
                        # leapfrog corrects ``now`` in place.
                        now[name] = back.reshape(forcing_pt.shape).copy()
        time_now += dt

        # ---------------- numerical-health guard ----------------------
        # Runs before the checkpoint block so a snapshot can never hold
        # a state the detectors would have rejected.
        if gstate is not None:
            with ctx.region("guard"):
                yield from gstate.check(ctx, step, now)

        # ---------------- coordinated checkpoint ----------------------
        if checkpointer is not None and checkpointer.due(step, nsteps):
            with ctx.region("checkpoint"):
                snap = RankSnapshot(
                    now=now, prev=prev,
                    forcing_pt=forcing_pt, forcing_q=forcing_q,
                    time=time_now, step=step + 1,
                    counters={
                        "measure": (
                            my_measure.as_tuple()
                            if my_measure is not None else None
                        ),
                        "physics_calls": physics_calls,
                        "columns_moved": columns_moved_total,
                        "phys_compute_seconds": phys_compute_seconds,
                        "phys_compute_steady": phys_compute_steady,
                    },
                )
                yield from checkpointer.save(ctx, snap)
                ctx.instant("checkpoint", step=step + 1)
        # Closed manually (not ``with``) to keep the step body flat; an
        # exception unwinds through the observer's dangling-span cleanup.
        step_span.__exit__(None, None, None)

    summary = {
        "rank": ctx.rank,
        "subdomain": extent,
        "steps": nsteps,
        "start_step": start_step,
        "physics_calls": physics_calls,
        "columns_moved": columns_moved_total,
        "phys_compute_seconds": phys_compute_seconds,
        "phys_compute_steady": phys_compute_steady,
        "max_wind": float(
            max(np.abs(now["u"]).max(), np.abs(now["v"]).max())
        ),
        "finite": bool(all(np.isfinite(a).all() for a in now.values())),
    }
    if return_fields:
        summary["fields"] = now
    return summary


def _advance(
    prev: Optional[Dict[str, np.ndarray]],
    now: Dict[str, np.ndarray],
    tend: Dict[str, np.ndarray],
    dt: float,
    ra_coeff: float,
    scratch: np.ndarray,
) -> Tuple[Dict[str, np.ndarray], Dict[str, np.ndarray]]:
    """Leapfrog (or initial Euler) update on plain field dicts.

    Mirrors :func:`repro.dynamics.timestep.leapfrog_step` exactly,
    including the in-place Robert-Asselin correction of ``now`` — the
    same operations per element, without its temporaries: the new time
    level is written into the arrays of ``tend`` (which the caller gives
    up) and the correction is formed in ``scratch``, an interior-shaped
    array nothing else is using.
    """
    if prev is None:
        for name in PROGNOSTIC_NAMES:
            nxt = tend[name]
            nxt *= dt
            nxt += now[name]
        return now, tend
    two_dt = 2.0 * dt
    for name in PROGNOSTIC_NAMES:
        nxt = tend[name]
        nxt *= two_dt
        nxt += prev[name]
        if ra_coeff > 0:
            # now += ra_coeff * (prev - 2.0 * now + nxt)
            cur = now[name]
            corr = scratch[:, :, :cur.shape[2]]
            np.multiply(cur, 2.0, out=corr)
            np.subtract(prev[name], corr, out=corr)
            corr += nxt
            corr *= ra_coeff
            cur += corr
    return now, tend


def _physics_balanced(
    ctx,
    cfg: AGCMConfig,
    cols: ColumnSet,
    time_frac: float,
    step: int,
    all_ncols: List[int],
    my_measure: LoadMeasurement,
):
    """Scheme-3 balanced physics: move columns, compute, return results.

    Generator; returns ``(tend_pt, tend_q, columns_moved_by_me,
    new_measure)`` with the tendency arrays covering this rank's *own*
    columns in order and the compute-only measurement of this pass.
    """
    # 1. Share the previous-pass measurements and project per-column
    #    rates onto owned columns — rate-based estimation stays stable
    #    under movement and sees machine slowdowns (stragglers), not
    #    just workload imbalance.
    with ctx.span("physics.lb_plan"):
        measured = yield from ctx.allgather(my_measure.as_tuple())
        loads = estimate_rank_loads(
            [LoadMeasurement.from_tuple(t) for t in measured]
        )
        flow: ColumnFlowPlan = plan_column_flow(
            [float(x) for x in loads], all_ncols, max_passes=cfg.lb_passes
        )

    # 2. Execute the planned column movements, pass by pass.
    #    Working arrays start as our own columns; runs are appended in
    #    exactly the order the plan's holdings record.
    work_pt, work_q = cols.pt, cols.q
    work_lat, work_lon = cols.lat_rad, cols.lon_rad
    moved_by_me = 0
    with ctx.span("physics.lb_exchange"):
        for pass_moves in flow.passes:
            for mv in pass_moves:
                if mv.src == ctx.rank:
                    n = mv.ncols
                    payload = {
                        "pt": work_pt[-n:].copy(),
                        "q": work_q[-n:].copy(),
                        "lat": work_lat[-n:].copy(),
                        "lon": work_lon[-n:].copy(),
                    }
                    work_pt, work_q = work_pt[:-n], work_q[:-n]
                    work_lat, work_lon = work_lat[:-n], work_lon[:-n]
                    yield from ctx.send(mv.dst, payload, tag=_TAG_LB_DATA)
                    moved_by_me += n
                elif mv.dst == ctx.rank:
                    payload = yield from ctx.recv(mv.src, tag=_TAG_LB_DATA)
                    work_pt = np.concatenate([work_pt, payload["pt"]])
                    work_q = np.concatenate([work_q, payload["q"]])
                    work_lat = np.concatenate([work_lat, payload["lat"]])
                    work_lon = np.concatenate([work_lon, payload["lon"]])
    ctx.metrics.counter("agcm.columns_moved").inc(moved_by_me)

    # 3. Compute physics on everything we now hold, measuring the
    #    compute-only seconds for the next pass's estimator.
    held = ColumnSet(pt=work_pt, q=work_q, lat_rad=work_lat, lon_rad=work_lon)
    if held.ncol:
        result = run_physics(
            held, time_frac, step, cfg.physics,
            metrics=ctx.metrics if ctx.obs.enabled else None,
        )
        with ctx.span("physics.compute", ncols=held.ncol):
            t_compute0 = ctx.clock
            yield from ctx.compute(flops=result.total_flops)
        new_measure = LoadMeasurement(
            ctx.clock - t_compute0, held.ncol, cols.ncol
        )
        tend_pt_held, tend_q_held = result.tend_pt, result.tend_q
    else:
        k = cols.nlayers
        new_measure = LoadMeasurement(0.0, 0, cols.ncol)
        tend_pt_held = np.zeros((0, k))
        tend_q_held = np.zeros((0, k))

    # 4. Return guest results to their origins; collect our own.
    tend_pt = np.zeros_like(cols.pt)
    tend_q = np.zeros_like(cols.q)
    offset = 0
    with ctx.span("physics.lb_return"):
        for run in flow.holdings[ctx.rank]:
            seg_pt = tend_pt_held[offset : offset + run.count]
            seg_q = tend_q_held[offset : offset + run.count]
            if run.origin == ctx.rank:
                tend_pt[run.start : run.start + run.count] = seg_pt
                tend_q[run.start : run.start + run.count] = seg_q
            else:
                yield from ctx.send(
                    run.origin,
                    {"start": run.start, "pt": seg_pt.copy(),
                     "q": seg_q.copy()},
                    tag=_TAG_LB_RESULT,
                )
            offset += run.count
        for holder, run in flow.expected_returns(ctx.rank):
            payload = yield from ctx.recv(holder, tag=_TAG_LB_RESULT)
            start, count = payload["start"], payload["pt"].shape[0]
            tend_pt[start : start + count] = payload["pt"]
            tend_q[start : start + count] = payload["q"]
    return tend_pt, tend_q, moved_by_me, new_measure


# ----------------------------------------------------------------------
# 3-D decomposition with leap-format stepping (AGCM-3DLF)
# ----------------------------------------------------------------------

def _pillar_to_columns(comm, block: np.ndarray, col_bounds) -> "np.ndarray":
    """Slab -> column-space transpose of one field.

    ``block`` is this rank's ``(nlat_loc, nlon_loc, nlev_loc)`` slab;
    ``col_bounds[d]`` the share of the tile's lat-major flattened
    columns that pillar member ``d`` takes.  Returns this member's
    ``(my_ncols, nlayers)`` full columns, layer blocks joined in global
    layer order — bit-identical rows of the serial field, read-only.
    """
    flat = block.reshape(col_bounds[-1][1], -1)
    chunks = [
        np.ascontiguousarray(flat[c0:c1]) for c0, c1 in col_bounds
    ]
    return (yield from comm.transpose_to_levels(chunks, join=1))


def _columns_to_pillar(comm, cols: np.ndarray, lev_bounds) -> "np.ndarray":
    """Column-space -> slab transpose (inverse of
    :func:`_pillar_to_columns`).

    ``cols`` is ``(my_ncols, nlayers)``; returns the reassembled
    ``(npts, nlev_loc)`` local-layer block of the whole tile, read-only:
    the members' column shares joined in member order, which is the
    order of the contiguous ``col_bounds`` shares.
    """
    chunks = [
        np.ascontiguousarray(cols[:, l0:l1]) for l0, l1 in lev_bounds
    ]
    return (yield from comm.transpose_from_levels(chunks, join=0))


#: Alias: ``bench/probes.py`` imports the program under this name.
agcm3d_rank_program = agcm_rank_program

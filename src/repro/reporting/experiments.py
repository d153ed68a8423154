"""Experiment runners: one per table/figure of the paper.

Each runner regenerates the corresponding artefact on the virtual
machine models, returning an :class:`ExperimentResult` holding a rendered
paper-style table plus the raw numbers (used by the benchmark harness to
assert the paper's shape claims).  The registry at the bottom maps
experiment identifiers (``"fig1"``, ``"table4"``, ...) to runners.

Everything here is deterministic; runtimes are kept to seconds-to-minutes
by integrating a handful of representative time steps and scaling to
seconds-per-simulated-day (see :mod:`repro.model.timing_report`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core import make_filter_plan, prepare_filter_backend
from repro.core.balance_plan import balanced_assignment, natural_assignment
from repro.core.physics_lb import (
    CyclicShuffleBalancer,
    PairwiseExchangeBalancer,
    SortedGreedyBalancer,
    imbalance,
)
from repro.dynamics.state import scatter_initial_fields
from repro.grid import Decomposition
from repro.model import AGCM, ComponentBreakdown, make_config, plan_column_flow
from repro.model.parallel_agcm import agcm_rank_program
from repro.parallel import PARAGON, T3D, MachineModel, ProcessorMesh, Simulator
from repro.perf import compare_advection_layouts, compare_laplace_layouts
from repro.perf.access_patterns import (
    ADVECTION_STAGES,
    FLUX_E,
    POINTWISE_VARIANTS,
    Layout,
)
from repro.perf.node_model import price
from repro.physics.driver import ColumnSet
from repro.physics.workload import column_flops
from repro.util.tables import Table
from repro.util.validation import check_positive_int

#: Node meshes of the paper's AGCM timing tables (Tables 4-7).
AGCM_MESHES: Tuple[Tuple[int, int], ...] = ((1, 1), (4, 4), (8, 8), (8, 30))
#: Node meshes of the filtering tables (Tables 8-11).
FILTER_MESHES: Tuple[Tuple[int, int], ...] = (
    (4, 4), (4, 8), (8, 8), (4, 30), (8, 30),
)
#: Node arrays of the physics load-balancing tables (Tables 1-3).
PHYSICS_LB_MESHES: Tuple[Tuple[int, int], ...] = ((8, 8), (9, 14), (14, 18))

#: The worked example of Figures 4-6.
FIGURE_LOADS = (65.0, 24.0, 38.0, 15.0)


@dataclass
class ExperimentResult:
    """One regenerated table/figure: rendered text plus raw numbers."""

    ident: str
    title: str
    tables: List[Table]
    data: Dict

    def render(self) -> str:
        """All tables rendered, separated by blank lines."""
        return "\n\n".join(t.render() for t in self.tables)


# ----------------------------------------------------------------------
# Figure 1: execution-time fractions of the major components
# ----------------------------------------------------------------------

def run_fig1(
    machine: MachineModel = PARAGON,
    nsteps: int = 8,
    meshes: Sequence[Tuple[int, int]] = ((4, 4), (8, 30)),
) -> ExperimentResult:
    """Component cost fractions of the original (convolution) code.

    The paper's Figure 1: Dynamics share of the main body and spectral
    filtering share of Dynamics, at 16 and 240 nodes.
    """
    cfg = make_config("2x2.5x9", filter_backend="convolution-ring")
    table = Table(
        "Figure 1 — component fractions, original filtering "
        f"({machine.name})",
        ["nodes", "dynamics s/day", "physics s/day",
         "dynamics %main", "filtering %dynamics"],
    )
    rows = {}
    for dims in meshes:
        mesh = ProcessorMesh(*dims)
        decomp = Decomposition(cfg.nlat, cfg.nlon, mesh)
        res = Simulator(mesh.size, machine).run(
            agcm_rank_program, cfg, decomp, nsteps
        )
        br = ComponentBreakdown.from_result(res, nsteps, cfg)
        main_body = br.dynamics + br.physics
        dyn_frac = br.dynamics / main_body
        filt_frac = br.filtering_fraction_of_dynamics
        table.add_row(
            mesh.size, br.dynamics, br.physics,
            f"{100 * dyn_frac:.0f}%", f"{100 * filt_frac:.0f}%",
        )
        rows[mesh.size] = {
            "dynamics_fraction": dyn_frac,
            "filtering_fraction": filt_frac,
            "breakdown": br,
        }
    return ExperimentResult(
        ident="fig1",
        title="Execution-time fractions of major AGCM components",
        tables=[table],
        data=rows,
    )


# ----------------------------------------------------------------------
# fig_3d: 3-D decomposition (AGCM-3DLF) vs the classic 2-D layout
# ----------------------------------------------------------------------

def run_fig_3d(
    machine: MachineModel = PARAGON,
    nsteps: int = 4,
    meshes: Sequence[Tuple[int, int, int]] = ((4, 4, 1), (2, 2, 4), (4, 2, 2)),
) -> ExperimentResult:
    """3-D (lat x lon x lev) vs 2-D decomposition at a fixed node count.

    A Figure-1-style component breakdown answering *where* the 3-D
    decomposition with leap-format stepping wins over the classic
    horizontal-only layout at the same processor count: taller
    horizontal tiles keep the vectorised inner (longitude) loops long
    under the machine's vector-startup penalty and shrink the halo and
    filter row groups, at the price of the pillar transposes.  The first
    mesh with ``nlev_procs == 1`` is the speedup baseline.
    """
    cfg = make_config("tiny")
    table = Table(
        f"fig_3d — 2-D vs 3-D decomposition, {cfg.nlat} x {cfg.nlon} x "
        f"{cfg.nlayers} grid ({machine.name})",
        ["mesh", "total s/day", "dynamics", "physics",
         "transpose", "speedup vs 2-D"],
    )
    rows: Dict[str, Dict] = {}
    baseline_total: Optional[float] = None
    for dims in meshes:
        p, q, k = (*dims, 1)[:3] if len(dims) == 2 else dims
        mesh = ProcessorMesh(p, q, k)
        decomp = Decomposition(cfg.nlat, cfg.nlon, mesh, cfg.nlayers)
        res = Simulator(mesh.size, machine).run(
            agcm_rank_program, cfg, decomp, nsteps
        )
        br = ComponentBreakdown.from_result(res, nsteps, cfg)
        if baseline_total is None and not mesh.is_3d:
            baseline_total = br.total
        speedup = baseline_total / br.total if baseline_total else None
        label = f"{p}x{q}x{k}"
        table.add_row(
            label, br.total, br.dynamics, br.physics, br.transpose,
            f"{speedup:.2f}x" if speedup is not None else "-",
        )
        rows[label] = {
            "dims": (p, q, k),
            "nodes": mesh.size,
            "total": br.total,
            "speedup_vs_2d": speedup,
            "breakdown": br,
        }
    return ExperimentResult(
        ident="fig_3d",
        title="3-D decomposition with leap-format stepping vs 2-D "
              "at fixed node count",
        tables=[table],
        data=rows,
    )


# ----------------------------------------------------------------------
# Figures 2-3: row redistribution and transpose for balanced filtering
# ----------------------------------------------------------------------

def run_fig2_3(
    mesh_dims: Tuple[int, int] = (4, 8),
    resolution: str = "2x2.5x9",
) -> ExperimentResult:
    """The generic load balancer's row redistribution (eq. 3, Figs 2-3).

    Reports filtered row-units per processor row before/after the
    balanced assignment, and the complete-lines-per-rank distribution
    after the stage-B transpose.
    """
    cfg = make_config(resolution)
    grid = cfg.make_grid()
    mesh = ProcessorMesh(*mesh_dims)
    decomp = Decomposition(cfg.nlat, cfg.nlon, mesh)
    plan = make_filter_plan(grid)
    nat = natural_assignment(plan, decomp)
    bal = balanced_assignment(plan, decomp)

    t1 = Table(
        f"Figure 2 — row units per processor row ({mesh.describe()} mesh, "
        f"{plan.total_rows} units)",
        ["proc row", "natural (unbalanced)", "after redistribution (eq. 3)"],
    )
    nat_rows, bal_rows = [], []
    for r in range(mesh.nlat_procs):
        n_nat = len(nat.units_assigned_to_row(r))
        n_bal = len(bal.units_assigned_to_row(r))
        nat_rows.append(n_nat)
        bal_rows.append(n_bal)
        t1.add_row(r, n_nat, n_bal)

    t2 = Table(
        "Figure 3 — complete lines per rank after the transpose",
        ["assignment", "min", "max", "mean", "idle ranks"],
    )
    nat_lines = nat.lines_per_rank()
    bal_lines = bal.lines_per_rank()
    for label, lines in (("natural", nat_lines), ("balanced", bal_lines)):
        t2.add_row(
            label, int(lines.min()), int(lines.max()),
            f"{lines.mean():.1f}", int((lines == 0).sum()),
        )
    return ExperimentResult(
        ident="fig2_3",
        title="Row redistribution and transpose for load-balanced filtering",
        tables=[t1, t2],
        data={
            "natural_rows": nat_rows,
            "balanced_rows": bal_rows,
            "natural_lines": nat_lines,
            "balanced_lines": bal_lines,
            "rows_moved": bal.rows_moved(),
            "total_units": plan.total_rows,
        },
    )


# ----------------------------------------------------------------------
# Figures 4-6: the three physics load-balancing schemes
# ----------------------------------------------------------------------

def run_fig4_6(loads: Sequence[float] = FIGURE_LOADS) -> ExperimentResult:
    """The worked 4-processor example of Figures 4, 5 and 6."""
    loads = np.asarray(loads, dtype=float)
    s1 = CyclicShuffleBalancer().balance(loads)
    s2 = SortedGreedyBalancer().balance(loads)
    s3 = PairwiseExchangeBalancer(max_passes=2, integer_amounts=True)
    history = s3.balance_history(loads)
    s3_result = s3.balance(loads)

    table = Table(
        "Figures 4-6 — load-balancing schemes on loads "
        f"{[int(x) for x in loads]}",
        ["scheme", "loads after", "% imbalance", "messages", "units moved"],
    )

    def fmt(v):
        return "[" + ", ".join(f"{x:g}" for x in v) + "]"

    for label, res in (
        ("1: cyclic shuffle (Fig 4)", s1),
        ("2: sorted moves (Fig 5)", s2),
        ("3: pairwise x2 (Fig 6)", s3_result),
    ):
        table.add_row(
            label, fmt(res.loads_after),
            f"{100 * res.imbalance_after:.1f}%",
            res.message_count, f"{res.total_moved:g}",
        )

    t_hist = Table(
        "Figure 6 detail — pairwise passes",
        ["stage", "loads", "% imbalance"],
    )
    for i, h in enumerate(history):
        stage = "initial" if i == 0 else f"after pass {i}"
        t_hist.add_row(stage, fmt(h), f"{100 * imbalance(h):.1f}%")

    return ExperimentResult(
        ident="fig4_6",
        title="Physics load-balancing schemes 1-3",
        tables=[table, t_hist],
        data={
            "scheme1": s1,
            "scheme2": s2,
            "scheme3": s3_result,
            "scheme3_history": history,
        },
    )


# ----------------------------------------------------------------------
# Tables 1-3: physics load-balancing simulation
# ----------------------------------------------------------------------

def run_tables1_3(
    machine: MachineModel = T3D,
    meshes: Sequence[Tuple[int, int]] = PHYSICS_LB_MESHES,
    spinup_steps: int = 40,
    time_frac: float = 0.35,
    weight_levels: int = 8,
) -> ExperimentResult:
    """Scheme-3 balancing simulated on measured physics loads (Tables 1-3).

    Exactly the paper's methodology: measure per-rank physics loads,
    assign integer weights (``weight_levels`` units at the mean load,
    matching the granularity of the paper's worked figures), plan one and
    two pairwise passes, and evaluate the *actual* loads that the planned
    column holdings would produce — without moving any model data.
    """
    cfg = make_config("2x2.5x9")
    model = AGCM(cfg)
    model.initialize()
    model.run(spinup_steps)  # develop convective regions / cloud structure
    state, grid = model.state, model.grid

    tables = []
    data = {}
    for t_index, dims in enumerate(meshes):
        mesh = ProcessorMesh(*dims)
        decomp = Decomposition(cfg.nlat, cfg.nlon, mesh)
        per_rank_flops = []
        for sub in decomp.subdomains():
            cols = ColumnSet.from_block(
                state.pt[sub.lat_slice, sub.lon_slice],
                state.q[sub.lat_slice, sub.lon_slice],
                grid.lat_rad[sub.lat_slice],
                grid.lon_rad[sub.lon_slice],
            )
            per_rank_flops.append(
                column_flops(cols, time_frac, spinup_steps, cfg.physics)
            )
        loads0 = np.array([f.sum() for f in per_rank_flops]) / machine.flop_rate
        ncols = [f.size for f in per_rank_flops]
        quantum = loads0.mean() / weight_levels

        def actual_loads(holdings):
            out = np.zeros(len(per_rank_flops))
            for r, runs in enumerate(holdings):
                for run in runs:
                    out[r] += per_rank_flops[run.origin][
                        run.start : run.start + run.count
                    ].sum()
            return out / machine.flop_rate

        # Each balancing application re-measures the loads first ("the
        # load sorting and pairwise data exchange can be repeated"), so
        # the second pass corrects both quantisation and the
        # non-uniformity of the columns the first pass happened to move.
        # Per-column costs in weight units: transfers pop tail columns
        # until their measured costs cover the planned amount.
        costs_w = [
            f / machine.flop_rate / quantum for f in per_rank_flops
        ]
        # Pass 1 plans on the coarse integer weights (the paper's initial
        # estimation); the repeated pass re-measures and plans on the raw
        # loads — "the load sorting and pairwise data exchange can be
        # repeated" with fresh measurements.
        holdings = None
        loads_seq = [loads0]
        current = loads0
        for pass_index in range(2):
            if pass_index == 0:
                plan = plan_column_flow(
                    np.round(current / quantum), ncols, max_passes=1,
                    integer_amounts=True, initial_holdings=holdings,
                    column_costs=costs_w,
                )
            else:
                plan = plan_column_flow(
                    current, ncols, max_passes=1,
                    initial_holdings=holdings,
                    column_costs=[cw * quantum for cw in costs_w],
                )
            holdings = plan.holdings
            current = actual_loads(holdings)
            loads_seq.append(current)
        loads1, loads2 = loads_seq[1], loads_seq[2]

        table = Table(
            f"Table {t_index + 1} — physics load balancing, "
            f"{mesh.describe()} = {mesh.size} nodes ({machine.name})",
            ["code status", "max load (s)", "min load (s)", "% imbalance"],
        )
        series = []
        for label, loads in (
            ("before load-balancing", loads0),
            ("after first load-balancing", loads1),
            ("after second load-balancing", loads2),
        ):
            imb = imbalance(loads)
            table.add_row(
                label, float(loads.max()), float(loads.min()),
                f"{100 * imb:.0f}%",
            )
            series.append(
                {"max": loads.max(), "min": loads.min(), "imbalance": imb}
            )
        tables.append(table)
        data[mesh.size] = series
    return ExperimentResult(
        ident="tables1_3",
        title="Physics load-balancing simulation (scheme 3)",
        tables=tables,
        data=data,
    )


# ----------------------------------------------------------------------
# Tables 4-7: AGCM timings with old/new filtering on both machines
# ----------------------------------------------------------------------

def run_agcm_timing_table(
    machine: MachineModel,
    backend: str,
    meshes: Sequence[Tuple[int, int]] = AGCM_MESHES,
    nsteps: int = 8,
    table_number: Optional[int] = None,
) -> ExperimentResult:
    """One of Tables 4-7: seconds/simulated-day per node mesh.

    ``backend="convolution-ring"`` is the original code, ``"fft-lb"`` the
    optimised one.
    """
    cfg = make_config("2x2.5x9", filter_backend=backend)
    label = "old" if backend.startswith("convolution") else "new"
    num = f"Table {table_number} — " if table_number else ""
    table = Table(
        f"{num}AGCM timings (s/simulated day), {label} filtering "
        f"({backend}) on {machine.name}, 2 x 2.5 x 9",
        ["node mesh", "Dynamics", "Dynamics speedup", "Total (Dyn+Phys)"],
    )
    rows = {}
    serial_dyn = None
    for dims in meshes:
        mesh = ProcessorMesh(*dims)
        decomp = Decomposition(cfg.nlat, cfg.nlon, mesh)
        res = Simulator(mesh.size, machine).run(
            agcm_rank_program, cfg, decomp, nsteps
        )
        br = ComponentBreakdown.from_result(res, nsteps, cfg)
        if serial_dyn is None:
            serial_dyn = br.dynamics
        speedup = serial_dyn / br.dynamics if br.dynamics else 0.0
        table.add_row(
            mesh.describe(), br.dynamics, f"{speedup:.1f}", br.total
        )
        rows[dims] = {
            "dynamics": br.dynamics,
            "speedup": speedup,
            "total": br.total,
            "filtering": br.filtering,
            "physics": br.physics,
        }
    return ExperimentResult(
        ident=f"agcm_{machine.name}_{label}",
        title=f"AGCM timings, {label} filtering, {machine.name}",
        tables=[table],
        data=rows,
    )


def run_table4(**kw) -> ExperimentResult:
    """Table 4: old filtering on the Paragon model."""
    return run_agcm_timing_table(PARAGON, "convolution-ring",
                                 table_number=4, **kw)


def run_table5(**kw) -> ExperimentResult:
    """Table 5: new (load-balanced FFT) filtering on the Paragon model."""
    return run_agcm_timing_table(PARAGON, "fft-lb", table_number=5, **kw)


def run_table6(**kw) -> ExperimentResult:
    """Table 6: old filtering on the T3D model."""
    return run_agcm_timing_table(T3D, "convolution-ring",
                                 table_number=6, **kw)


def run_table7(**kw) -> ExperimentResult:
    """Table 7: new filtering on the T3D model."""
    return run_agcm_timing_table(T3D, "fft-lb", table_number=7, **kw)


# ----------------------------------------------------------------------
# Tables 8-11: isolated filtering costs
# ----------------------------------------------------------------------

def _filter_once_program(ctx, backend, blocks, napps):
    """Rank program: barrier, then apply the filter ``napps`` times.

    Field values are irrelevant to the cost (every ``Compute`` is priced
    from plan and layout counts, every message from array shapes), so the
    rank filters ``blocks[rank]`` in place, whatever earlier runs left in
    it.  The barrier between applications makes the phase timing a clean
    per-component measurement (the way dedicated filter timers would
    behave in the real code).
    """
    fields = blocks[ctx.rank]
    yield from ctx.barrier()
    with ctx.region("filter"):
        for _ in range(napps):
            yield from backend.apply(ctx, fields)
            yield from ctx.barrier(tag=1)
    return None


def run_filtering_table(
    machine: MachineModel,
    nlayers: int,
    meshes: Sequence[Tuple[int, int]] = FILTER_MESHES,
    napps: int = 2,
    table_number: Optional[int] = None,
) -> ExperimentResult:
    """One of Tables 8-11: total filtering time per simulated day.

    Filtering is timed in isolation (barrier-separated applications, as a
    dedicated component timer would), then scaled by the number of
    filtering applications per simulated day (one per dynamics step).
    Each mesh builds one initial state, and its three backend runs filter
    those blocks in turn: no virtual cost depends on field values.
    """
    napps = check_positive_int(napps, "napps")
    cfg = make_config("2x2.5x9").with_(nlayers=nlayers)
    grid = cfg.make_grid()
    plan = make_filter_plan(grid)
    steps_per_day = cfg.steps_per_day()
    num = f"Table {table_number} — " if table_number else ""
    table = Table(
        f"{num}Total filtering times (s/simulated day) on {machine.name}, "
        f"2 x 2.5 x {nlayers}",
        ["node mesh", "Convolution", "FFT without LB", "FFT with LB"],
    )
    backends = ("convolution-ring", "fft", "fft-lb")
    rows = {}
    for dims in meshes:
        mesh = ProcessorMesh(*dims)
        decomp = Decomposition(cfg.nlat, cfg.nlon, mesh)
        blocks = scatter_initial_fields(decomp, grid, nlayers)
        per_day = []
        for name in backends:
            backend = prepare_filter_backend(name, plan, decomp)
            res = Simulator(mesh.size, machine).run(
                _filter_once_program, backend, blocks, napps,
            )
            per_app = res.trace.phase_max("filter") / napps
            per_day.append(per_app * steps_per_day)
        table.add_row(mesh.describe(), *per_day)
        rows[dims] = dict(zip(backends, per_day))
    return ExperimentResult(
        ident=f"filtering_{machine.name}_{nlayers}layer",
        title=f"Filtering times, {nlayers}-layer model, {machine.name}",
        tables=[table],
        data=rows,
    )


def run_table8(**kw) -> ExperimentResult:
    """Table 8: filtering times, Paragon, 9-layer."""
    return run_filtering_table(PARAGON, 9, table_number=8, **kw)


def run_table9(**kw) -> ExperimentResult:
    """Table 9: filtering times, T3D, 9-layer."""
    return run_filtering_table(T3D, 9, table_number=9, **kw)


def run_table10(**kw) -> ExperimentResult:
    """Table 10: filtering times, Paragon, 15-layer."""
    return run_filtering_table(PARAGON, 15, table_number=10, **kw)


def run_table11(**kw) -> ExperimentResult:
    """Table 11: filtering times, T3D, 15-layer."""
    return run_filtering_table(T3D, 15, table_number=11, **kw)


# ----------------------------------------------------------------------
# Supplementary: the IBM SP-2 (paper: "Some timing on IBM SP-2 were also
# performed, but are not shown here" — "qualitatively similar")
# ----------------------------------------------------------------------

def run_sp2_supplementary(
    meshes: Sequence[Tuple[int, int]] = ((4, 4), (8, 8)),
    nsteps: int = 8,
) -> ExperimentResult:
    """AGCM timings on the SP-2 model — the results the paper omitted.

    Checks the paper's claim that the SP-2 behaves qualitatively like the
    Paragon and T3D: same old-vs-new filtering ordering, speedups in the
    same band.
    """
    from repro.parallel import SP2

    table = Table(
        "Supplementary — AGCM timings (s/simulated day) on the SP-2 model, "
        "2 x 2.5 x 9",
        ["node mesh", "Dynamics (old)", "Dynamics (new)", "new/old"],
    )
    cfg_old = make_config("2x2.5x9", filter_backend="convolution-ring")
    cfg_new = make_config("2x2.5x9", filter_backend="fft-lb")
    rows = {}
    for dims in meshes:
        mesh = ProcessorMesh(*dims)
        decomp = Decomposition(cfg_old.nlat, cfg_old.nlon, mesh)
        per = {}
        for key, cfg in (("old", cfg_old), ("new", cfg_new)):
            res = Simulator(mesh.size, SP2).run(
                agcm_rank_program, cfg, decomp, nsteps
            )
            per[key] = ComponentBreakdown.from_result(res, nsteps, cfg)
        table.add_row(
            mesh.describe(), per["old"].dynamics, per["new"].dynamics,
            f"{per['new'].dynamics / per['old'].dynamics:.2f}",
        )
        rows[dims] = per
    return ExperimentResult(
        ident="sp2_supplementary",
        title="SP-2 supplementary timings",
        tables=[table],
        data=rows,
    )


# ----------------------------------------------------------------------
# Section 3.4 single-node experiments
# ----------------------------------------------------------------------

def run_blockarray(n: int = 32, m: int = 8,
                   advection_fields: int = 12) -> ExperimentResult:
    """Block-array vs separate-array layouts (Section 3.4).

    The isolated 7-point Laplace (paper: 5x on Paragon, 2.6x on T3D) and
    the mixed-loop advection follow-up (paper: no advantage).
    """
    table = Table(
        f"Section 3.4 — block-array speedup over separate arrays "
        f"({n}^3 fields)",
        ["experiment", "machine", "separate misses", "block misses",
         "block speedup"],
    )
    data = {}
    for machine in (PARAGON, T3D):
        c = compare_laplace_layouts(machine, n=n, m=m)
        table.add_row(
            f"7-pt Laplace x{m}", machine.name,
            c.separate_misses, c.block_misses, f"{c.block_speedup:.2f}x",
        )
        data[("laplace", machine.name)] = c
    for machine in (PARAGON, T3D):
        c = compare_advection_layouts(machine, n=n, m=advection_fields)
        table.add_row(
            "advection loop mix", machine.name,
            c.separate_misses, c.block_misses, f"{c.block_speedup:.2f}x",
        )
        data[("advection", machine.name)] = c
    return ExperimentResult(
        ident="blockarray",
        title="Block-array vs separate-array cache behaviour",
        tables=[table],
        data=data,
    )


def _stage_table(title: str, times: Dict[str, float]) -> Table:
    """One row per stage: its priced time, and its change from the first
    row and from the previous row."""
    table = Table(title, ["variant", "time", "vs naive", "vs previous"])
    first = next(iter(times.values()))
    prev = None
    for name, t in times.items():
        table.add_row(
            name, f"{t * 1e3:.2f} ms",
            "" if prev is None else f"{100 * (t / first - 1):+.0f}%",
            "" if prev is None else f"{100 * (t / prev - 1):+.0f}%",
        )
        prev = t
    return table


def run_advection_opt(n: int = 32) -> ExperimentResult:
    """The advection routine's four restructuring stages, priced on the
    node model of each machine (Section 3.4).

    Paper: loop restructuring cut the routine's time on one T3D node by
    about 35 %.  The stages are the loops of
    :data:`~repro.perf.access_patterns.ADVECTION_STAGES` on an ``n^3``
    grid of separate arrays whose bases are staggered, as in a real
    program.
    """
    layout = Layout((n, n, n), stagger_lines=3, rows=(FLUX_E,))
    tables, data = [], {}
    for machine in (PARAGON, T3D):
        times = {name: price(nests, layout, machine)[0]
                 for name, nests in ADVECTION_STAGES.items()}
        tables.append(_stage_table(
            f"Section 3.4 — advection routine restructuring, "
            f"{machine.name} node model ({n - 2}^3 cells)", times))
        data[machine.name] = times
    return ExperimentResult(
        ident="advection_opt",
        title="Advection single-node optimisation",
        tables=tables,
        data=data,
    )


def run_pointwise(n: int = 36_864, m: int = 9) -> ExperimentResult:
    """The pointwise vector-multiply kernel (eq. 4), priced on the node
    model of each machine.

    ``n`` = 36 864 puts ``a`` and ``out`` (288 KB each) well past both
    caches, where the unit-stride stream misses once per line and the
    price grows linearly with ``n``.
    """
    if n % m:
        raise ValueError(f"n={n} must be divisible by m={m}")
    layout = Layout((m, n // m, 1), stagger_lines=3)
    tables, data = [], {}
    for machine in (PARAGON, T3D):
        times = {name: price(nests, layout, machine, halo=0)[0]
                 for name, nests in POINTWISE_VARIANTS.items()}
        tables.append(_stage_table(
            f"Section 3.4 — pointwise vector-multiply (eq. 4), "
            f"{machine.name} node model, n={n}, m={m}", times))
        data[machine.name] = times
    return ExperimentResult(
        ident="pointwise",
        title="Pointwise vector-multiply kernel",
        tables=tables,
        data=data,
    )


def run_faults(
    nsteps: int = 8, dims: Tuple[int, int] = (2, 2)
) -> ExperimentResult:
    """Fault-tolerance overhead: checkpoint interval x failure x mitigation.

    Two tables from the resilience subsystem (``repro.faults``): the
    cost of running the AGCM through seeded message drops and a rank
    failure at different checkpoint intervals (overhead vs the
    fault-free baseline; interval 0 = no checkpoints, so a failure
    restarts cold from step 0), and the straggler table — a 2x
    slowdown on one rank with the static balancer vs measured-time
    scheme-3 rebalancing.
    """
    import tempfile
    from pathlib import Path

    from repro.faults import FaultPlan, LinkFault, RankFailure
    from repro.faults.mitigation import run_straggler_demo
    from repro.guard import GuardConfig, run_agcm_guarded

    machine = T3D
    cfg = make_config("tiny", physics_every=2)
    mesh = ProcessorMesh(*dims)
    decomp = Decomposition(cfg.nlat, cfg.nlon, mesh)
    baseline = Simulator(mesh.size, machine).run(
        agcm_rank_program, cfg, decomp, nsteps
    )
    drops = (LinkFault(drop_rate=0.01),)
    scenarios = [
        ("fault-free", None),
        ("1% drops", FaultPlan(seed=96, link_faults=drops)),
        (
            "drops + rank failure",
            FaultPlan(
                seed=96,
                link_faults=drops,
                failures=(RankFailure(rank=1, at=0.6 * baseline.elapsed),),
            ),
        ),
    ]
    overhead_table = Table(
        f"Fault-tolerance overhead on {machine.name}, {dims[0]}x{dims[1]} "
        f"mesh, {nsteps} steps (tiny config)",
        ["scenario", "ckpt every", "total s", "overhead %", "restarts",
         "retransmits"],
    )
    overhead_rows = []
    disk_only = GuardConfig(detect=False, buddy_every=0)
    for name, plan in scenarios:
        for every in (0, 2, 4):
            with tempfile.TemporaryDirectory() as td:
                out = run_agcm_guarded(
                    cfg, decomp, nsteps, machine,
                    guard=disk_only,
                    faults=plan,
                    checkpoint_every=every,
                    checkpoint_path=(
                        Path(td) / "checkpoint.npz" if every else None
                    ),
                    return_fields=False,
                )
            retrans = sum(
                r.messages_retransmitted for r in out.result.trace.ranks
            )
            overhead = (
                100.0 * (out.total_elapsed - baseline.elapsed)
                / baseline.elapsed
            )
            overhead_table.add_row(
                name, every if every else "off", out.total_elapsed,
                f"{overhead:.1f}", out.recoveries, retrans,
            )
            overhead_rows.append({
                "scenario": name,
                "checkpoint_every": every,
                "total_elapsed": out.total_elapsed,
                "overhead_pct": overhead,
                "restarts": out.recoveries,
                "retransmits": retrans,
            })
    straggler_table = Table(
        "Straggler mitigation: one rank 2x slower, physics balanced by "
        "measured virtual times (scheme 3)",
        ["balancer", "physics imbalance %", "columns moved", "total s"],
    )
    straggler_rows = []
    for mitigate in (False, True):
        demo = run_straggler_demo(mitigate=mitigate, machine=machine)
        straggler_table.add_row(
            "measured-time scheme 3" if mitigate else "static (off)",
            f"{100.0 * demo['imbalance']:.1f}",
            demo["columns_moved"],
            demo["elapsed"],
        )
        straggler_rows.append({
            "mitigate": mitigate,
            "imbalance": demo["imbalance"],
            "columns_moved": demo["columns_moved"],
            "elapsed": demo["elapsed"],
        })
    return ExperimentResult(
        ident="faults",
        title="Fault injection: checkpoint overhead and straggler mitigation",
        tables=[overhead_table, straggler_table],
        data={
            "baseline_elapsed": baseline.elapsed,
            "overhead": overhead_rows,
            "straggler": straggler_rows,
        },
    )


def run_bigmesh(
    machine: MachineModel = T3D,
    meshes: Sequence[Tuple[int, int]] = ((32, 40),),
    napps: int = 1,
    nlayers: int = 9,
) -> ExperimentResult:
    """Large-mesh smoke: load-balanced FFT filtering at 1000+ ranks.

    Exercises the hot-path engine well beyond the paper's 240-node
    production mesh: each mesh applies the ``fft-lb`` filter, whose
    transpose all-to-alls run through the scheduler's bulk
    all-to-all executor.  All reported numbers
    are deterministic virtual quantities (elapsed seconds, message and
    byte totals), so the experiment doubles as a regression canary for
    the 1280-rank acceptance criterion of the engine overhaul.
    """
    napps = check_positive_int(napps, "napps")
    cfg = make_config("2x2.5x9").with_(nlayers=nlayers)
    grid = cfg.make_grid()
    plan = make_filter_plan(grid)
    table = Table(
        f"Big-mesh smoke — fft-lb filtering at scale ({machine.name}, "
        f"2 x 2.5 x {nlayers})",
        ["node mesh", "ranks", "virtual s/app", "messages", "MB moved"],
    )
    rows = {}
    for dims in meshes:
        mesh = ProcessorMesh(*dims)
        decomp = Decomposition(cfg.nlat, cfg.nlon, mesh)
        backend = prepare_filter_backend("fft-lb", plan, decomp)
        res = Simulator(mesh.size, machine).run(
            _filter_once_program, backend,
            scatter_initial_fields(decomp, grid, nlayers), napps,
        )
        messages = res.trace.total_messages()
        nbytes = res.trace.total_bytes()
        per_app = res.elapsed / napps
        table.add_row(
            mesh.describe(), mesh.size, per_app, messages,
            f"{nbytes / 1e6:.1f}",
        )
        rows[dims] = {
            "ranks": mesh.size,
            "elapsed": res.elapsed,
            "per_app": per_app,
            "messages": messages,
            "bytes": nbytes,
        }
    return ExperimentResult(
        ident="bigmesh",
        title="Large-mesh filtering smoke (bulk engine path)",
        tables=[table],
        data=rows,
    )


def run_guard(
    nsteps: int = 8,
    dims: Tuple[int, int] = (2, 2),
    guard=None,
) -> ExperimentResult:
    """Guard supervision: detector overhead, recovery matrix, buddy cost.

    Three tables from the numerical-health subsystem (``repro.guard``):
    the per-step cost of the detectors and buddy snapshots relative to an
    unguarded run (the ISSUE's <=5% budget), a scenario x policy matrix
    (NaN corruption and a machine rank failure, healed by each recovery
    policy), and the diskless buddy snapshot vs the disk checkpointer at
    matched intervals.  ``guard=`` (a :class:`repro.guard.GuardConfig`)
    overrides the detector cadences used throughout.
    """
    import tempfile
    from pathlib import Path

    from repro.faults import FaultPlan, RankFailure
    from repro.guard import GuardConfig, StateCorruption, run_agcm_guarded

    machine = T3D
    cfg = make_config("tiny", physics_every=2)
    mesh = ProcessorMesh(*dims)
    decomp = Decomposition(cfg.nlat, cfg.nlon, mesh)
    base = guard if guard is not None else GuardConfig()
    baseline = Simulator(mesh.size, machine).run(
        agcm_rank_program, cfg, decomp, nsteps
    )

    # -- overhead: detectors alone, then detectors + buddy snapshots ----
    overhead_table = Table(
        f"Guard overhead on {machine.name}, {dims[0]}x{dims[1]} mesh, "
        f"{nsteps} steps (tiny config)",
        ["configuration", "total s", "overhead %"],
    )
    overhead_rows = []
    variants = [
        ("unguarded", None),
        ("detectors off, buddy off", base.with_(detect=False, buddy_every=0)),
        ("detectors on, buddy off", base.with_(buddy_every=0)),
        (
            f"detectors on, buddy every {max(base.buddy_every, 1)}",
            base.with_(buddy_every=max(base.buddy_every, 1)),
        ),
    ]
    for label, gcfg in variants:
        if gcfg is None:
            elapsed = baseline.elapsed
        else:
            out = run_agcm_guarded(
                cfg, decomp, nsteps, machine, guard=gcfg, return_fields=False
            )
            elapsed = out.result.elapsed
        pct = 100.0 * (elapsed - baseline.elapsed) / baseline.elapsed
        overhead_table.add_row(label, elapsed, f"{pct:.2f}")
        overhead_rows.append(
            {"label": label, "elapsed": elapsed, "overhead_pct": pct}
        )

    # -- recovery matrix: scenario x policy -----------------------------
    scenarios = [
        (
            "NaN at mid-run",
            dict(injections=(
                StateCorruption(step=nsteps // 2, rank=1 % mesh.size),
            )),
            None,
        ),
        (
            "rank failure",
            dict(),
            FaultPlan(
                seed=96,
                failures=(
                    RankFailure(rank=1 % mesh.size,
                                at=0.6 * baseline.elapsed),
                ),
            ),
        ),
    ]
    matrix_table = Table(
        "Recovery matrix: scenario x policy (buddy snapshots on)",
        ["scenario", "policy", "recoveries", "restore", "total s",
         "lost work %"],
    )
    matrix_rows = []
    for sname, gkw, plan in scenarios:
        for policy in ("rollback_retry", "rollback_adapt"):
            gcfg = base.with_(policy=policy, **gkw)
            with tempfile.TemporaryDirectory() as td:
                out = run_agcm_guarded(
                    cfg, decomp, nsteps, machine, guard=gcfg, faults=plan,
                    checkpoint_every=max(base.buddy_every, 2),
                    checkpoint_path=Path(td) / "guard-ck.npz",
                    return_fields=False,
                )
            sources = {d.source for d in out.decisions if d.source}
            lost = (
                100.0 * (out.total_elapsed - baseline.elapsed)
                / baseline.elapsed
            )
            matrix_table.add_row(
                sname, policy, out.recoveries,
                "+".join(sorted(sources)) or "-",
                out.total_elapsed, f"{lost:.1f}",
            )
            matrix_rows.append({
                "scenario": sname,
                "policy": policy,
                "recoveries": out.recoveries,
                "sources": sorted(sources),
                "total_elapsed": out.total_elapsed,
                "lost_pct": lost,
            })

    # -- buddy snapshot vs disk checkpoint at matched intervals ---------
    ckpt_table = Table(
        "Checkpoint cost per interval: diskless buddy vs disk "
        f"({machine.name}, {nsteps} steps)",
        ["interval", "buddy ckpt s", "disk ckpt s", "disk/buddy"],
    )
    ckpt_rows = []
    # an interval no snapshot falls due at (every >= nsteps) has no
    # "checkpoint" phase to price — skip it rather than divide by zero
    for every in (e for e in (1, 2, 4) if e < nsteps):
        gcfg = base.with_(detect=False, buddy_every=every)
        buddy_out = run_agcm_guarded(
            cfg, decomp, nsteps, machine, guard=gcfg, return_fields=False
        )
        buddy_s = buddy_out.result.trace.phase_max("checkpoint")
        with tempfile.TemporaryDirectory() as td:
            disk_out = run_agcm_guarded(
                cfg, decomp, nsteps, machine,
                guard=base.with_(detect=False, buddy_every=0),
                checkpoint_every=every,
                checkpoint_path=Path(td) / "ck.npz",
                return_fields=False,
            )
        disk_s = disk_out.result.trace.phase_max("checkpoint")
        ratio = disk_s / buddy_s if buddy_s else float("inf")
        ckpt_table.add_row(every, buddy_s, disk_s, f"{ratio:.1f}x")
        ckpt_rows.append({
            "every": every,
            "buddy_seconds": buddy_s,
            "disk_seconds": disk_s,
            "ratio": ratio,
        })

    return ExperimentResult(
        ident="guard",
        title="Numerical-health supervision: overhead, recovery, buddy "
              "checkpointing",
        tables=[overhead_table, matrix_table, ckpt_table],
        data={
            "baseline_elapsed": baseline.elapsed,
            "overhead": overhead_rows,
            "matrix": matrix_rows,
            "checkpoint": ckpt_rows,
        },
    )


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------

#: Cost tiers an :class:`ExperimentSpec` may declare, cheapest first.
COST_TIERS = ("fast", "medium", "slow")


@dataclass(frozen=True)
class ParamPoint:
    """One enumerable parameter point of an experiment.

    A point is a labelled bundle of runner keyword options — one mesh of
    a timing table, one machine model, one filter variant.  Points are
    the unit of work the campaign engine (:mod:`repro.campaign`) shards
    across workers and memoizes in its content-addressed cache, so they
    are hashable (options are stored as a sorted tuple of pairs) and
    their option values must be built from primitives, tuples and
    strings.  A ``machine`` option may name a preset model (``"t3d"``);
    the campaign resolves it via :func:`repro.parallel.make_machine`
    just before calling the runner, keeping the point itself cacheable.
    """

    label: str
    options: Tuple[Tuple[str, object], ...] = ()

    @classmethod
    def make(cls, label: str, **options) -> "ParamPoint":
        return cls(label, tuple(sorted(options.items())))

    def as_dict(self) -> Dict[str, object]:
        return dict(self.options)

    def __str__(self) -> str:
        return self.label


def _mesh_points(meshes: Sequence[Tuple[int, int]],
                 option: str = "meshes") -> Tuple[ParamPoint, ...]:
    """One point per node mesh: ``meshes=((p, q),)`` labelled ``pxq``.

    Splitting a timing table into per-mesh points is what lets the
    campaign scheduler run a slow table's meshes on different workers
    instead of serializing them inside one unit.
    """
    return tuple(
        ParamPoint.make(f"{p}x{q}", **{option: ((p, q),)})
        for p, q in meshes
    )


@dataclass(frozen=True)
class ExperimentSpec:
    """A registered experiment: name, documentation and cost, sans side
    effects.

    The registry used to map identifiers straight to runner callables,
    so merely *listing* experiments with their docs meant touching the
    runners; descriptors carry everything ``list``/``--help`` need
    (including the cost tier rendered as a hint) without calling
    anything.  Specs remain callable, delegating to the runner, so
    ``EXPERIMENTS[ident](**options)`` keeps working.
    """

    name: str
    runner: Callable[..., ExperimentResult]
    #: One of :data:`COST_TIERS` — a wall-clock hint for ``list``:
    #: "fast" finishes in seconds, "medium" in tens of seconds,
    #: "slow" takes minutes.
    cost: str = "medium"
    #: Enumerable parameter points (one campaign work unit each).  Empty
    #: means the experiment is a single indivisible unit run with its
    #: default options.
    points: Tuple[ParamPoint, ...] = ()

    def __post_init__(self) -> None:
        if self.cost not in COST_TIERS:
            raise ValueError(
                f"experiment {self.name!r}: cost {self.cost!r} not in "
                f"{COST_TIERS}"
            )
        labels = [p.label for p in self.points]
        if len(set(labels)) != len(labels):
            raise ValueError(
                f"experiment {self.name!r}: duplicate point labels "
                f"{labels}"
            )

    @property
    def doc(self) -> str:
        """First line of the runner's docstring."""
        return (self.runner.__doc__ or "").strip().splitlines()[0]

    def param_points(self) -> Tuple[ParamPoint, ...]:
        """The enumerable points, or the single default point."""
        return self.points or (ParamPoint("default"),)

    def point(self, label: str) -> ParamPoint:
        """Look up one of :meth:`param_points` by label."""
        for p in self.param_points():
            if p.label == label:
                return p
        raise KeyError(
            f"experiment {self.name!r} has no point {label!r}; "
            f"available: {[p.label for p in self.param_points()]}"
        )

    def __call__(self, **options) -> ExperimentResult:
        return self.runner(**options)


def _specs(*entries):
    return {e[0]: ExperimentSpec(*e) for e in entries}


EXPERIMENTS: Dict[str, ExperimentSpec] = _specs(
    ("fig1", run_fig1, "medium", _mesh_points(((4, 4), (8, 30)))),
    ("fig_3d", run_fig_3d, "fast", tuple(
        ParamPoint.make(f"{p}x{q}x{k}", meshes=((p, q, k),))
        for p, q, k in ((4, 4, 1), (2, 2, 4), (4, 2, 2))
    )),
    ("fig2_3", run_fig2_3, "fast", (
        ParamPoint.make("4x8", mesh_dims=(4, 8)),
        ParamPoint.make("8x8", mesh_dims=(8, 8)),
    )),
    ("fig4_6", run_fig4_6, "fast"),
    ("tables1_3", run_tables1_3, "slow", _mesh_points(PHYSICS_LB_MESHES)),
    ("table4", run_table4, "slow", _mesh_points(AGCM_MESHES)),
    ("table5", run_table5, "slow", _mesh_points(AGCM_MESHES)),
    ("table6", run_table6, "slow", _mesh_points(AGCM_MESHES)),
    ("table7", run_table7, "slow", _mesh_points(AGCM_MESHES)),
    ("table8", run_table8, "medium", _mesh_points(FILTER_MESHES)),
    ("table9", run_table9, "medium", _mesh_points(FILTER_MESHES)),
    ("table10", run_table10, "slow", _mesh_points(FILTER_MESHES)),
    ("table11", run_table11, "slow", _mesh_points(FILTER_MESHES)),
    ("blockarray", run_blockarray, "fast"),
    ("sp2", run_sp2_supplementary, "medium",
     _mesh_points(((4, 4), (8, 8)))),
    ("advection_opt", run_advection_opt, "medium"),
    ("pointwise", run_pointwise, "medium"),
    ("faults", run_faults, "medium"),
    ("guard", run_guard, "medium"),
    ("bigmesh", run_bigmesh, "slow", _mesh_points(((32, 40),))),
)


def run_experiment(ident: str, *, obs=None, **options) -> ExperimentResult:
    """Run a registered experiment by identifier.

    All runner options are keyword-only (``nsteps=``, ``meshes=``,
    ``machine=``, ... — see the individual runner signatures).  ``obs``
    optionally attaches a :class:`repro.obs.Observer`: it is made
    ambient for the duration of the run, so every simulator the runner
    launches records spans and metrics into it.
    """
    if ident not in EXPERIMENTS:
        raise KeyError(
            f"unknown experiment {ident!r}; available: {sorted(EXPERIMENTS)}"
        )
    spec = EXPERIMENTS[ident]
    if obs is None:
        return spec(**options)
    from repro.obs import activate

    with activate(obs):
        return spec(**options)

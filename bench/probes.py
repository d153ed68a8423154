"""Layer probes: each layer's public functions timed from outside.

A traced run calls :func:`run_probes` once, after its traced pass.  The
inputs are fixed (no seed), so a probe reads the same whatever workload
the run belongs to; every probe first runs once untimed so it measures a
warm layer, and a repeated call reads as its steady value
(``catalogue.steady``).  Each returns ``{metric name: (value, sample count)}``;
units are in ``catalogue.py``.
"""

from __future__ import annotations

import asyncio
import os
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Callable, Dict, List, Tuple

import numpy as np

import repro
import repro.api as api
from repro.campaign import (
    SWEEPS,
    ResultCache,
    UnitOutcome,
    cache_key,
    enumerate_units,
    execute_unit,
)
from repro.core import (
    apply_serial_filter,
    make_filter_plan,
    prepare_filter_backend,
)
from repro.dynamics.geometry import LocalGeometry
from repro.dynamics.state import ModelState, initial_fields_block
from repro.dynamics.tendencies import compute_tendencies
from repro.fleet.frames import decode_frame, encode_frame
from repro.grid import Decomposition2D, SphericalGrid, exchange_halos, pad_with_halo
from repro.grid.decomposition3d import Decomposition3D
from repro.model import AGCM, agcm_rank_program, make_config
from repro.model.parallel_agcm import agcm3d_rank_program
from repro.obs import chrome_trace
from repro.options import RunOptions
from repro.parallel import GENERIC, PARAGON, ProcessorMesh, Simulator
from repro.perf.simbench import probe_program
from repro.physics.driver import ColumnSet, run_physics
from repro.results import Ingestor, ResultsDB
from repro.serve import Gateway, ServeConfig

from catalogue import steady
from service import GatewayProcess, closed_loop, percentile
from spans import SpanRecorder
from workloads import CHEAP_SELECTORS, PARALLELISM, p2p_ring_program

Probe = Dict[str, Tuple[float, int]]


def _steady_s(fn: Callable[[], object], repeat: int) -> float:
    """Steady seconds of ``repeat`` calls, after one untimed call."""
    fn()
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return steady(times)


# -- repro.parallel ------------------------------------------------------
def probe_parallel() -> Probe:
    out: Probe = {}
    messages = nbytes = 0
    for name, nranks, program, arg, repeat in (
        ("probe240", 240, probe_program, 4, 3),
        ("probe640", 640, probe_program, 1, 2),
        ("p2p_ring", 240, p2p_ring_program, 100, 3),
    ):
        last = {}

        def run() -> None:
            last["sim"] = Simulator(nranks, GENERIC).run(program, arg)

        wall = _steady_s(run, repeat)
        trace = last["sim"].trace
        events = sum(r.messages_sent + r.messages_received
                     for r in trace.ranks)
        out[f"parallel.{name}_events_per_s"] = (events / wall, repeat)
        messages += trace.total_messages()
        nbytes += trace.total_bytes()
    out["parallel.messages"] = (messages, 1)
    out["parallel.bytes"] = (nbytes, 1)
    return out


# -- repro.core ----------------------------------------------------------
_FILTER_BACKENDS = {
    "convolution-ring": "conv_ring", "convolution-tree": "conv_tree",
    "fft": "fft_transpose", "fft-lb": "fft_lb",
    "fft-distributed": "fft_distributed",
}


def probe_core() -> Probe:
    # Power-of-two lines on a 4x8 mesh: the one shape all five backends,
    # the distributed FFT included, accept.
    grid = SphericalGrid(nlat=32, nlon=128)
    nlayers = 9
    decomp = Decomposition2D(grid.nlat, grid.nlon, ProcessorMesh(4, 8))
    plan = make_filter_plan(grid)

    def program(ctx, backend):
        sub = decomp.subdomain(ctx.rank)
        fields = initial_fields_block(grid.lat_rad[sub.lat_slice],
                                      grid.lon_rad[sub.lon_slice], nlayers)
        yield from ctx.barrier()
        yield from backend.apply(ctx, fields)

    out: Probe = {}
    for backend_name, short in _FILTER_BACKENDS.items():
        backend = prepare_filter_backend(backend_name, plan, decomp)
        out[f"core.filter_{short}_s"] = (_steady_s(
            lambda: Simulator(decomp.mesh.size, PARAGON).run(program, backend),
            3), 3)

    paper = make_config("2x2.5x9")
    paper_grid = paper.make_grid()
    paper_plan = make_filter_plan(paper_grid)
    fields = initial_fields_block(paper_grid.lat_rad, paper_grid.lon_rad,
                                  paper.nlayers)
    out["core.serial_filter_ms"] = (_steady_s(
        lambda: apply_serial_filter(paper_plan, fields), 10) * 1e3, 10)
    return out


# -- repro.model, dynamics, physics, grid --------------------------------
def probe_model() -> Probe:
    out: Probe = {}
    paper = make_config("2x2.5x9")
    model = AGCM(paper)
    model.initialize()
    out["model.serial_step_ms"] = (_steady_s(model.step, 8) * 1e3, 8)

    tiny = make_config("tiny")
    mesh2d, mesh3d = ProcessorMesh(4, 4), ProcessorMesh(2, 2, 4)
    decomp2d = Decomposition2D(tiny.nlat, tiny.nlon, mesh2d)
    decomp3d = Decomposition3D(tiny.nlat, tiny.nlon, tiny.nlayers, mesh3d)
    out["model.rank2d_4x4_s"] = (_steady_s(
        lambda: Simulator(mesh2d.size, PARAGON).run(
            agcm_rank_program, tiny, decomp2d, 4), 3), 3)
    out["model.rank3d_2x2x4_s"] = (_steady_s(
        lambda: Simulator(mesh3d.size, PARAGON).run(
            agcm3d_rank_program, tiny, decomp3d, 4), 3), 3)

    grid = paper.make_grid()
    state = ModelState.baroclinic_test(grid, paper.nlayers, seed=paper.seed)
    geom = LocalGeometry.from_grid(grid)
    padded = {name: pad_with_halo(arr)
              for name, arr in state.fields().items()}
    out["dynamics.tendencies_ms"] = (_steady_s(
        lambda: compute_tendencies(padded, geom, paper.dynamics), 8) * 1e3, 8)
    columns = ColumnSet.from_block(state.pt, state.q, grid.lat_rad,
                                   grid.lon_rad)
    out["physics.run_physics_ms"] = (_steady_s(
        lambda: run_physics(columns, 0.25, 0, paper.physics), 8) * 1e3, 8)

    decomp = Decomposition2D(paper.nlat, paper.nlon, mesh2d)

    def halo_program(ctx):
        sub = decomp.subdomain(ctx.rank)
        local = np.full((sub.nlat, sub.nlon, paper.nlayers), float(ctx.rank))
        for _ in range(20):
            yield from exchange_halos(ctx, decomp, local)

    out["grid.halo_exchange_s"] = (_steady_s(
        lambda: Simulator(mesh2d.size, PARAGON).run(halo_program), 3), 3)
    return out


# -- repro.api -----------------------------------------------------------
def probe_api() -> Probe:
    def import_api() -> None:
        subprocess.run([sys.executable, "-c", "import repro.api"],
                       check=True)

    return {
        "api.run_overhead_us": (
            _steady_s(lambda: api.run("fig4_6"), 200) * 1e6, 200),
        "api.import_s": (_steady_s(import_api, 3), 3),
    }


# -- repro.campaign, results, fleet, serve -------------------------------
def _each(fn: Callable[[int], object], n: int) -> float:
    """Median seconds of ``fn(0) .. fn(n - 1)``."""
    times = []
    for i in range(n):
        t0 = time.perf_counter()
        fn(i)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _cheap_units():
    return enumerate_units(CHEAP_SELECTORS)


def _fill_store(root: str, name: str, entries: int):
    """A ``ResultCache`` holding one real result under ``entries`` keys."""
    unit = _cheap_units()[0]
    value = execute_unit(unit)
    store = ResultCache(os.path.join(root, name))
    meta = {"ident": unit.ident, "point": unit.point.label, "duration": 0.1}
    put_s = _each(lambda i: store.put(f"{i:064x}", value, meta), entries)
    return store, value, put_s


def probe_campaign(root: str) -> Probe:
    out: Probe = {}
    units = _cheap_units()
    point = units[0].point
    out["campaign.enumerate_ms"] = (_steady_s(
        lambda: enumerate_units(SWEEPS["full"]), 20) * 1e3, 20)
    out["campaign.cache_key_us"] = (_steady_s(
        lambda: cache_key(units[0].ident,
                          {"point": point.label, "options": point.as_dict()},
                          repro.__version__), 2000) * 1e6, 2000)
    store, _value, put_s = _fill_store(root, "store", 50)
    out["campaign.cache_put_ms"] = (put_s * 1e3, 50)
    out["campaign.cache_get_us"] = (_each(
        lambda i: store.get(f"{i % 50:064x}"), 200) * 1e6, 200)
    out["campaign.cache_miss_us"] = (_each(
        lambda i: store.get(f"{i + 1000:064x}"), 200) * 1e6, 200)

    # A small pool run: what the pool costs beyond the units' own compute.
    labels = [u.label for u in units]
    options = RunOptions(workers=PARALLELISM,
                         cache_dir=os.path.join(root, "campaign-cache"),
                         results_db=os.path.join(root, "campaign.db"))
    t0 = time.perf_counter()
    cold = api.run_campaign(labels, options=options)
    cold_wall = time.perf_counter() - t0
    workers = min(PARALLELISM, len(units))
    out["campaign.pool_dispatch_ms_per_unit"] = (
        (cold_wall - cold.serial_seconds / workers) / len(units) * 1e3, 1)
    out["campaign.hit_ratio"] = (
        api.run_campaign(labels, options=options).hit_rate, 1)
    return out


def probe_results(root: str) -> Probe:
    out: Probe = {}
    with ResultsDB(os.path.join(root, "results.db")) as db:
        out["results.record_run_ms"] = (_each(
            lambda i: db.record_run(
                run_key=f"{i:064x}", source="bench", ident="probe",
                metrics={"duration_seconds": (0.1, "s")}), 100) * 1e3, 100)
        out["results.record_hit_ms"] = (_each(
            lambda i: db.record_hit(f"{i:064x}"), 100) * 1e3, 100)
    store, _value, _put_s = _fill_store(root, "ingest-store", 16)
    with ResultsDB(os.path.join(root, "ingest.db")) as db:
        t0 = time.perf_counter()
        Ingestor(db).ingest_cache_dir(store.root)
        out["results.ingest_cache_dir_ms"] = (
            (time.perf_counter() - t0) * 1e3, 1)
    return out


def probe_fleet() -> Probe:
    # One result frame, the size a worker sends back.
    unit = _cheap_units()[0]
    outcome = UnitOutcome(ident=unit.ident, label=unit.label, key=unit.key,
                          status="ran", worker=0, seconds=0.1,
                          compute_seconds=0.1, result=execute_unit(unit))
    frame = encode_frame("result", outcome)
    return {
        "fleet.frame_encode_us": (_steady_s(
            lambda: encode_frame("result", outcome), 200) * 1e6, 200),
        "fleet.frame_decode_us": (_steady_s(
            lambda: decode_frame(frame), 200) * 1e6, 200),
    }


def _hit_latencies(cache_dir: str, results_db, sequence: List[str]):
    """Seconds of each warm hit over one closed-loop connection to a
    gateway process of its own."""
    gateway = GatewayProcess(cache_dir, results_db)
    gateway.start()
    try:
        return [r[4] for r in closed_loop(gateway.port, [sequence])["records"]]
    finally:
        gateway.stop()


def probe_serve(root: str) -> Probe:
    out: Probe = {}
    labels = [u.label for u in _cheap_units()]
    cache_dir = os.path.join(root, "serve-cache")
    results_db = os.path.join(root, "serve.db")
    sequence = [labels[i % len(labels)] for i in range(300)]

    # A gateway process on an empty store: executions, then a burst of
    # eight identical requests for a unit that takes a third of a second.
    gateway = GatewayProcess(cache_dir, results_db)
    gateway.start()
    try:
        cold = closed_loop(gateway.port, [labels])["records"]
        out["serve.executed_p50_ms"] = (
            statistics.median(r[4] for r in cold) * 1e3, len(cold))
        burst = closed_loop(gateway.port, [["table8@4x4"]] * 8)["records"]
        out["serve.coalesce_ratio"] = (
            sum(1 for r in burst if r[2] == "executed") / len(burst), 8)
    finally:
        gateway.stop()

    # Warm hits: over TCP with and without the results index, and
    # in-process through ``Gateway.call_run``.
    hits = _hit_latencies(cache_dir, results_db, sequence)
    out["serve.hit_p99_ms"] = (percentile(hits, 0.99) * 1e3, len(hits))
    noindex = _hit_latencies(cache_dir, None, sequence[:200])
    out["serve.hit_noindex_p50_ms"] = (
        statistics.median(noindex) * 1e3, len(noindex))

    async def inproc_hits() -> List[float]:
        config = ServeConfig(cache_dir=cache_dir, results_db=results_db,
                             pool_workers=PARALLELISM)
        times = []
        async with Gateway(config) as gw:
            for selector in sequence[:200]:
                t0 = time.perf_counter()
                await gw.call_run(selector)
                times.append(time.perf_counter() - t0)
        return times

    inproc_p50 = statistics.median(asyncio.run(inproc_hits()))
    out["serve.hit_inproc_us"] = (inproc_p50 * 1e6, 200)
    out["serve.http_overhead_us"] = (
        (statistics.median(hits) - inproc_p50) * 1e6, 200)
    return out


# -- repro.obs -----------------------------------------------------------
def probe_obs() -> Probe:
    kwargs = {"meshes": ((4, 4),)}
    plain = _steady_s(lambda: api.run("table7", **kwargs), 2)
    results = []
    observed = _steady_s(lambda: results.append(api.run(
        "table7", options=RunOptions(obs=True), **kwargs)), 2)
    observer = results[-1].observer
    return {
        "obs.observed_overhead_frac": (observed / plain - 1.0, 2),
        "obs.chrome_trace_export_ms": (
            _steady_s(lambda: chrome_trace(observer), 3) * 1e3, 3),
    }


def run_probes(workdir: str, rec: SpanRecorder) -> Probe:
    root = tempfile.mkdtemp(dir=workdir, prefix="probes-")
    out: Probe = {}
    with rec.span("probes"):
        for name, probe in (
            ("parallel", probe_parallel), ("core", probe_core),
            ("model", probe_model), ("api", probe_api),
            ("campaign", lambda: probe_campaign(root)),
            ("results", lambda: probe_results(root)),
            ("fleet", probe_fleet),
            ("serve", lambda: probe_serve(root)),
            ("obs", probe_obs),
        ):
            with rec.span(f"probe:{name}"):
                out.update(probe())
    return out

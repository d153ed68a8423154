"""The benchmark's workloads and metrics, by name.

One table for ``run.py`` (units, what to print), ``compare.py`` (bounds)
and the tests (``BENCHMARK.json`` must agree with it).  ``README.md``
says in prose why each entry exists.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

WORKLOADS: Dict[str, str] = {
    "agcm_model": (
        "Whole-model AGCM tables through api.run: engine, filter and "
        "dynamics/physics/halo each do about a third of the work."
    ),
    "filter_tables": (
        "Filtering-only tables: repro.core does ~85% of the work, the "
        "engine ~5% and dynamics/physics none."
    ),
    "engine_scale": (
        "Engine only: bulk collectives at 240 ranks, a point-to-point "
        "ring that never goes bulk, and the 1280-rank bigmesh@32x40."
    ),
    "service_plane": (
        "Data plane on cheap units: 2-worker campaign cold and warm, then "
        "a gateway process cold and 2x100 warm POST /run hits over TCP."
    ),
}
SIM_WORKLOADS = ("agcm_model", "filter_tables", "engine_scale")
ALL = tuple(WORKLOADS)
SERVICE = ("service_plane",)


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" | "higher"
    #: Share of the baseline median by which the metric may get worse;
    #: None for per-layer metrics, which are not gated.
    bound: Optional[float] = None
    #: Workloads that report it.
    workloads: Tuple[str, ...] = ALL
    #: ``bound`` is an absolute difference, not a share.
    absolute: bool = False


def steady(samples: Sequence[float]) -> float:
    """The fastest of ``samples``: what the part costs when no neighbour
    on the shared host is in its way.

    Interference only ever adds time, and on this box it comes in
    stretches of seconds to tens of seconds.  Within one run the median
    of a part's samples then flips between a quiet and a busy level,
    while the fastest sample stays at the quiet one as long as the part
    once ran undisturbed.  The parts are deterministic and CPU-bound, so
    their quiet samples agree within a few percent and the fastest one is
    no fluke.  A change to the program moves every sample, the fastest
    with them.  Measured under two busy neighbours (README.md, "Noise
    and bounds"): ten runs of ``engine_scale`` spread 6 % with the fastest
    sample, 13 % with the lower quartile, 17 % with the median.
    """
    return min(samples)


#: Bounds are shares of the baseline median.  Every timing carries the
#: widest bound the driver allows, a quarter (a fifth for a rate, which
#: is the same slowdown): the shared 2-core box itself drifts by a tenth
#: and more over tens of minutes (README.md, "Noise and bounds").
END_TO_END: Tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("wall_s", "s", "lower", 0.25),
    Metric("failed_frac", "ratio", "lower", 0.0, absolute=True),
    Metric("peak_rss_mb", "MB", "lower", 0.20),
    # These two need the counts of a traced pass (``--trace 1``).
    Metric("sim_events_per_s", "1/s", "higher", 0.20, SIM_WORKLOADS),
    Metric("virtual_s", "s", "lower", 1e-9, SIM_WORKLOADS),
    Metric("campaign_cold_s", "s", "lower", 0.25, SERVICE),
    Metric("campaign_warm_ms", "ms", "lower", 0.25, SERVICE),
    Metric("campaign_units_per_s", "1/s", "higher", 0.20, SERVICE),
    Metric("serve_cold_s", "s", "lower", 0.25, SERVICE),
    Metric("serve_hit_p50_ms", "ms", "lower", 0.25, SERVICE),
    Metric("serve_hit_rps", "1/s", "higher", 0.20, SERVICE),
    Metric("serve_hit_ratio", "ratio", "higher", 0.0, SERVICE, absolute=True),
)

#: ``BENCHMARK.json`` lists as end-to-end only what every workload reports
#: on every run and what is never 0; ``compare.py`` gates all thirteen.
DRIVER_END_TO_END = ("wall_s", "setup_s", "peak_rss_mb")

#: Per-layer metrics every traced run reports, whatever its workload: the
#: totals of its own traced pass, then the layer probes.  A traced run
#: also reports ``unit.<selector>.{wall_s,virtual_s,events,bytes}`` for
#: each of its units; those names depend on the workload and are not
#: listed here.
PER_LAYER: Tuple[Metric, ...] = (
    Metric("trace.virtual_s", "s", "lower"),
    Metric("trace.events", "count", "lower"),
    Metric("trace.bytes", "B", "lower"),
    Metric("trace.pass_cover_frac", "ratio", "higher"),
    Metric("trace_overhead_frac", "ratio", "lower"),
    Metric("obs.spans_recorded", "count", "lower"),
    Metric("serve_hit_p99_ms", "ms", "lower", workloads=SERVICE),
    # repro.parallel
    Metric("parallel.probe240_events_per_s", "1/s", "higher"),
    Metric("parallel.probe640_events_per_s", "1/s", "higher"),
    Metric("parallel.p2p_ring_events_per_s", "1/s", "higher"),
    Metric("parallel.messages", "count", "lower"),
    Metric("parallel.bytes", "B", "lower"),
    # repro.core
    Metric("core.filter_conv_ring_s", "s", "lower"),
    Metric("core.filter_conv_tree_s", "s", "lower"),
    Metric("core.filter_fft_transpose_s", "s", "lower"),
    Metric("core.filter_fft_lb_s", "s", "lower"),
    Metric("core.filter_fft_distributed_s", "s", "lower"),
    Metric("core.serial_filter_ms", "ms", "lower"),
    # repro.model, dynamics, physics, grid
    Metric("model.serial_step_ms", "ms", "lower"),
    Metric("model.rank2d_4x4_s", "s", "lower"),
    Metric("model.rank3d_2x2x4_s", "s", "lower"),
    Metric("dynamics.tendencies_ms", "ms", "lower"),
    Metric("physics.run_physics_ms", "ms", "lower"),
    Metric("grid.halo_exchange_s", "s", "lower"),
    # repro.api
    Metric("api.run_overhead_us", "us", "lower"),
    Metric("api.import_s", "s", "lower"),
    # repro.campaign
    Metric("campaign.enumerate_ms", "ms", "lower"),
    Metric("campaign.cache_key_us", "us", "lower"),
    Metric("campaign.cache_put_ms", "ms", "lower"),
    Metric("campaign.cache_get_us", "us", "lower"),
    Metric("campaign.cache_miss_us", "us", "lower"),
    Metric("campaign.pool_dispatch_ms_per_unit", "ms", "lower"),
    Metric("campaign.hit_ratio", "ratio", "higher"),
    # repro.serve
    Metric("serve.hit_inproc_us", "us", "lower"),
    Metric("serve.http_overhead_us", "us", "lower"),
    Metric("serve.hit_noindex_p50_ms", "ms", "lower"),
    Metric("serve.hit_p99_ms", "ms", "lower"),
    Metric("serve.executed_p50_ms", "ms", "lower"),
    Metric("serve.coalesce_ratio", "ratio", "lower"),
    # repro.results
    Metric("results.record_run_ms", "ms", "lower"),
    Metric("results.record_hit_ms", "ms", "lower"),
    Metric("results.ingest_cache_dir_ms", "ms", "lower"),
    # repro.fleet
    Metric("fleet.frame_encode_us", "us", "lower"),
    Metric("fleet.frame_decode_us", "us", "lower"),
    # repro.obs
    Metric("obs.observed_overhead_frac", "ratio", "lower"),
    Metric("obs.chrome_trace_export_ms", "ms", "lower"),
)

BY_NAME: Dict[str, Metric] = {m.name: m for m in END_TO_END + PER_LAYER}

_UNIT_SUFFIXES = {"wall_s": "s", "virtual_s": "s", "events": "count",
                  "bytes": "B"}


def unit_of(name: str) -> str:
    """The unit of a metric; ``unit.<selector>.<what>`` by its suffix."""
    if name in BY_NAME:
        return BY_NAME[name].unit
    return _UNIT_SUFFIXES[name.rsplit(".", 1)[1]]

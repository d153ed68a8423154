"""Single-node time predictions: loop descriptions priced on a machine.

Every Section-3.4 study is priced one way: the loops' address stream
(:func:`repro.perf.access_patterns.stream`) runs through the machine's
data cache (:class:`~repro.perf.cache_sim.CacheSim`), and
:func:`~repro.perf.cache_sim.loop_time` adds the loops' operations at
the machine's one op rate to the misses at its miss penalty.  The
paper's layout findings:

* block array ~5x faster than separate arrays for the isolated 7-point
  Laplace on 32^3 fields on the Paragon, ~2.6x on the T3D;
* no block-array advantage inside the mixed-loop advection routine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

from repro.parallel.machine import MachineModel
from repro.perf.access_patterns import (
    ADVECTION_LOOP_MIX,
    Layout,
    Nest,
    cells,
    laplace_loops,
    loops_of,
    mixed_loops,
    stream,
)
from repro.perf.cache_sim import CacheSim, CacheStats, loop_time


def price(nests: Sequence[Nest], layout: Layout, machine: MachineModel,
          halo: int = 1) -> Tuple[float, CacheStats]:
    """Predicted seconds of ``nests`` over the cells ``halo`` inside
    ``layout``'s grid on ``machine``, with the cache statistics behind
    them.  Past both caches a unit-stride stream misses once per line,
    so its price grows linearly with the cell count."""
    stats = CacheSim.for_machine(machine).simulate(stream(nests, layout, halo))
    ncell = cells(layout.shape, halo)[0].size
    ops = sum(loop.ops for loop in loops_of(nests)) * ncell
    return loop_time(stats, ops, machine), stats


@dataclass(frozen=True)
class LayoutComparison:
    """Predicted single-node times of the two layouts for one loop nest."""

    machine: str
    separate_time: float
    block_time: float
    separate_misses: int
    block_misses: int

    @property
    def block_speedup(self) -> float:
        """Separate-array time over block-array time (>1: block wins)."""
        return self.separate_time / self.block_time if self.block_time else 0.0


def _compare(loops, machine, n, m, stagger_lines) -> LayoutComparison:
    shape = (n, n, n)
    sep_time, sep = price(loops, Layout(shape, stagger_lines=stagger_lines),
                          machine)
    blk_time, blk = price(loops, Layout(shape, block=m), machine)
    return LayoutComparison(
        machine=machine.name,
        separate_time=sep_time,
        block_time=blk_time,
        separate_misses=sep.misses,
        block_misses=blk.misses,
    )


def compare_laplace_layouts(
    machine: MachineModel, n: int = 32, m: int = 8
) -> LayoutComparison:
    """The paper's isolated experiment: 7-point Laplace over ``m`` fields,
    with the separate arrays fully aligned (the paper's test code)."""
    return _compare(laplace_loops(m), machine, n, m, stagger_lines=0)


def compare_advection_layouts(
    machine: MachineModel,
    n: int = 32,
    m: int = 12,
    loops: Sequence[Sequence[int]] = ADVECTION_LOOP_MIX,
) -> LayoutComparison:
    """The paper's follow-up: the mixed-loop advection routine.

    Each loop touches only a few of the ``m`` fields, so the block array's
    interleaving wastes cache lines and its advantage disappears (or
    reverses) — the negative result Section 3.4 reports.
    """
    return _compare(mixed_loops(m, loops), machine, n, m, stagger_lines=3)

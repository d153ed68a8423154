"""Real wall-clock comparison of the filtering kernels at paper size.

Besides the virtual-machine tables (8-11), this measures the *actual*
numpy cost of filtering a 144-longitude, 9-layer field with the
convolution form (eq. 2) versus the FFT form (eq. 1) — the algorithmic
O(N^2) vs O(N log N) gap, independent of any machine model.
"""

import numpy as np
import pytest

from repro.core.convolution import circulant_rows, convolution_filter_rows
from repro.core.fft import fft_filter_rows
from repro.core.spectral import strong_filter
from repro.grid.sphere import SphericalGrid


@pytest.fixture(scope="module")
def paper_field():
    grid = SphericalGrid(90, 144)
    rng = np.random.default_rng(2)
    field = rng.standard_normal((90, 144, 9))
    return grid, field


def test_bench_convolution_filter(benchmark, paper_field):
    grid, field = paper_field
    pfilter = strong_filter(grid)
    benchmark(convolution_filter_rows, field, pfilter)


def test_bench_fft_filter(benchmark, paper_field):
    grid, field = paper_field
    pfilter = strong_filter(grid)
    benchmark(fft_filter_rows, field, pfilter)


def _ring_operands(paper_field):
    """One row unit as a rank of a 4-column mesh sees it: a 36-row block
    of the operator and the 9-layer assembled line it multiplies."""
    grid, field = paper_field
    pfilter = strong_filter(grid)
    lat = int(pfilter.latitude_indices()[0])
    return pfilter.kernel(lat), field[lat]


def test_bench_circulant_rows_build(benchmark, paper_field):
    kernel, _ = _ring_operands(paper_field)
    benchmark(circulant_rows, kernel, 36, 72)


def test_bench_circulant_rows_product(benchmark, paper_field):
    kernel, line = _ring_operands(paper_field)
    rows = circulant_rows(kernel, 36, 72)
    benchmark(np.matmul, rows, line)


def test_operator_build_not_dearer_than_its_product(paper_field):
    """The build was once 30x the matmul it feeds (an N x N index, a
    modulo and a gather per unit per application).  As a strided view it
    costs about as much; hold it within a generous multiple."""
    import timeit

    kernel, line = _ring_operands(paper_field)
    rows = circulant_rows(kernel, 36, 72)
    t_build = min(timeit.repeat(
        lambda: circulant_rows(kernel, 36, 72), number=200, repeat=5))
    t_product = min(timeit.repeat(lambda: rows @ line, number=200, repeat=5))
    assert t_build < 5.0 * t_product


def test_fft_faster_above_paper_size():
    """Where the O(N^2) vs O(N log N) gap is wide in host time: four
    times the paper's longitudes (27 ms vs 5.4 ms)."""
    import timeit

    grid = SphericalGrid(90, 576)
    field = np.random.default_rng(2).standard_normal((90, 576, 9))
    pfilter = strong_filter(grid)
    t_conv = min(timeit.repeat(
        lambda: convolution_filter_rows(field, pfilter), number=1, repeat=3))
    t_fft = min(timeit.repeat(
        lambda: fft_filter_rows(field, pfilter), number=1, repeat=3))
    assert t_fft < t_conv

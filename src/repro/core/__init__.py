"""The paper's core contribution: optimised polar filtering + load balancing.

* :mod:`repro.core.spectral` / :mod:`repro.core.masks` — the strong/weak
  polar Fourier filters and the row-unit plans they induce;
* :mod:`repro.core.convolution` / :mod:`repro.core.fft` — the original
  O(N^2) and optimised O(N log N) filtering kernels;
* :mod:`repro.core.balance_plan` / :mod:`repro.core.parallel_filter` —
  the generic row-redistribution load balancer (eq. 3) and the four
  parallel filter drivers Tables 8-11 compare;
* :mod:`repro.core.physics_lb` — the three physics load-balancing schemes
  of Figures 4-6.
"""

from repro.core.spectral import PolarFilter, strong_filter, weak_filter
from repro.core.masks import (
    DEFAULT_STRONG_VARS,
    DEFAULT_WEAK_VARS,
    FilterPlan,
    RowUnit,
    make_filter_plan,
)
from repro.core.convolution import (
    circulant_matrix,
    convolution_filter_rows,
    convolve_line,
)
from repro.core.fft import fft_filter_flop_count, fft_filter_line, fft_filter_rows
from repro.core.balance_plan import (
    FilterAssignment,
    balanced_assignment,
    natural_assignment,
)
from repro.core.parallel_filter import (
    EXTENDED_BACKENDS,
    FILTER_BACKENDS,
    FilterBackend,
    apply_serial_filter,
    prepare_filter_backend,
)
from repro.core.distributed_fft import (
    bit_reverse_indices,
    bitrev_transfer,
    fft_dif_bitrev,
    ifft_dit_bitrev,
)

__all__ = [
    "PolarFilter",
    "strong_filter",
    "weak_filter",
    "FilterPlan",
    "RowUnit",
    "make_filter_plan",
    "DEFAULT_STRONG_VARS",
    "DEFAULT_WEAK_VARS",
    "circulant_matrix",
    "convolve_line",
    "convolution_filter_rows",
    "fft_filter_line",
    "fft_filter_rows",
    "fft_filter_flop_count",
    "FilterAssignment",
    "natural_assignment",
    "balanced_assignment",
    "FILTER_BACKENDS",
    "EXTENDED_BACKENDS",
    "fft_dif_bitrev",
    "ifft_dit_bitrev",
    "bit_reverse_indices",
    "bitrev_transfer",
    "FilterBackend",
    "prepare_filter_backend",
    "apply_serial_filter",
]

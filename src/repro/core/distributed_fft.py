"""The distributed 1-D parallel FFT — the road the paper did not take.

Section 3.2 weighs two parallelisations of the FFT filtering: (i) "a
parallel one dimensional FFT procedure for processors on the same rows",
and (ii) a data transpose followed by local whole-line FFTs.  The paper
chooses (ii) for its simplicity and because whole lines can use highly
optimised (vendor) FFTs.  This module implements (i) for real, so the
choice becomes a measurable ablation:

* a radix-2 **Gentleman-Sande (DIF)** forward transform producing the
  spectrum in bit-reversed order, and a **Cooley-Tukey (DIT)** inverse
  consuming bit-reversed input — the classic convolution trick that
  eliminates any reordering communication;
* a **binary-exchange** distributed variant over a block-distributed
  line: the first ``log2 P`` (largest-span) stages exchange whole blocks
  with the partner rank ``r XOR (span / local_n)``; the remaining stages
  are local.  Communication: ``log2 P`` messages of the local block size
  per rank per transform — exactly the "fewer messages but larger amounts
  of data" trade the paper describes;
* filtering in bit-reversed frequency order via a precomputed permuted
  transfer vector (local, no communication).

Constraints of the radix-2 formulation: the line length and the ranks
per row must be powers of two, and the blocks must divide evenly.  This
is itself part of the story — the AGCM's 144-point latitude lines are
*not* a power of two, which is one more practical reason the authors
preferred local mixed-radix library FFTs after a transpose.
"""

from __future__ import annotations

import numpy as np


def is_power_of_two(n: int) -> bool:
    """True for 1, 2, 4, 8, ..."""
    return n > 0 and (n & (n - 1)) == 0


def bit_reverse_indices(n: int) -> np.ndarray:
    """The bit-reversal permutation of ``range(n)`` (n a power of two)."""
    if not is_power_of_two(n):
        raise ValueError(f"n must be a power of two, got {n}")
    bits = n.bit_length() - 1
    idx = np.arange(n)
    out = np.zeros(n, dtype=int)
    for _ in range(bits):
        out = (out << 1) | (idx & 1)
        idx >>= 1
    return out


# ----------------------------------------------------------------------
# serial reference transforms, and the stages that need no partner
# ----------------------------------------------------------------------

def _dif_stages(x: np.ndarray) -> np.ndarray:
    """Gentleman-Sande stages of span < ``len(x)``, in place on a complex
    array.  On a block of a distributed line the twiddles need the global
    offset only through ``j mod span``, which is block-aligned."""
    n = x.shape[0]
    span = n // 2
    while span >= 1:
        j = np.arange(span)
        w = np.exp(-2j * np.pi * j / (2 * span))
        if x.ndim > 1:
            w = w.reshape(span, *([1] * (x.ndim - 1)))
        for start in range(0, n, 2 * span):
            a = x[start : start + span].copy()
            b = x[start + span : start + 2 * span]
            x[start : start + span] = a + b
            x[start + span : start + 2 * span] = (a - b) * w
        span //= 2
    return x


def _dit_stages(x: np.ndarray) -> np.ndarray:
    """Cooley-Tukey stages of span < ``len(x)`` from bit-reversed input,
    in place on a complex array; unscaled."""
    n = x.shape[0]
    span = 1
    while span < n:
        j = np.arange(span)
        w = np.exp(2j * np.pi * j / (2 * span))
        if x.ndim > 1:
            w = w.reshape(span, *([1] * (x.ndim - 1)))
        for start in range(0, n, 2 * span):
            a = x[start : start + span].copy()
            b = x[start + span : start + 2 * span] * w
            x[start : start + span] = a + b
            x[start + span : start + 2 * span] = a - b
        span *= 2
    return x


def fft_dif_bitrev(x: np.ndarray) -> np.ndarray:
    """Forward DFT, output in bit-reversed order (Gentleman-Sande DIF).

    ``x`` has shape (N[, K]); the transform runs along axis 0.  Equals
    ``np.fft.fft(x, axis=0)[bit_reverse_indices(N)]`` (tested).
    """
    x = np.asarray(x, dtype=complex).copy()
    if not is_power_of_two(x.shape[0]):
        raise ValueError(f"length must be a power of two, got {x.shape[0]}")
    return _dif_stages(x)


def ifft_dit_bitrev(x: np.ndarray) -> np.ndarray:
    """Inverse DFT from bit-reversed input to natural order (DIT).

    Exactly inverts :func:`fft_dif_bitrev` (including the 1/N scaling).
    """
    x = np.asarray(x, dtype=complex).copy()
    if not is_power_of_two(x.shape[0]):
        raise ValueError(f"length must be a power of two, got {x.shape[0]}")
    return _dit_stages(x) / x.shape[0]


def bitrev_transfer(transfer_rfft: np.ndarray, n: int) -> np.ndarray:
    """Expand rfft transfer factors to full length in bit-reversed order.

    ``transfer_rfft`` holds factors for bins 0..N/2; the upper half of
    the full spectrum mirrors them (real filters are Hermitian-even).
    The result multiplies a DIF (bit-reversed) spectrum elementwise.
    """
    if transfer_rfft.shape[0] != n // 2 + 1:
        raise ValueError(
            f"expected {n // 2 + 1} rfft bins, got {transfer_rfft.shape[0]}"
        )
    full = np.empty(n)
    half = np.minimum(np.arange(n), n - np.arange(n))
    full[:] = transfer_rfft[half]
    return full[bit_reverse_indices(n)]


# ----------------------------------------------------------------------
# distributed transforms (generators for the virtual machine)
# ----------------------------------------------------------------------

_TAG_FFT = 0x00DD0001


def _exchange_stages(comm, x, local_n, spans, twiddle_sign):
    """The block-exchange butterfly stages (span >= local_n).

    Generator; mutates and returns ``x`` (the local block).  ``spans``
    iterates in the required stage order.
    """
    offset = comm.rank * local_n
    for span in spans:
        partner = comm.rank ^ (span // local_n)
        other = yield from comm.sendrecv(
            dest=partner, payload=x.copy(), source=partner, tag=_TAG_FFT
        )
        a_side = (offset % (2 * span)) < span
        # Twiddle index of each of my elements within its half-group.
        j = (offset + np.arange(local_n)) % span
        w = np.exp(twiddle_sign * 2j * np.pi * j / (2 * span))
        if x.ndim > 1:
            w = w.reshape(local_n, *([1] * (x.ndim - 1)))
        if twiddle_sign < 0:  # forward (DIF): twiddle after subtraction
            if a_side:
                x = x + other
            else:
                x = (other - x) * w
        else:  # inverse (DIT): twiddle the b side before combining
            if a_side:
                x = x + other * w
            else:
                x = other - x * w
        yield from comm.ctx.compute(
            flops=10.0 * x.size, inner_length=local_n
        )
    return x


def check_distributed_fft_shape(n: int, nprocs: int) -> int:
    """Validate (N, P) for the radix-2 binary-exchange FFT; returns N/P."""
    if not is_power_of_two(n):
        raise ValueError(
            f"line length {n} is not a power of two — the radix-2 "
            "distributed FFT cannot handle it (the AGCM's 144-point "
            "lines are exactly this case; see module docstring)"
        )
    if not is_power_of_two(nprocs):
        raise ValueError(f"ranks per row ({nprocs}) must be a power of two")
    if n % nprocs != 0 or n // nprocs < 1:
        raise ValueError(f"{nprocs} ranks cannot evenly hold {n} points")
    return n // nprocs


def distributed_fft_filter_line(comm, local_block, transfer_bitrev_local):
    """Generator: filter a block-distributed line in place on a row group.

    ``local_block`` is this rank's (local_n[, K]) real segment;
    ``transfer_bitrev_local`` is this rank's slice of the bit-reversed
    transfer factors.  Returns the filtered real segment.

    The pipeline is DIF-forward (exchange stages then local stages) ->
    local transfer multiply -> DIT-inverse (local stages then exchange
    stages); no reordering traffic anywhere.
    """
    n_local = local_block.shape[0]
    n_total = n_local * comm.size
    x = np.asarray(local_block, dtype=complex)

    # Forward DIF: largest spans first (the exchange stages), then local.
    spans_fwd = [
        span
        for span in (n_total // 2**k for k in range(1, n_total.bit_length()))
        if span >= n_local
    ]
    x = yield from _exchange_stages(comm, x, n_local, spans_fwd, -1)
    x = _dif_stages(x)
    yield from comm.ctx.compute(
        flops=5.0 * n_local * max(1, np.log2(max(n_local, 2))) * (
            x.size // n_local
        ),
        inner_length=n_local,
    )

    # Local transfer multiply in bit-reversed frequency order.  ``t``
    # may be (local_n,) for one shared filter or (local_n, K) matching a
    # batch whose layers carry different transfer factors.
    t = np.asarray(transfer_bitrev_local)
    if t.ndim == 1 and x.ndim > 1:
        t = t.reshape(n_local, *([1] * (x.ndim - 1)))
    x = x * t

    # Inverse DIT: local stages first, then exchange stages (small->large).
    x = _dit_stages(x)
    spans_inv = [
        span
        for span in (2**k for k in range(n_total.bit_length() - 1))
        if span >= n_local
    ]
    x = yield from _exchange_stages(comm, x, n_local, spans_inv, +1)
    x = x / n_total
    yield from comm.ctx.compute(
        flops=5.0 * n_local * max(1, np.log2(max(n_local, 2))) * (
            x.size // n_local
        ),
        inner_length=n_local,
    )
    return np.ascontiguousarray(x.real)

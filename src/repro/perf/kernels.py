"""Single-node kernels: the pointwise vector-multiply of paper eq. 4.

The paper observes that finite-difference code rarely maps onto BLAS
matrix-vector operations, but a large share of it reduces to what it
calls a *pointwise vector-multiply*::

    DO j = 1, N
      DO i = 1, M
        C(i, j) = A(i, j, s) * B(i)
      ENDDO
    ENDDO

i.e. eq. (4): ``a o b`` tiles the short vector ``b`` across the long
vector ``a``.  Several implementations are provided, from a deliberately
naive scalar loop (the "before" of the paper's optimisation study) to
fully vectorised forms (numpy standing in for the proposed hand-optimised
assembly routine).  The study prices them as loop descriptions on the
node model (:data:`repro.perf.access_patterns.POINTWISE_VARIANTS`).
"""

from __future__ import annotations

import numpy as np


# ----------------------------------------------------------------------
# pointwise vector-multiply, eq. (4)
# ----------------------------------------------------------------------

def pointwise_multiply_naive(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Scalar-loop reference: ``out[k] = a[k] * b[k mod m]``.

    Mirrors the Fortran inner loops before optimisation; the semantics
    oracle for the fast variants.
    """
    n, m = a.shape[0], b.shape[0]
    if n % m != 0:
        raise ValueError(f"len(a)={n} must be divisible by len(b)={m}")
    # Allocate in the promoted dtype of the operands, matching the
    # broadcast variants: a bare np.empty(n) defaults to float64, which
    # made this "oracle" disagree in dtype with the fast paths whenever
    # the inputs were float32.
    out = np.empty(n, dtype=np.result_type(a.dtype, b.dtype))
    for k in range(n):
        out[k] = a[k] * b[k % m]
    return out


def pointwise_multiply_reshaped(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Vectorised form: reshape ``a`` to (n/m, m) and broadcast ``b``.

    The shape the paper's proposed library routine would exploit: unit
    stride on both operands, one pass over memory.
    """
    n, m = a.shape[0], b.shape[0]
    if n % m != 0:
        raise ValueError(f"len(a)={n} must be divisible by len(b)={m}")
    return (a.reshape(n // m, m) * b).reshape(n)


def pointwise_multiply_tiled(a: np.ndarray, b: np.ndarray,
                             out: np.ndarray | None = None) -> np.ndarray:
    """In-place-capable variant: preallocated output, no temporaries."""
    n, m = a.shape[0], b.shape[0]
    if n % m != 0:
        raise ValueError(f"len(a)={n} must be divisible by len(b)={m}")
    if out is None:
        out = np.empty(n, dtype=np.result_type(a.dtype, b.dtype))
    np.multiply(a.reshape(n // m, m), b, out=out.reshape(n // m, m))
    return out

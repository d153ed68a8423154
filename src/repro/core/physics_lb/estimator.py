"""Load estimation for physics balancing.

The distribution of physics work is unpredictable (clouds, cumulus
convection), so — as the paper does — the load of the *previous* physics
pass on each rank is used as the estimate for the current one: "a timing
on the previous pass of physics component was performed at each processor
and the result was used as an estimate for the current physics computing
load" (Section 3.4).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np


class PreviousPassEstimator:
    """Per-rank load estimates from the previous physics pass.

    With optional exponential smoothing (``alpha = 1`` reproduces the
    paper's plain previous-pass estimate).
    """

    def __init__(self, nranks: int, alpha: float = 1.0):
        if nranks <= 0:
            raise ValueError("nranks must be positive")
        if not 0 < alpha <= 1:
            raise ValueError("alpha must be in (0, 1]")
        self.nranks = nranks
        self.alpha = alpha
        self._estimate: Optional[np.ndarray] = None

    def record(self, measured: Sequence[float]) -> None:
        """Record the measured per-rank loads of the pass just completed."""
        measured = np.asarray(measured, dtype=float)
        if measured.shape != (self.nranks,):
            raise ValueError(
                f"expected {self.nranks} loads, got shape {measured.shape}"
            )
        if self._estimate is None or self.alpha == 1.0:
            self._estimate = measured.copy()
        else:
            self._estimate = (
                self.alpha * measured + (1 - self.alpha) * self._estimate
            )

    def estimate(self) -> np.ndarray:
        """Current per-rank estimates (uniform 1.0 before any history)."""
        if self._estimate is None:
            return np.ones(self.nranks)
        return self._estimate.copy()

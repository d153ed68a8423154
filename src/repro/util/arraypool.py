"""LRU-bounded pool of reusable scratch arrays.

Generalizes the ``blas_axpy`` scratch-LRU from PR 5 into a reusable
array pool: hot paths that repeatedly allocate same-shaped temporaries
(kernel scratch) borrow an *uninitialized* buffer keyed by
``(shape, dtype, tag)`` instead of calling ``np.empty`` per step.

Lifetime rules:

* A buffer returned by :meth:`ArrayPool.scratch` is valid until the
  **next** ``scratch()`` call with the same key — callers must fully
  consume (or copy out of) a buffer before re-requesting it.
* A pool belongs to one owner (one rank program, one kernel module);
  sharing a pool across concurrently-live consumers of the same key
  requires distinct ``tag`` values (e.g. the field name).
* Buffers that will be *sent* as message payloads must NOT come from a
  per-step pool: the eager-send engine may deliver the payload object
  after the sender has moved on, so a recycled send buffer would be
  overwritten before the receiver reads it.  Pool only receiver-local
  scratch.

The pool stores plain ``np.empty`` buffers: contents are undefined on
return, exactly like ``np.empty``.  Eviction is least-recently-used once
``max_entries`` distinct keys exist.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Dict, Hashable, Tuple

import numpy as np

from repro.util.validation import check_positive_int

__all__ = ["ArrayPool", "DEFAULT_POOL", "scratch"]


class ArrayPool:
    """Reusable ``np.empty`` scratch buffers keyed by (shape, dtype, tag)."""

    __slots__ = ("max_entries", "hits", "misses", "_entries")

    def __init__(self, max_entries: int = 32):
        self.max_entries = check_positive_int(
            max_entries, "max_entries (array pool size)"
        )
        self.hits = 0
        self.misses = 0
        self._entries: "OrderedDict[Tuple, np.ndarray]" = OrderedDict()

    def scratch(self, shape, dtype: Any = float,
                tag: Hashable = "") -> np.ndarray:
        """Borrow an uninitialized ``shape``/``dtype`` buffer.

        Contents are undefined (like ``np.empty``); the buffer stays
        valid until the next ``scratch()`` call with the same key.
        """
        shape = (shape,) if isinstance(shape, int) else tuple(shape)
        key = (shape, np.dtype(dtype).str, tag)
        buf = self._entries.pop(key, None)
        if buf is None:
            self.misses += 1
            buf = np.empty(shape, dtype=dtype)
        else:
            self.hits += 1
        self._entries[key] = buf  # (re-)insert as most recently used
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
        return buf

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Tuple) -> bool:
        return key in self._entries

    def clear(self) -> None:
        """Drop every pooled buffer (and reset the hit/miss counters)."""
        self._entries.clear()
        self.hits = 0
        self.misses = 0

    def stats(self) -> Dict[str, int]:
        """Hit/miss/size counters, for benches and tests."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "entries": len(self._entries),
        }


#: Process-wide pool used by kernels (e.g. ``blas_axpy``); rank programs
#: that pool per-step subdomain scratch create their own instance so the
#: pool's lifetime matches the program's.
DEFAULT_POOL = ArrayPool()


def scratch(shape, dtype: Any = float, tag: Hashable = "") -> np.ndarray:
    """Borrow from the process-wide :data:`DEFAULT_POOL`."""
    return DEFAULT_POOL.scratch(shape, dtype, tag)

"""Named arrays that a vectorized computation writes into, reusable from
one call to the next.

A helper that takes ``work`` asks it for every array it writes, its
results and its temporaries, by name, and fills them through numpy's
``out=``/``where=``.  Given the same workspace again, it gets the same
memory back, so a loop over equal-sized chunks allocates once.  Called
without one, it makes a fresh :class:`Workspace` and so allocates its
arrays as any numpy code would: there is one implementation, whatever
the caller does with the memory.  Whatever a helper returns lives in the
workspace and is overwritten by the next call that is given it.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["Workspace"]


class Workspace:
    """Arrays by name; a helper's arrays are kept apart from another's by a
    :meth:`scope` prefix.  Not thread-safe: one per thread."""

    def __init__(self):
        self._arrays = {}
        self._prefix = ""

    def scope(self, prefix: str) -> "Workspace":
        """A view of this workspace whose names are ``prefix``-qualified."""
        child = Workspace()
        child._arrays = self._arrays
        child._prefix = f"{self._prefix}{prefix}."
        return child

    def empty(self, name: str, shape=(), dtype=np.float64) -> np.ndarray:
        """An uninitialized C-contiguous array: a view of the one kept under
        ``name`` when that is large enough and of this dtype, else new."""
        key = self._prefix + name
        size = math.prod(shape)
        buf = self._arrays.get(key)
        if buf is None or buf.size < size or buf.dtype != dtype:
            buf = self._arrays[key] = np.empty(size, dtype)
        return buf[:size].reshape(shape)

    @property
    def nbytes(self) -> int:
        """Bytes of every array kept, over all scopes."""
        return sum(a.nbytes for a in self._arrays.values())

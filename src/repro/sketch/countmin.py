"""Count-min sketch: fixed-memory frequency estimates over stream values.

The sketch stores a ``depth x width`` table of unsigned counters.  An
increment for value ``v`` bumps one counter per row; the estimate is
the minimum over rows, which can only over-count (never under-count).
Memory is exactly ``4 * width * depth`` bytes regardless of how many
distinct values the stream carries.

Hashing uses BLAKE2b split into two 64-bit halves combined with the
Kirsch-Mitzenmacher double-hashing scheme ``(h1 + i * h2) % width``,
so estimates are deterministic across processes and independent of
``PYTHONHASHSEED`` -- the same contract as ``serve.shard.stable_hash``.
"""

from __future__ import annotations

from array import array
from hashlib import blake2b
from typing import Hashable

from ..core.tuples import canonical_key

__all__ = ["CountMinSketch", "value_hashes"]

_COUNTER_MAX = (1 << 32) - 1


def value_hashes(value: Hashable) -> tuple[int, int]:
    """Two independent 64-bit hashes of ``value`` (process-stable).

    Hashes ``repr(canonical_key(value))``, so values the join treats as
    equal count as one key in the count-min, bloom, TinyLFU and
    admission structures built on it.
    """
    digest = blake2b(
        repr(canonical_key(value)).encode("utf-8"), digest_size=16
    ).digest()
    return (
        int.from_bytes(digest[:8], "big"),
        int.from_bytes(digest[8:], "big") | 1,
    )


class CountMinSketch:
    """Frequency estimates in ``O(width x depth)`` memory.

    ``estimate(v) >= true_count(v)`` always holds (one-sided error);
    the overestimate is bounded by ``e * total / width`` with
    probability ``1 - e^-depth`` for the standard parameterisation.
    """

    __slots__ = ("width", "depth", "total", "_rows")

    def __init__(self, width: int = 2048, depth: int = 4):
        if width < 1 or depth < 1:
            raise ValueError("width and depth must be >= 1")
        self.width = width
        self.depth = depth
        self.total = 0
        self._rows = [array("I", bytes(4 * width)) for _ in range(depth)]

    def _indexes(self, value: Hashable) -> list[int]:
        h1, h2 = value_hashes(value)
        width = self.width
        return [(h1 + i * h2) % width for i in range(self.depth)]

    def increment(self, value: Hashable, by: int = 1) -> None:
        """Add ``by`` occurrences of ``value`` (counters saturate)."""
        if by <= 0:
            return
        self.total += by
        for row, idx in zip(self._rows, self._indexes(value)):
            row[idx] = min(_COUNTER_MAX, row[idx] + by)

    def estimate(self, value: Hashable) -> int:
        """Estimated occurrence count of ``value`` (never an undercount)."""
        return min(
            row[idx] for row, idx in zip(self._rows, self._indexes(value))
        )

    __getitem__ = estimate

    def halve(self) -> None:
        """Age every counter by integer-halving it (TinyLFU reset)."""
        for row in self._rows:
            for i, c in enumerate(row):
                if c:
                    row[i] = c >> 1
        self.total >>= 1

    def merge(self, other: "CountMinSketch") -> None:
        """Element-wise add ``other`` into this sketch (same dims)."""
        if (other.width, other.depth) != (self.width, self.depth):
            raise ValueError("cannot merge sketches of different dimensions")
        for row, other_row in zip(self._rows, other._rows):
            for i, c in enumerate(other_row):
                if c:
                    row[i] = min(_COUNTER_MAX, row[i] + c)
        self.total += other.total

    def fill_ratio(self) -> float:
        """Fraction of counters that are nonzero (saturation signal)."""
        nonzero = sum(
            1 for row in self._rows for c in row if c
        )
        return nonzero / (self.width * self.depth)

    def memory_bytes(self) -> int:
        """Bytes held by the counter table (the dominant term)."""
        return sum(row.itemsize * len(row) for row in self._rows)

    def __repr__(self) -> str:
        return (
            f"CountMinSketch(width={self.width}, depth={self.depth}, "
            f"total={self.total})"
        )

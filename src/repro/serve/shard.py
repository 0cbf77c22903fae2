"""Join-attribute partitioning for the sharded streaming server.

The server (:mod:`repro.serve.server`) splits the join-attribute space
across shards so each shard owns a disjoint slice of the key space —
the partitioning blueprint of "Optimizing Multiple Multi-Way Stream
Joins" (Dossinger & Michel): tuples that could ever join carry the same
join value, so routing by value guarantees that all matches for a key
happen inside one shard and no cross-shard probe is ever needed.

Two properties matter and are pinned by hypothesis tests
(``tests/test_serve_sharding.py``):

* **determinism / totality** — every key maps to exactly one shard,
  stably across processes and runs.  Python's built-in ``hash`` is
  salted per process for strings, so routing uses a keyed BLAKE2 digest
  of the ``repr`` of the value's
  :func:`~repro.core.tuples.canonical_key` instead, so keys the join
  treats as equal (``1``, ``1.0``, ``True``, ``np.int64(1)``) share a
  shard.
* **reshard conservation** — repartitioning cached tuples from ``N`` to
  ``M`` shards preserves the multiset of tuples (nothing duplicated,
  nothing dropped), and the result equals partitioning the union from
  scratch.
"""

from __future__ import annotations

import hashlib
from typing import Hashable, Iterable, Sequence

from ..core.tuples import StreamTuple, canonical_key

__all__ = ["stable_hash", "ShardRouter", "partition_tuples", "reshard"]


def stable_hash(value: Hashable) -> int:
    """Process-stable 64-bit hash of a join-attribute value.

    Built on BLAKE2b over ``repr(canonical_key(value))`` so equal
    values — ints, floats, bools, NumPy scalars, strings, tuples — always
    land on the same shard regardless of ``PYTHONHASHSEED``,
    interpreter, or machine.  Python ``int`` keys hash their own
    ``repr``.
    """
    digest = hashlib.blake2b(
        repr(canonical_key(value)).encode("utf-8"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big")


class ShardRouter:
    """Maps join-attribute values to one of ``n_shards`` shards."""

    def __init__(self, n_shards: int):
        """Validate and bind the shard count."""
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        self.n_shards = n_shards

    def shard_for(self, value: Hashable) -> int:
        """The single shard owning ``value`` (``0 <= shard < n_shards``)."""
        if self.n_shards == 1:
            return 0
        return stable_hash(value) % self.n_shards

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"ShardRouter(n_shards={self.n_shards})"


def partition_tuples(
    tuples: Iterable[StreamTuple], router: ShardRouter
) -> list[list[StreamTuple]]:
    """Split tuples into per-shard lists by their join value.

    Order within a shard follows the input order, so partitioning a
    deterministically ordered collection is itself deterministic.
    """
    shards: list[list[StreamTuple]] = [[] for _ in range(router.n_shards)]
    for tup in tuples:
        shards[router.shard_for(tup.value)].append(tup)
    return shards


def reshard(
    shards: Sequence[Iterable[StreamTuple]], new_router: ShardRouter
) -> list[list[StreamTuple]]:
    """Repartition per-shard tuple collections onto a new shard count.

    Conservation contract: the multiset of tuples out equals the
    multiset in — resharding moves tuples, it never invents or drops
    them.  Equivalent to ``partition_tuples(union, new_router)`` with
    the union taken shard by shard in order.
    """
    union: list[StreamTuple] = []
    for shard in shards:
        union.extend(shard)
    return partition_tuples(union, new_router)

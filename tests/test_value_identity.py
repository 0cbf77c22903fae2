"""One value identity at every layer that hashes join keys.

The cache index and the join compare values with Python equality, where
``1 == 1.0 == True == np.int64(1)``.  The shard router and the sketches
hash a value's ``repr``, so they must hash one canonical form of it
(:func:`repro.core.tuples.canonical_key`) or equal keys land on
different shards and count as different sketch keys.  The serving
boundary, in turn, rejects input the simulator would mishandle: steps
that run backwards, NaN keys and unhashable keys; the replay producers
keep to that order however many of them run.
"""

from __future__ import annotations

import asyncio
import hashlib

import numpy as np
import pytest

from repro.policies import make_policy
from repro.serve import (
    ShardRouter,
    StreamServer,
    generate_join_stream,
    generate_multi_join_stream,
    generate_reference_stream,
    run_replay,
    stable_hash,
)
from repro.sim import ExperimentSpec
from repro.sketch import BloomFilter, CountMinSketch
from repro.streams import StationaryStream, from_mapping

EQUAL_ONES = (1, 1.0, True, np.int64(1), np.float64(1.0), np.bool_(True))


class TestCanonicalKey:
    @pytest.mark.parametrize("value", EQUAL_ONES)
    def test_equal_keys_share_one_canonical_form(self, value):
        from repro.core.tuples import canonical_key

        key = canonical_key(value)
        assert type(key) is int and key == 1

    @pytest.mark.parametrize(
        "value", [7, -3, 2.5, float("inf"), "7", (1, 2), None, 10**30]
    )
    def test_other_values_pass_through(self, value):
        from repro.core.tuples import canonical_key

        key = canonical_key(value)
        assert type(key) is type(value) and key == value

    def test_python_ints_hash_exactly_as_before(self):
        # Routing and sketch counts of int-keyed streams do not move.
        for v in (0, 1, -17, 2**40):
            digest = hashlib.blake2b(repr(v).encode("utf-8"), digest_size=8)
            assert stable_hash(v) == int.from_bytes(digest.digest(), "big")


class TestRouting:
    def test_equal_keys_route_to_one_shard(self):
        router = ShardRouter(4)
        assert router.shard_for(1) == 2
        for value in EQUAL_ONES:
            assert router.shard_for(value) == 2, repr(value)

    def test_sharded_join_of_mixed_types_matches_one_shard(self):
        spec = ExperimentSpec(kind="join", cache_size=8)

        async def run(n_shards):
            server = StreamServer(
                spec, lambda: make_policy("lru"), n_shards=n_shards
            )
            await server.start()
            await server.submit(0, 1, 1.0)
            await server.submit(1, True, 1)
            await server.stop()
            return server.total_results

        one = asyncio.run(asyncio.wait_for(run(1), timeout=60))
        two = asyncio.run(asyncio.wait_for(run(2), timeout=60))
        assert one == 2
        assert two == one


class TestSketches:
    def test_count_min_counts_equal_keys_as_one(self):
        sketch = CountMinSketch()
        for value in (1, np.int64(1), 1.0):
            sketch.increment(value)
        assert sketch.estimate(1) == 3

    def test_bloom_membership_of_equal_keys(self):
        bloom = BloomFilter()
        assert bloom.add(np.int64(5))
        assert not bloom.add(5.0)
        for value in (5, 5.0, np.int64(5), np.float64(5.0)):
            assert value in bloom


def _run_server(spec, n_shards, scenario):
    async def go():
        server = StreamServer(spec, lambda: make_policy("lru"), n_shards=n_shards)
        await server.start()
        try:
            await scenario(server)
        finally:
            await server.stop()

    asyncio.run(asyncio.wait_for(go(), timeout=60))


SHARDS = pytest.mark.parametrize("n_shards", [1, 3])
JOIN = ExperimentSpec(kind="join", cache_size=4)
CACHE = ExperimentSpec(kind="cache", cache_size=4)
MULTI = ExperimentSpec(
    kind="multi_join", cache_size=4, queries=(("A", "B"), ("B", "C"))
)


class TestServeBoundary:
    @SHARDS
    def test_join_step_running_backwards_is_rejected(self, n_shards):
        async def scenario(server):
            await server.submit(5, 2, None)
            with pytest.raises(ValueError, match=r"step 3 .*last accepted step 5"):
                await server.submit(3, None, 2)
            await server.submit(5, None, 3)  # the same step again is fine
            await server.drain()
            assert server.total_results == 0
            assert server.ingested_arrivals == 2

        _run_server(JOIN, n_shards, scenario)

    @SHARDS
    def test_reference_step_running_backwards_is_rejected(self, n_shards):
        async def scenario(server):
            await server.submit_reference(4, 1)
            with pytest.raises(ValueError, match=r"step 2 .*last accepted step 4"):
                await server.submit_reference(2, 1)

        _run_server(CACHE, n_shards, scenario)

    @SHARDS
    def test_multi_step_running_backwards_is_rejected(self, n_shards):
        async def scenario(server):
            await server.submit_multi(9, {"A": 1})
            with pytest.raises(ValueError, match=r"step 8 .*last accepted step 9"):
                await server.submit_multi(8, {"B": 1})

        _run_server(MULTI, n_shards, scenario)

    @SHARDS
    @pytest.mark.parametrize("nan", [float("nan"), np.float64("nan")])
    def test_nan_values_are_rejected(self, n_shards, nan):
        async def scenario(server):
            with pytest.raises(ValueError, match=r"step 0: value .*nan.* NaN"):
                await server.submit(0, nan, None)
            with pytest.raises(ValueError, match=r"step 1: value .*nan.* NaN"):
                await server.submit(1, 2, nan)
            assert server.ingested_arrivals == 0

        _run_server(JOIN, n_shards, scenario)

    @SHARDS
    def test_nan_reference_and_multi_arrival_are_rejected(self, n_shards):
        async def cache(server):
            with pytest.raises(ValueError, match=r"step 0: value nan"):
                await server.submit_reference(0, float("nan"))

        async def multi(server):
            with pytest.raises(ValueError, match=r"step 0: value nan"):
                await server.submit_multi(0, {"C": float("nan")})

        _run_server(CACHE, n_shards, cache)
        _run_server(MULTI, n_shards, multi)

    @SHARDS
    def test_unhashable_values_are_rejected(self, n_shards):
        async def join(server):
            with pytest.raises(TypeError, match=r"step 0: value \[1\] is unhashable"):
                await server.submit(0, [1], None)

        async def cache(server):
            with pytest.raises(TypeError, match=r"value \{1: 2\} is unhashable"):
                await server.submit_reference(0, {1: 2})

        async def multi(server):
            with pytest.raises(TypeError, match=r"step 0: value \[2\] is unhashable"):
                await server.submit_multi(0, {"A": 1, "B": [2]})
            assert server.ingested_arrivals == 0

        _run_server(JOIN, n_shards, join)
        _run_server(CACHE, n_shards, cache)
        _run_server(MULTI, n_shards, multi)

    @SHARDS
    def test_rejected_tick_does_not_advance_the_step(self, n_shards):
        async def scenario(server):
            await server.submit(2, 1, None)
            with pytest.raises(ValueError, match="NaN"):
                await server.submit(7, float("nan"), None)
            await server.submit(3, None, 1)
            await server.drain()
            assert server.total_results == 1

        _run_server(JOIN, n_shards, scenario)


def _replay_inputs(kind):
    """A seeded 300-step stream for ``kind`` and its experiment spec."""
    dist = from_mapping({v: 1.0 / 6 for v in range(1, 7)})
    model = StationaryStream(dist)
    if kind == "join":
        r, s = generate_join_stream(model, model, 300, seed=11)
        return ExperimentSpec(kind="join", cache_size=4), r, s
    if kind == "cache":
        refs = generate_reference_stream(model, 300, seed=11)
        return ExperimentSpec(kind="cache", cache_size=4), refs, None
    models = {name: model for name in ("A", "B", "C")}
    streams = generate_multi_join_stream(models, 300, seed=11)
    spec = ExperimentSpec(
        kind="multi_join",
        cache_size=4,
        queries=(("A", "B"), ("B", "C")),
        models=models,
    )
    return spec, streams, None


KINDS = pytest.mark.parametrize("kind", ["join", "cache", "multi_join"])


class TestConcurrentProducers:
    """Several replay producers still submit ticks in step order."""

    @KINDS
    def test_two_producers_match_one_without_backpressure(self, kind):
        spec, first, second = _replay_inputs(kind)

        def replay(n_producers):
            return run_replay(
                spec, lambda: make_policy("lru"), first, second,
                n_producers=n_producers,
            )

        one, two = replay(1), replay(2)
        assert two.steps == one.steps == 300
        assert two.ingested_arrivals == one.ingested_arrivals
        assert two.total_results == one.total_results
        assert (two.hits, two.misses) == (one.hits, one.misses)
        assert two.shard_occupancy == one.shard_occupancy

    @KINDS
    def test_producers_parked_on_full_queues_are_accepted(self, kind):
        spec, first, second = _replay_inputs(kind)
        summary = run_replay(
            spec, lambda: make_policy("lru"), first, second,
            n_shards=3, queue_maxsize=2, n_producers=3,
        )
        assert summary.steps == 300
        assert summary.backpressure_waits > 0

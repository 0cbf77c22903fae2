"""``StreamServer.drain`` waits only on shards with pending events.

Each shard keeps a ``pending`` count that mirrors its queue's unfinished
tasks (the stop sentinel excluded).  ``drain`` skips shards whose count
is zero — their ``queue.join()`` would return at once — but still checks
every worker for a crash.  Like the backpressure suite, every test runs
under ``asyncio.wait_for`` so a deadlock fails instead of hanging.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.policies import make_policy
from repro.policies.base import ReplacementPolicy
from repro.serve import StreamServer
from repro.sim import ExperimentSpec

TIMEOUT = 30  # seconds; the tests themselves run in well under 1s


def run(coro):
    """Run a coroutine under the suite's hang guard."""
    return asyncio.run(asyncio.wait_for(coro, timeout=TIMEOUT))


def join_spec(cache_size: int = 4) -> ExperimentSpec:
    return ExperimentSpec(kind="join", cache_size=cache_size)


class CrashAtPolicy(ReplacementPolicy):
    """Evicts the oldest tuple until step ``fuse``, then raises."""

    name = "crash-at"

    def __init__(self, fuse: int):
        self.fuse = fuse

    def select_victims(self, candidates, n_evict, ctx):
        if ctx.time >= self.fuse:
            raise RuntimeError("boom")
        return sorted(candidates, key=lambda t: t.arrival)[:n_evict]


def count_awaits(server: StreamServer) -> list[int]:
    """Record the shard index of every ``_await_or_worker_death`` call."""
    calls: list[int] = []
    original = server._await_or_worker_death

    async def counting(shard, awaitable):
        calls.append(shard.index)
        await original(shard, awaitable)

    server._await_or_worker_death = counting
    return calls


async def until_dead(server: StreamServer, index: int = 0) -> None:
    while not server.shards[index].worker.done():
        await asyncio.sleep(0)


class TestDrainSkipsIdleShards:
    """Idle shards are skipped; busy and crashed ones are not."""

    def test_awaits_only_the_shard_the_tick_landed_on(self):
        async def go():
            server = StreamServer(
                join_spec(), lambda: make_policy("lru"), n_shards=4
            )
            await server.start()
            calls = count_awaits(server)
            await server.submit(0, 7, None)
            owner = server._router.shard_for(7)
            assert [s.pending for s in server.shards] == [
                int(i == owner) for i in range(4)
            ]
            await server.drain()
            assert calls == [owner]
            assert server.shards[owner].events_applied == 1
            await server.drain()  # everything idle: nothing awaited
            assert calls == [owner]
            await server.stop()

        run(go())

    def test_waits_for_every_event_with_a_slow_consumer(self):
        async def go():
            server = StreamServer(
                join_spec(),
                lambda: make_policy("lru"),
                n_shards=4,
                queue_maxsize=64,
                step_delay=0.002,
            )
            await server.start()
            for t in range(30):
                await server.submit(t, t % 7, (t + 2) % 7)
            queued = sum(s.pending for s in server.shards)
            assert queued > 0
            await server.drain()
            applied = sum(s.events_applied for s in server.shards)
            assert applied == queued
            assert all(s.queue.empty() for s in server.shards)
            assert all(s.pending == 0 for s in server.shards)
            await server.stop()

        run(go())

    def test_crash_with_empty_queue_still_raises(self):
        async def go():
            server = StreamServer(
                join_spec(cache_size=1),
                lambda: CrashAtPolicy(fuse=3),
                queue_maxsize=16,
            )
            await server.start()
            for t in range(4):
                await server.submit(t, t, t + 100)
            await until_dead(server)
            shard = server.shards[0]
            assert shard.queue.empty() and shard.pending == 0
            with pytest.raises(RuntimeError, match="worker failed"):
                await server.drain()
            await server.abort()

        run(go())

    def test_crash_with_events_queued_still_raises(self):
        async def go():
            server = StreamServer(
                join_spec(cache_size=1),
                lambda: CrashAtPolicy(fuse=3),
                queue_maxsize=64,
            )
            await server.start()
            for t in range(20):
                await server.submit(t, t, t + 100)
            shard = server.shards[0]
            assert shard.pending == 20
            with pytest.raises(RuntimeError):
                await server.drain()
            assert not shard.queue.empty() and shard.pending > 0
            await server.abort()

        run(go())

    def test_pending_returns_to_zero(self):
        async def go():
            server = StreamServer(
                join_spec(cache_size=50),
                lambda: make_policy("lru"),
                n_shards=2,
                queue_maxsize=8,
                step_delay=0.001,
            )
            await server.start()
            for t in range(20):
                await server.submit(t, t % 6, (t + 3) % 6)
            await server.drain()
            assert [s.pending for s in server.shards] == [0, 0]
            old = server.shards
            await server.reshard(3)
            assert all(s.pending == 0 for s in old + server.shards)
            for t in range(20, 40):
                await server.submit(t, t % 6, (t + 3) % 6)
            await server.stop()
            assert all(s.pending == 0 for s in server.shards)
            assert sum(s.events_applied for s in server.shards) > 0

        run(go())

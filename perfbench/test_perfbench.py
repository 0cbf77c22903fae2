"""Tests of the benchmark itself: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import contextlib
import io
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run

run.import_program()

import hostspeed  # noqa: E402
import layers  # noqa: E402  (needs the program on the path)
import workloads  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


# ----------------------------------------------------------------------
# Span self-time arithmetic
# ----------------------------------------------------------------------
def test_self_time_subtracts_nested_children():
    # root [0, 10] with children [1, 3] and [5, 9]; [5, 9] has [6, 7].
    start = [0.0, 1.0, 5.0, 6.0]
    end = [10.0, 3.0, 9.0, 7.0]
    parent = [-1, 0, 0, 2]
    assert np.allclose(layers.self_times(start, end, parent), [4, 2, 3, 1])


def test_self_time_counts_overlapping_children_once():
    # Children of concurrent tasks overlap: [1, 5] and [3, 8] cover [1, 8].
    start = [0.0, 1.0, 3.0, 9.0]
    end = [10.0, 5.0, 8.0, 9.5]
    parent = [-1, 0, 0, 0]
    assert np.allclose(layers.self_times(start, end, parent),
                       [10 - 7 - 0.5, 4, 5, 0.5])


def test_self_time_clips_children_to_the_parent():
    start = [2.0, 1.0, 7.0, 20.0]
    end = [8.0, 4.0, 12.0, 30.0]
    parent = [-1, 0, 0, 0]
    assert np.allclose(layers.self_times(start, end, parent),
                       [6 - 2 - 1, 3, 5, 10])


def test_self_time_of_roots_is_their_duration():
    assert np.allclose(layers.self_times([0.0, 2.0], [1.0, 5.0], [-1, -1]),
                       [1.0, 3.0])


# ----------------------------------------------------------------------
# Metric names
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", ["steps_per_s", "core.prob_s", "a-b.c_1",
                                  "9lives"])
def test_valid_metric_names(name):
    assert run.check_metric_name(name) == name


@pytest.mark.parametrize("name", ["", "_x", ".x", "a b", "a/b", "p99%",
                                  "x" * 65])
def test_invalid_metric_names(name):
    with pytest.raises(ValueError):
        run.check_metric_name(name)


def test_benchmark_json_names_and_layer_map():
    end_to_end = run.declared_units("end_to_end")
    per_layer = run.declared_units("per_layer")
    names = [w["name"] for w in BENCHMARK["workloads"]]
    assert names == list(workloads.WORKLOADS)
    for name in names:
        run.check_metric_name(name)
    assert not any(n.startswith(("parallel", "native"))
                   for n in [*end_to_end, *per_layer])
    # Every per-layer metric is in the README's layer -> end-to-end map.
    readme = (run.ROOT / "perfbench" / "README.md").read_text()
    mapped = set(re.findall(r"`([a-z]+\.[a-z_]+)`",
                            readme.split("| metric | should move |")[1]))
    assert mapped == set(per_layer)


# ----------------------------------------------------------------------
# Wrappers come off again
# ----------------------------------------------------------------------
def _wrapped_attributes() -> list[str]:
    found = []
    for name, module in list(sys.modules.items()):
        if not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in vars(module).items():
            if hasattr(value, "__perfbench_original__"):
                found.append(f"{name}.{attr}")
            if isinstance(value, type):
                for key, member in vars(value).items():
                    if hasattr(member, "__perfbench_original__"):
                        found.append(f"{name}.{attr}.{key}")
    return found


def test_tracer_wraps_and_restores_every_layer():
    from repro.policies.base import ScoredPolicy
    from repro.sim import join_sim, step

    original_step = step.join_step
    original_select = ScoredPolicy.__dict__["select_victims"]
    assert _wrapped_attributes() == []
    tracer = layers.Tracer()
    with tracer:
        assert step.join_step is not original_step
        assert join_sim.join_step is step.join_step
        assert ScoredPolicy.__dict__["select_victims"] is not original_select
        assert len(_wrapped_attributes()) > 20
    assert _wrapped_attributes() == []
    assert step.join_step is original_step
    assert join_sim.join_step is original_step
    assert ScoredPolicy.__dict__["select_victims"] is original_select


def test_traced_calls_are_counted_once_per_entry():
    ops = workloads.build_scalar_join(3, 0.1)
    op = next(o for o in ops if o.label == "FLOOR/HEEB")
    tracer = layers.Tracer()
    with tracer:
        workloads.run_op(op)
    totals = tracer.layer_totals()
    assert totals["sim.step"][0] == op.ticks
    assert totals["policies.select"][0] == op.ticks


# ----------------------------------------------------------------------
# Checks inside the workloads
# ----------------------------------------------------------------------
def test_belady_matches_lfd():
    from repro.policies import make_policy
    from repro.sim.cache_sim import CacheSimulator

    rng = np.random.default_rng(5)
    reference = [int(v) for v in rng.zipf(1.3, size=800) % 60]
    for size in (3, 10, 25):
        got = CacheSimulator(size, make_policy("lfd", reference=reference)
                             ).run(reference)
        assert workloads.belady_outcome(reference, size) == (got.hits,
                                                             got.misses)


def test_weighted_quantile():
    assert workloads.weighted_quantile([3.0, 1.0, 2.0], [1, 1, 2], 0.5) == 2.0
    assert workloads.weighted_quantile([3.0, 1.0, 2.0], [1, 1, 2], 0.99) == 3.0
    # An exact split averages the two values around it.
    assert workloads.weighted_quantile([4.0, 1.0, 3.0, 2.0], [5] * 4,
                                       0.5) == 2.5


def test_host_factor_is_median_slice_over_reference():
    ref = hostspeed.REFERENCE_SLICE_S
    speed = hostspeed.HostSpeed()
    speed.times = [ref, 2 * ref, 9 * ref, 4 * ref]
    speed.stamps = [0.0, 1.0, 2.0, 10.0]
    assert speed.factor() == pytest.approx(3.0)
    # Work from 1.5 to 2.0 is judged by the slices from 1.0 to 2.5.
    assert speed.factor(1.5, 2.0) == pytest.approx(5.5)
    # A short piece of work still gets the slices just around it.
    margin = hostspeed.MARGIN_S
    assert speed.factor(1 + margin / 2, 1 + margin) == pytest.approx(2.0)
    speed = hostspeed.HostSpeed()
    speed.run(3)
    assert len(speed.times) == len(speed.stamps) == 3
    assert speed.stamps == sorted(speed.stamps) and speed.factor() > 0


def test_a_wrong_reference_counts_as_failed_not_fatal():
    workload = workloads.WORKLOADS["scalar-join"]
    ops = workload.setup(4, 0.1)[:2]
    workload.reference(ops)
    ops[0].ref = (ops[0].ref[0] + 1,)
    m = workload.measure_fixed(ops)
    assert (m.attempted, m.failed) == (2, 1)


def test_a_raising_tick_counts_as_failed_not_fatal():
    import asyncio

    workload = workloads.ServeWorkload()

    async def go():
        state = await workload.setup(5, 0.01)
        drain = state.server.drain

        async def flaky():
            await drain()
            if len(state.deltas) == 7:  # the eighth tick
                raise RuntimeError("injected")

        state.server.drain = flaky
        try:
            await workload.ticks(state, 20, None)
        finally:
            await state.server.stop()
        return workload.check(state, 0)

    assert asyncio.run(go()) == (20, 1)


# ----------------------------------------------------------------------
# Smoke runs
# ----------------------------------------------------------------------
def _run(*args: str) -> tuple[dict, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run.main(list(args)) == 0
    text = out.getvalue()
    return json.loads(text.strip().splitlines()[-1]), text


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_smoke_untraced(workload):
    result, text = _run("--workload", workload, "--seed", "2",
                        "--seconds", "0.2", "--trace", "0", "--scale", "0.05")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == set(run.declared_units("end_to_end"))
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert "error_rate" in text and '"fingerprint"' in text


def _run_process(*args: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(run.ROOT / "perfbench" / "run.py"), *args],
        cwd=run.ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_smoke_traced_counts_repeat(workload):
    # Separate processes, as the benchmark runs: garbage-collector
    # generations and module-level memo tables start empty each time.
    args = ("--workload", workload, "--seed", "2", "--seconds", "0.2",
            "--trace", "1", "--scale", "0.05")
    first = _run_process(*args)
    second = _run_process(*args)
    assert set(first["metrics"]) == set(run.declared_units("per_layer"))
    assert first["correct"] and second["correct"]
    for name, unit in run.declared_units("per_layer").items():
        if unit == "count":
            assert first["metrics"][name] == second["metrics"][name], name
    if workload != "serve":
        for name in ("obs.record_s", "obs.record_calls", "obs.calls_per_step"):
            assert first["metrics"][name]["value"] == 0


def test_fails_without_the_program(tmp_path: Path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout

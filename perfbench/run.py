"""Run one benchmark workload and print its metrics.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload scalar-join --seed 1 \
        --seconds 20 --trace 0

``--trace 0`` times the unpatched program and prints the end-to-end
metrics.  ``--trace 1`` alternates a fixed amount of work untraced and
with every layer wrapped (``layers.py``), and prints the per-layer
metrics plus the tracing overhead; its spans go to
``.perfbench/trace-<workload>.npz``.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it is the environment
fingerprint.  ``--scale`` shrinks every input for smoke tests.

The program is imported from ``src/`` of the checkout this file sits in;
without it the run fails before printing a result.
"""

from __future__ import annotations

import argparse
import asyncio
import importlib.util
import json
import os
import platform
import re
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent

#: Metric names: letters, digits, ``_``, ``.`` and ``-``, starting with a
#: letter or digit, at most 64 characters.
METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}\Z")


def check_metric_name(name: str) -> str:
    """Return ``name`` if it is a valid metric name, else raise."""
    if not METRIC_NAME.match(name):
        raise ValueError(f"invalid metric name {name!r}")
    return name


def declared_units(section: str) -> dict[str, str]:
    """Metric name -> unit for one section of ``BENCHMARK.json``."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {check_metric_name(m["name"]): m["unit"] for m in bench[section]}


def import_program() -> None:
    """Put the checkout's ``src/`` first on the path and import ``repro``."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import repro

    if src.resolve() not in Path(repro.__file__).resolve().parents:
        raise ImportError(f"repro imported from {repro.__file__}, not {src}")


def git_sha() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            path = git / ref
            if path.exists():
                return path.read_text().strip()
            for line in (git / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
            return "unknown"
        return head
    except OSError:
        return "unknown"


def fingerprint() -> dict:
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "git_sha": git_sha(),
        "machine": platform.machine(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def untraced(workload, seed: int, seconds: float, scale: float):
    """Set up ``SETUP_REPEATS`` times, then time the workload.

    Every time is divided by the host factor of the calibration slices
    around it (``hostspeed.py``), so it reads as at the reference host
    speed.
    """
    from hostspeed import HostSpeed
    from workloads import SETUP_REPEATS, SETUP_SLICES, ServeWorkload

    speed = HostSpeed()
    setups, raw_setups = [], []

    def setup_starts() -> float:
        speed.run(SETUP_SLICES)
        return perf_counter()

    def setup_ends(t0: float) -> None:
        t1 = perf_counter()
        raw_setups.append(t1 - t0)
        speed.run(SETUP_SLICES)
        setups.append(raw_setups[-1] / speed.factor(t0, t1))

    if isinstance(workload, ServeWorkload):

        async def go():
            state = None
            for _ in range(SETUP_REPEATS):
                if state is not None:
                    await state.server.stop()
                started = setup_starts()
                state = await workload.setup(seed, scale)
                await workload.warm(state, scale)
                setup_ends(started)
            try:
                return await workload.measure(state, seconds, speed)
            finally:
                await state.server.stop()

        m = asyncio.run(go())
    else:
        for _ in range(SETUP_REPEATS):
            started = setup_starts()
            ops = workload.setup(seed, scale)
            workload.warm(ops)
            setup_ends(started)
        workload.reference(ops)
        m = workload.measure(ops, seconds, speed)
    metrics = {
        "steps_per_s": m.steps_per_s,
        "tick_p50_ms": m.tick_p50_ms,
        "tick_p99_ms": m.tick_p99_ms,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb(),
    }
    info = dict(m.extra, host_factor=speed.factor(),
                raw_setup_s=statistics.median(raw_setups),
                tick_samples=m.tick_samples,
                error_rate=m.failed / m.attempted)
    return metrics, m.attempted, m.failed, info


def traced(workload, name: str, seed: int, scale: float):
    from layers import Tracer, layer_metrics
    from workloads import ServeWorkload

    tracer = Tracer()
    if isinstance(workload, ServeWorkload):
        m, extra = asyncio.run(workload.traced(seed, scale, tracer))
    else:
        m, extra = workload.traced(seed, scale, tracer)
    metrics = layer_metrics(tracer)
    metrics.update(extra)
    out = ROOT / ".perfbench"
    out.mkdir(exist_ok=True)
    tracer.write(out / f"trace-{name}.npz")
    return metrics, m.attempted, m.failed, {"spans": len(tracer.start)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0)
    args = parser.parse_args(argv)

    # One thread, as the whole benchmark: NumPy's BLAS would otherwise
    # start a worker per core and time the other core's load too.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    try:
        import_program()
    except ImportError as exc:
        print(f"cannot import the program: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"unknown workload {args.workload!r}; one of "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    if args.trace:
        metrics, attempted, failed, info = traced(
            workload, args.workload, args.seed, args.scale)
        units = declared_units("per_layer")
    else:
        metrics, attempted, failed, info = untraced(
            workload, args.seed, args.seconds, args.scale)
        units = declared_units("end_to_end")
    if set(metrics) != set(units):
        raise RuntimeError(f"measured {sorted(metrics)}, declared "
                           f"{sorted(units)}")

    for name, value in metrics.items():
        print(f"{args.workload:12s} {name:28s} {value:>16.6g} {units[name]}")
    for name, value in info.items():
        unit = "fraction" if name == "error_rate" else ""
        print(f"{args.workload:12s} {name:28s} {value:>16.6g} {unit}")
    print(json.dumps({"fingerprint": fingerprint()}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]}
            for name in units
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

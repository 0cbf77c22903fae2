"""Command-line runner for the paper's experiments.

Usage examples::

    python -m repro.experiments fig8 --length 600 --runs 3
    python -m repro.experiments fig9 --sizes 1 5 10 20 30 50
    python -m repro.experiments fig13 --memories 10 50 100 200 300
    python -m repro.experiments fig19 --deltas 1 2 3 5 8
    python -m repro.experiments all          # everything, bench-scale

Each command prints the same rows/series the corresponding paper figure
reports.  Paper-scale parameters: ``--length 5000 --runs 50``.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from ..obs import (
    NULL_RECORDER,
    CounterRecorder,
    ProgressRecorder,
    TraceRecorder,
    format_metrics,
)
from ..obs.recorder import Recorder
from .configs import make_config
from .figures import (
    figure6,
    figure7,
    figure8,
    figure9_12,
    figure13,
    figure14,
    figure15_16,
    figure17_18,
    figure19,
)
from .report import format_metadata, format_series_table, format_table


def _print(title: str, body: str) -> None:
    print(f"\n=== {title} ===")
    print(body)


#: Sweep command -> configuration registry key, for progress totals.
_SWEEP_CONFIGS = {
    "fig9": "TOWER",
    "fig10": "ROOF",
    "fig11": "FLOOR",
    "fig12": "WALK",
}


def _progress_total(args: argparse.Namespace) -> int | None:
    """Best-effort expected trial count for the ``--progress`` ETA.

    Counts one trial per (policy, run) pair the command will execute
    through the engines; OPT-OFFLINE solves bypass the engine layer and
    are excluded.  Returns ``None`` (count-only display, no ETA) for
    commands whose totals are not modeled.
    """
    cmd = args.command
    if cmd == "fig8":
        from .configs import SYNTHETIC_CONFIGS

        total = 0
        for config in SYNTHETIC_CONFIGS().values():
            n_policies = 3 + int(config.has_life)
            n_policies += int(not args.no_flowexpect)
            total += n_policies * args.runs
        return total
    if cmd in _SWEEP_CONFIGS:
        config = make_config(_SWEEP_CONFIGS[cmd])
        n_policies = 3 + int(config.has_life)
        return len(args.sizes) * n_policies * args.runs
    if cmd == "fig19":
        return (len(args.deltas) + 3) * args.runs
    return None


def _make_recorder(args: argparse.Namespace) -> Recorder:
    """Build the observability sink the flags ask for.

    ``--trace PATH`` streams JSONL events to ``PATH`` (and implies
    counters); ``--metrics`` collects counters only; ``--progress``
    wraps the sink in a stderr progress line (and implies counters when
    used alone); no flag keeps the default no-op recorder, so
    uninstrumented runs stay free.
    """
    recorder: Recorder = NULL_RECORDER
    if getattr(args, "trace", None):
        recorder = TraceRecorder(path=args.trace)
    elif getattr(args, "metrics", False):
        recorder = CounterRecorder()
    if getattr(args, "progress", False):
        if recorder is NULL_RECORDER:
            # Progress is driven by recorder counters, so it needs a
            # live sink; the counters are collected but only printed
            # when --metrics/--trace asked for them.
            recorder = CounterRecorder()
        return ProgressRecorder(recorder, total=_progress_total(args))
    return recorder


def _finish_recorder(recorder: Recorder, args: argparse.Namespace) -> None:
    """Flush and report whatever the recorder collected."""
    if isinstance(recorder, ProgressRecorder):
        recorder.finish()
    if not recorder.enabled:
        return
    if recorder.trace:
        recorder.close()  # type: ignore[attr-defined]
        print(f"\n[trace written to {args.trace}; summarize it with "
              f"`python -m repro.obs report {args.trace}`]")
    if getattr(args, "metrics", False) or getattr(args, "trace", None):
        _print("Observability counters", format_metrics(recorder.snapshot()))


def cmd_fig6(args: argparse.Namespace) -> None:
    curves = figure6(drifts=(0, 2, 4), alpha=args.alpha)
    offsets = list(range(-20, 21, 4))
    series = {f"drift={d}": [curves[d](o) for o in offsets] for d in (0, 2, 4)}
    _print(
        f"Figure 6: h_R offsets (alpha={args.alpha})",
        format_series_table("offset", offsets, series, fmt="{:.4f}"),
    )


def cmd_fig7(args: argparse.Namespace) -> None:
    pdfs = figure7()
    values = list(range(-15, 16, 3))
    series = {n: [d.pmf(v) for v in values] for n, d in pdfs.items()}
    _print(
        "Figure 7: noise pdfs",
        format_series_table("value", values, series, fmt="{:.4f}"),
    )


def cmd_fig8(args: argparse.Namespace) -> None:
    recorder = _make_recorder(args)
    results = figure8(
        length=args.length,
        cache_size=args.cache,
        n_runs=args.runs,
        include_flowexpect=not args.no_flowexpect,
        lookahead=args.lookahead,
        seed=args.seed,
        engine=args.engine,
        recorder=recorder,
    )
    meta = format_metadata(
        cache=args.cache,
        length=args.length,
        runs=args.runs,
        engine=args.engine or "scalar",
    )
    _print(f"Figure 8: average join counts ({meta})", format_table(results))
    _finish_recorder(recorder, args)


def _sweep(config_name: str, args: argparse.Namespace, label: str) -> None:
    recorder = _make_recorder(args)
    out = figure9_12(
        make_config(config_name),
        cache_sizes=tuple(args.sizes),
        length=args.length,
        n_runs=args.runs,
        seed=args.seed,
        engine=args.engine,
        recorder=recorder,
    )
    meta = format_metadata(
        length=args.length, runs=args.runs, engine=args.engine or "scalar"
    )
    _print(
        f"{label}: results vs cache size ({meta})",
        format_series_table("cache", args.sizes, out),
    )
    _finish_recorder(recorder, args)


def cmd_fig9(args):
    _sweep("TOWER", args, "Figure 9 (TOWER)")


def cmd_fig10(args):
    _sweep("ROOF", args, "Figure 10 (ROOF)")


def cmd_fig11(args):
    _sweep("FLOOR", args, "Figure 11 (FLOOR)")


def cmd_fig12(args):
    _sweep("WALK", args, "Figure 12 (WALK)")


def cmd_fig13(args: argparse.Namespace) -> None:
    result = figure13(
        memory_sizes=tuple(args.memories), n_days=args.days, seed=args.seed
    )
    fit = result.fit
    _print(
        f"Figure 13: REAL (fitted AR(1): phi1={fit.phi1:.2f}, "
        f"phi0={fit.phi0:.2f}, sigma={fit.sigma:.2f})",
        format_series_table(
            "memory", args.memories, result.misses, fmt="{:.0f}"
        ),
    )


def cmd_fig14(args: argparse.Namespace) -> None:
    out = figure14(length=args.length, cache_size=args.cache, n_runs=args.runs)
    steady = {
        label: {"R fraction": float(np.mean(series[args.length // 2 :]))}
        for label, series in out.items()
    }
    _print(
        f"Figure 14: cache fraction held by R (cache={args.cache})",
        format_table(steady, row_label="variant", fmt="{:.3f}"),
    )


def cmd_fig15(args: argparse.Namespace) -> None:
    cmp = figure15_16()
    _print(
        "Figures 15/16: h2 surface approximation",
        f"max |err| = {cmp.max_abs_error:.3e}\n"
        f"mean |err| = {cmp.mean_abs_error:.3e}\n"
        f"surface max = {cmp.max_value:.3e}",
    )


def cmd_fig17(args: argparse.Namespace) -> None:
    out = figure17_18(
        length=args.length, cache_size=args.cache, n_runs=args.runs
    )
    for group in ("variance", "lag"):
        steady = {
            label: {"fraction": float(np.mean(series[args.length // 2 :]))}
            for label, series in out[group].items()
        }
        _print(
            f"Figures 17/18 ({group} variants)",
            format_table(steady, row_label="variant", fmt="{:.3f}"),
        )


def cmd_fig19(args: argparse.Namespace) -> None:
    recorder = _make_recorder(args)
    out = figure19(
        delta_ts=tuple(args.deltas),
        length=args.length,
        cache_size=args.cache,
        n_runs=args.runs,
        recorder=recorder,
    )
    _print(
        f"Figure 19: FlowExpect look-ahead (length={args.length}, "
        f"cache={args.cache})",
        format_series_table("deltaT", args.deltas, out),
    )
    _finish_recorder(recorder, args)


def cmd_multi(args: argparse.Namespace) -> None:
    """Run an n-way (Appendix C) topology across policies and engines."""
    from ..policies import make_policy
    from ..sim.engine import spawn_rng
    from ..sim.runner import run_multi_join_experiment
    from .configs import make_multi_config

    recorder = _make_recorder(args)
    config = make_multi_config(args.config)
    trials = []
    for run in range(args.runs):
        rng = spawn_rng(args.seed, run)
        trials.append(
            {
                name: model.sample_path(args.length, rng)
                for name, model in config.models.items()
            }
        )
    rows: dict[str, dict[str, float]] = {}
    engines_used: dict[str, str] = {}
    for pol_name in args.policies:

        def factory(pol_name: str = pol_name):
            if pol_name == "heeb":
                return config.make_heeb(args.cache)
            if pol_name == "rand":
                return make_policy("rand", seed=args.seed)
            return make_policy(pol_name)

        out = run_multi_join_experiment(
            factory,
            trials,
            args.cache,
            config.queries,
            warmup=args.warmup,
            models=config.models,
            engine=args.engine,
            recorder=recorder,
        )
        rows[out.policy_name] = {"mean results": out.mean_results}
        engines_used[out.policy_name] = out.engine_used
    meta = format_metadata(
        cache=args.cache,
        length=args.length,
        runs=args.runs,
        engine=args.engine or "scalar",
    )
    queries = ", ".join(f"{a}⋈{b}" for a, b in config.queries)
    body = format_table(rows, row_label="policy")
    body += "\n\nengines used: " + ", ".join(
        f"{p}={e}" for p, e in engines_used.items()
    )
    _print(f"multi-join {config.name} [{queries}] ({meta})", body)
    _finish_recorder(recorder, args)


def cmd_serve(args: argparse.Namespace) -> None:
    """Run the asyncio serving tier over a seeded or recorded stream."""
    from ..policies import make_policy
    from ..serve import run_replay
    from ..serve.replay import (
        arrivals_from_trace,
        generate_join_stream,
        generate_multi_join_stream,
    )
    from ..sim.engine import ExperimentSpec
    from .configs import MultiJoinConfig

    recorder = _make_recorder(args)
    config = make_config(args.config)
    s_values = None
    if isinstance(config, MultiJoinConfig):
        if args.replay_trace:
            raise SystemExit("--replay-trace is not supported for multi-join configs")
        r_values = generate_multi_join_stream(
            config.models, args.length, args.seed, run=args.run
        )
        spec = ExperimentSpec(
            kind="multi_join",
            cache_size=args.cache,
            queries=tuple(tuple(q) for q in config.queries),
            models=config.models,
            seed=args.seed,
        )
    else:
        if args.replay_trace:
            r_values, s_values = arrivals_from_trace(args.replay_trace)
        else:
            r_values, s_values = generate_join_stream(
                config.r_model, config.s_model, args.length, args.seed, run=args.run
            )
        spec = ExperimentSpec(
            kind="join",
            cache_size=args.cache,
            window=args.window,
            r_model=config.r_model,
            s_model=config.s_model,
            window_oracle=config.window_oracle,
            seed=args.seed,
        )

    def policy_factory():
        from ..policies.base import ScoredPolicy
        from ..sketch import AdmissionFilter

        if args.policy == "heeb":
            policy = config.make_heeb(args.cache)
        elif args.counts != "exact":
            if args.policy not in ("prob", "lfu"):
                raise SystemExit(
                    "--counts sketch/tinylfu applies to prob/lfu only"
                )
            policy = make_policy(
                args.policy, counts=args.counts, sketch_width=args.sketch_width
            )
        else:
            policy = make_policy(args.policy)
        if args.admission:
            if not isinstance(policy, ScoredPolicy):
                raise SystemExit(
                    f"--admission needs a scored policy, not {args.policy!r}"
                )
            policy.with_admission(AdmissionFilter())
        return policy

    summary = run_replay(
        spec,
        policy_factory,
        r_values,
        s_values,
        n_shards=args.shards,
        queue_maxsize=args.queue,
        n_producers=args.producers,
        step_delay=args.step_delay,
        recorder=recorder,
        metrics_host=args.metrics_host,
        metrics_port=args.metrics_port,
        health_path=args.health_out,
    )
    body = "\n".join(f"{k}: {v}" for k, v in summary.as_dict().items())
    _print(
        f"serve: {args.config} / {args.policy} "
        f"(shards={args.shards}, per-shard cache={args.cache})",
        body,
    )
    _finish_recorder(recorder, args)


def cmd_figext(args: argparse.Namespace) -> None:
    """Render a registered extension figure as headless text tables."""
    from .figures import render_figure

    rendered = render_figure(
        args.figure,
        config_names=tuple(args.configs),
        cache_sizes=tuple(args.cache_sizes),
        length=args.length,
        n_runs=args.runs,
        seed=args.seed,
        engine=args.engine,
    )
    _print(f"{args.figure}: cache-size sweep", rendered)


def cmd_all(args: argparse.Namespace) -> None:
    for name in (
        "fig6",
        "fig7",
        "fig8",
        "fig9",
        "fig10",
        "fig11",
        "fig12",
        "fig13",
        "fig14",
        "fig15",
        "fig17",
        "fig19",
    ):
        start = time.perf_counter()
        _DISPATCH[name](_defaults_for(name, args))
        print(f"[{name}: {time.perf_counter() - start:.1f}s]")


def _defaults_for(name: str, base: argparse.Namespace) -> argparse.Namespace:
    """Build a namespace with that command's defaults for `all`."""
    parser = _build_parser()
    ns = parser.parse_args([name])
    ns.seed = base.seed
    return ns


def _add_common(p: argparse.ArgumentParser, length: int, runs: int, cache: int):
    p.add_argument("--length", type=int, default=length)
    p.add_argument("--runs", type=int, default=runs)
    p.add_argument("--cache", type=int, default=cache)
    p.add_argument("--seed", type=int, default=0)


def _add_engine(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--engine",
        choices=("scalar", "batch", "parallel"),
        default=None,
        help="simulation engine (default: scalar; falls back per policy)",
    )


def _add_obs(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--metrics",
        action="store_true",
        help="collect repro.obs counters and print them after the tables",
    )
    p.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="write a JSONL event trace to PATH (implies --metrics); "
        "summarize with `python -m repro.obs report PATH`",
    )
    p.add_argument(
        "--progress",
        action="store_true",
        help="render a trials-done/ETA progress line on stderr "
        "(driven by the recorder; off by default)",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's tables and figures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fig6", help="random-walk h_R curves")
    p.add_argument("--alpha", type=float, default=10.0)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("fig7", help="noise pdfs")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("fig8", help="headline comparison")
    _add_common(p, length=600, runs=3, cache=10)
    p.add_argument("--lookahead", type=int, default=5)
    p.add_argument("--no-flowexpect", action="store_true")
    _add_engine(p)
    _add_obs(p)

    for name in ("fig9", "fig10", "fig11", "fig12"):
        p = sub.add_parser(name, help=f"cache-size sweep ({name})")
        _add_common(p, length=1200, runs=3, cache=10)
        p.add_argument(
            "--sizes", type=int, nargs="+", default=[1, 5, 10, 20, 30, 50]
        )
        _add_engine(p)
        _add_obs(p)

    p = sub.add_parser("fig13", help="REAL caching")
    p.add_argument(
        "--memories", type=int, nargs="+", default=[10, 50, 100, 200, 300]
    )
    p.add_argument("--days", type=int, default=3650)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("fig14", help="memory allocation")
    _add_common(p, length=2500, runs=3, cache=10)

    p = sub.add_parser("fig15", help="h2 surface approximation")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("fig17", help="occupancy variants")
    _add_common(p, length=2000, runs=3, cache=10)

    p = sub.add_parser("fig19", help="FlowExpect look-ahead sweep")
    _add_common(p, length=400, runs=2, cache=10)
    p.add_argument("--deltas", type=int, nargs="+", default=[1, 2, 3, 5, 7, 10])
    _add_obs(p)

    p = sub.add_parser(
        "multi",
        help="n-way multi-join topology comparison (Appendix C)",
    )
    _add_common(p, length=800, runs=3, cache=10)
    p.add_argument(
        "--config",
        default="CHAIN3",
        help="multi-join topology name (CHAIN3, STAR5; default CHAIN3)",
    )
    p.add_argument(
        "--policies",
        nargs="+",
        default=["rand", "lru", "lfu", "prob", "trie", "heeb"],
        help="policy registry names ('heeb' uses the topology's "
        "Appendix-C strategy)",
    )
    p.add_argument("--warmup", type=int, default=0)
    _add_engine(p)
    _add_obs(p)

    p = sub.add_parser(
        "serve",
        help="push a stream through the asyncio serving tier (repro.serve)",
    )
    _add_common(p, length=2000, runs=1, cache=10)
    p.add_argument(
        "--config",
        default="FLOOR",
        help="synthetic scenario providing the stream models (default FLOOR)",
    )
    p.add_argument(
        "--policy",
        default="lru",
        help="replacement policy name (registry name, or 'heeb' for the "
        "scenario's HEEB strategy)",
    )
    p.add_argument(
        "--shards",
        type=int,
        default=1,
        help="cache shards; 1 = simulator-parity mode (default 1)",
    )
    p.add_argument(
        "--queue",
        type=int,
        default=256,
        help="per-shard bounded queue size (backpressure threshold)",
    )
    p.add_argument(
        "--producers",
        type=int,
        default=1,
        help="concurrent producer tasks feeding the server (default 1)",
    )
    p.add_argument(
        "--step-delay",
        type=float,
        default=0.0,
        help="artificial seconds slept per applied event (slow-consumer demo)",
    )
    p.add_argument("--window", type=int, default=None)
    p.add_argument(
        "--run",
        type=int,
        default=0,
        help="trial index for seed spawning (matches simulator run k)",
    )
    p.add_argument(
        "--replay-trace",
        metavar="PATH",
        default=None,
        help="replay arrivals recorded in a repro.obs trace file instead "
        "of sampling a seeded stream",
    )
    p.add_argument(
        "--counts",
        choices=("exact", "sketch", "tinylfu"),
        default="exact",
        help="frequency back-end for prob/lfu: exact Counter (default), "
        "count-min sketch, or TinyLFU (doorkeeper + halving)",
    )
    p.add_argument(
        "--sketch-width",
        type=int,
        default=2048,
        help="count-min width per row when --counts is a sketch mode",
    )
    p.add_argument(
        "--admission",
        action="store_true",
        help="attach the bloom admission front-end (scored policies only): "
        "first-time values below the eviction-cutoff EMA are rejected",
    )
    p.add_argument(
        "--metrics-port",
        type=int,
        default=None,
        metavar="PORT",
        help="serve Prometheus /metrics and JSON /health on this port "
        "for the duration of the replay (0 = ephemeral); watch it with "
        "`python -m repro.obs top --url http://HOST:PORT`",
    )
    p.add_argument(
        "--metrics-host",
        default="127.0.0.1",
        help="bind address for --metrics-port (default 127.0.0.1)",
    )
    p.add_argument(
        "--health-out",
        metavar="PATH",
        default=None,
        help="write the final /health JSON document here (offline "
        "snapshot for `repro.obs top --snapshot`)",
    )
    _add_obs(p)

    p = sub.add_parser(
        "figext",
        help="registered extension figures (headless text tables)",
    )
    p.add_argument(
        "--figure",
        default="ext-multi-sweep",
        help="registered figure name (see repro.experiments.figures)",
    )
    p.add_argument(
        "--configs",
        nargs="+",
        default=["CHAIN3", "STAR5"],
        help="multi-join topologies to sweep",
    )
    p.add_argument(
        "--cache-sizes",
        type=int,
        nargs="+",
        default=[4, 8, 12],
        help="cache sizes swept per topology",
    )
    p.add_argument("--length", type=int, default=300)
    p.add_argument("--runs", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    _add_engine(p)

    p = sub.add_parser("all", help="run everything at bench scale")
    p.add_argument("--seed", type=int, default=0)

    return parser


_DISPATCH = {
    "fig6": cmd_fig6,
    "fig7": cmd_fig7,
    "fig8": cmd_fig8,
    "fig9": cmd_fig9,
    "fig10": cmd_fig10,
    "fig11": cmd_fig11,
    "fig12": cmd_fig12,
    "fig13": cmd_fig13,
    "fig14": cmd_fig14,
    "fig15": cmd_fig15,
    "fig17": cmd_fig17,
    "fig19": cmd_fig19,
    "multi": cmd_multi,
    "serve": cmd_serve,
    "figext": cmd_figext,
    "all": cmd_all,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    _DISPATCH[args.command](args)
    return 0


if __name__ == "__main__":
    sys.exit(main())

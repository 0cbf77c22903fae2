"""Trace walkthrough: answer "why did HEEB evict tuple X at step t?".

Runs a short TOWER-style join under HEEB with a
:class:`~repro.obs.trace.TraceRecorder` attached, writes the JSONL
trace, prints the counter snapshot and the trace summary, and then
zooms in on one eviction: the ``scores`` event shows every candidate's
H value at that step and the ``evict`` event shows which tuple lost.

This is the runnable companion to ``docs/OBSERVABILITY.md``.

Run:  python examples/trace_walkthrough.py [trace.jsonl]
"""

from __future__ import annotations

import sys

import numpy as np

from repro.core.lifetime import LExp, alpha_for_mean_lifetime
from repro.obs import (
    TraceRecorder,
    format_metrics,
    format_trace_summary,
    read_trace,
    summarize_trace,
)
from repro.policies import HeebPolicy, TrendJoinHeeb
from repro.sim.join_sim import JoinSimulator
from repro.streams import LinearTrendStream, bounded_normal

CACHE_SIZE = 5
LENGTH = 120
SEED = 42


def main() -> None:
    trace_path = sys.argv[1] if len(sys.argv) > 1 else "heeb_trace.jsonl"

    # 1. A small TOWER-style workload (see examples/quickstart.py).
    r_model = LinearTrendStream(bounded_normal(10, 1.0), speed=1.0, lag=1)
    s_model = LinearTrendStream(bounded_normal(15, 2.0), speed=1.0)
    rng = np.random.default_rng(SEED)
    r_values = r_model.sample_path(LENGTH, rng)
    s_values = s_model.sample_path(LENGTH, rng)

    # 2. Run HEEB with a trace recorder attached.  The recorder is the
    #    only change versus an uninstrumented run; close() flushes the
    #    JSONL file (or use the recorder as a context manager).
    policy = HeebPolicy(TrendJoinHeeb(LExp(alpha_for_mean_lifetime(3.0))))
    with TraceRecorder(trace_path) as recorder:
        sim = JoinSimulator(
            CACHE_SIZE,
            policy,
            r_model=r_model,
            s_model=s_model,
            recorder=recorder,
        )
        result = sim.run(r_values, s_values)

    print(f"join results: {result.total_results}   (trace -> {trace_path})\n")

    # 3. The counter snapshot: what happened, in aggregate.
    print("counters\n--------")
    print(format_metrics(recorder.snapshot()))

    # 4. The trace summary (same table `python -m repro.obs report` prints).
    events = read_trace(trace_path)
    print("\ntrace summary\n-------------")
    print(format_trace_summary(summarize_trace(events)))

    # 5. Zoom: find an eviction and show the scores that caused it.
    #    A `scores` event lists every candidate's H value; the matching
    #    `evict` event (same step) names the loser — by construction the
    #    candidate with the lowest score.
    evict = next(
        e for e in events if e["kind"] == "evict" and not e.get("expired")
    )
    t = evict["t"]
    scores = next(
        e for e in events if e["kind"] == "scores" and e["t"] == t
    )
    victim = evict["victims"][0]
    print(f"\nwhy was {victim['side']}={victim['value']} evicted at t={t}?")
    for cand in sorted(scores["candidates"], key=lambda c: c["score"]):
        mark = "  <- victim (lowest H)" if cand["uid"] == victim["uid"] else ""
        print(
            f"  uid={cand['uid']:<4} {cand['side']}={cand['value']:<5} "
            f"H={cand['score']:.4f}{mark}"
        )
    print(
        "\nThe victim had the lowest estimated expected benefit H among "
        "the candidates\n(drill further with "
        f"`python -m repro.obs report {trace_path} --steps {t} {t}`)."
    )


if __name__ == "__main__":
    main()

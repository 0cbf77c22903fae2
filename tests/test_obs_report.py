"""Report CLI edge cases: empty, unknown, overflowed, truncated traces.

The report must degrade gracefully on every trace a real (possibly
killed, possibly future-versioned) run can leave behind:

* a header-only trace summarizes to zero events without crashing;
* unknown event kinds and unknown fields are counted and otherwise
  ignored — the forward-compatibility contract of schema 1;
* a trace that overflowed its event bound still reports (the events
  that fit plus the ``trace.dropped`` counter tell the story);
* a truncated final line aborts a strict read but is skipped and
  reported by the tolerant read the CLIs use;
* ``--series`` renders sparkline tables, and ``--png`` fails with an
  actionable message when matplotlib is absent rather than crashing.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.obs import (
    TraceRecorder,
    collect_series,
    format_metrics,
    format_series_table,
    format_serve_section,
    read_trace,
    serve_latency_histograms,
    summarize_trace,
    format_trace_summary,
)
from repro.obs.report import main as report_main
from repro.obs.__main__ import main as obs_main
from repro.policies import LruPolicy
from repro.sim.join_sim import JoinSimulator
from repro.streams import RandomWalkStream
from repro.streams.noise import bounded_uniform

HEADER = '{"kind": "header", "schema": 1, "source": "repro.obs"}\n'


def _traced_run(path, length=50):
    model = RandomWalkStream(step=bounded_uniform(2))
    r = model.sample_path(length, np.random.default_rng(5))
    s = model.sample_path(length, np.random.default_rng(6))
    with TraceRecorder(path) as rec:
        JoinSimulator(3, LruPolicy(), recorder=rec).run(r, s)


class TestEmptyTrace:
    """Header-only traces are valid and summarize to nothing."""

    def test_summary_of_no_events(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text(HEADER)
        events = read_trace(path)
        assert events == []
        summary = summarize_trace(events)
        assert summary.total_events == 0
        assert summary.step_range is None
        assert "events  0" in format_trace_summary(summary)

    def test_cli_exit_zero(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text(HEADER)
        assert report_main([str(path)]) == 0
        assert "0 events" in capsys.readouterr().out

    def test_series_table_of_empty_trace(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text(HEADER)
        assert report_main([str(path), "--series"]) == 0
        assert "(no series events in trace)" in capsys.readouterr().out


class TestForwardCompatibility:
    """Unknown kinds and fields are ignored, not fatal."""

    def test_unknown_kinds_are_counted(self, tmp_path, capsys):
        path = tmp_path / "future.jsonl"
        lines = [HEADER.strip()] + [
            json.dumps(ev)
            for ev in (
                {"kind": "step", "t": 0, "results": 2},
                {"kind": "quantum_leap", "t": 0, "certainty": 0.1},
                {"kind": "step", "t": 1, "results": 1, "new_field": [1, 2]},
            )
        ]
        path.write_text("\n".join(lines) + "\n")
        summary = summarize_trace(read_trace(path))
        assert summary.event_counts["quantum_leap"] == 1
        assert summary.join_results == 3  # unknown field didn't derail
        assert report_main([str(path)]) == 0
        assert "events[quantum_leap]" in capsys.readouterr().out

    def test_malformed_series_events_are_skipped(self):
        events = [
            {"kind": "series", "t": 0, "name": "g", "value": 1.0},
            {"kind": "series", "t": 1, "value": 2.0},  # no name
            {"kind": "series", "t": 2, "name": "g", "value": "high"},
            {"kind": "series", "t": 3, "name": "g", "value": 3.0},
        ]
        assert collect_series(events) == {"g": [(0, 1.0), (3, 3.0)]}


class TestOverflowedTrace:
    """A run that hit its event bound still reports coherently."""

    def test_dropped_overflow_counters(self, tmp_path, capsys):
        path = tmp_path / "bounded.jsonl"
        model = RandomWalkStream(step=bounded_uniform(2))
        r = model.sample_path(60, np.random.default_rng(1))
        s = model.sample_path(60, np.random.default_rng(2))
        with TraceRecorder(path, max_events=5) as rec:
            JoinSimulator(3, LruPolicy(), recorder=rec).run(r, s)
        dropped = rec.snapshot()["counters"]["trace.dropped"]
        assert dropped > 0
        events = read_trace(path)
        assert len(events) == 5
        assert report_main([str(path)]) == 0
        out = capsys.readouterr().out
        assert "5 events" in out
        # The counter snapshot names the gap the trace cannot show.
        assert "trace.dropped" in format_metrics(rec.snapshot())


class TestTruncatedTrace:
    """Strict reads refuse torn tails; tolerant reads report them."""

    def test_strict_read_raises(self, tmp_path):
        path = tmp_path / "torn.jsonl"
        _traced_run(path)
        with path.open("a", encoding="utf-8") as fh:
            fh.write('{"kind": "step", "t": 99')
        with pytest.raises(ValueError, match="line"):
            read_trace(path)

    def test_tolerant_read_skips_and_reports(self, tmp_path):
        path = tmp_path / "torn.jsonl"
        _traced_run(path)
        whole = len(read_trace(path))
        with path.open("a", encoding="utf-8") as fh:
            fh.write('{"kind": "step", "t": 99')
        bad: list[str] = []
        events = read_trace(path, strict=False, bad_lines=bad)
        assert len(events) == whole
        assert len(bad) == 1

    def test_cli_warns_and_continues(self, tmp_path, capsys):
        path = tmp_path / "torn.jsonl"
        _traced_run(path)
        with path.open("a", encoding="utf-8") as fh:
            fh.write("not json at all")
        assert report_main([str(path)]) == 0
        captured = capsys.readouterr()
        assert "line skipped" in captured.err
        assert "events" in captured.out


class TestSeriesOutput:
    """--series sparklines and the --png matplotlib gate."""

    def test_series_table_rendered(self, tmp_path, capsys):
        path = tmp_path / "run.jsonl"
        _traced_run(path)
        assert report_main([str(path), "--series"]) == 0
        out = capsys.readouterr().out
        assert "cache.occupancy" in out
        assert "join.results.cum" in out
        # Sparkline block characters actually appear.
        assert any(ch in out for ch in "▁▂▃▄▅▆▇█")

    def test_format_series_table_alignment(self):
        table = format_series_table(
            {"a": [(0, 1.0), (1, 2.0)], "bb": [(0, 3.0)]}
        )
        lines = table.splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("a ")
        assert "n=2" in lines[0] and "n=1" in lines[1]

    def test_png_without_matplotlib_fails_cleanly(self, tmp_path, capsys):
        try:
            import matplotlib  # noqa: F401

            pytest.skip("matplotlib installed; the gate is exercised without it")
        except ImportError:
            pass
        path = tmp_path / "run.jsonl"
        _traced_run(path)
        out_png = tmp_path / "series.png"
        assert report_main([str(path), "--series", "--png", str(out_png)]) == 1
        assert "matplotlib" in capsys.readouterr().err
        assert not out_png.exists()

    def test_unknown_subcommand_prints_usage_and_exits_2(self, tmp_path, capsys):
        # A bare trace path is not a subcommand: usage, exit 2, no report.
        path = tmp_path / "run.jsonl"
        _traced_run(path)
        assert obs_main([str(path)]) == 2
        captured = capsys.readouterr()
        assert "report|diff|top" in captured.err
        assert captured.out == ""
        assert obs_main([]) == 2
        assert obs_main(["report", str(path)]) == 0
        assert capsys.readouterr().out


class TestServeSection:
    """--serve summarizes span latency and duty cycle from a trace."""

    def test_no_serve_series_fallback(self):
        assert format_serve_section({}) == "(no serve series in trace)"

    def test_duty_cycle_and_span_rows_from_series(self):
        series_map = {
            "serve.backpressure.wait_ms": [(0, 30.0), (5, 20.0)],
            "serve.uptime_ms": [(0, 1000.0)],
            "serve.span.decide_ms": [(t, 0.5) for t in range(10)],
            "cache.occupancy": [(0, 3.0)],  # non-serve series ignored
        }
        section = format_serve_section(series_map)
        assert "backpressure duty cycle" in section
        assert "5.00%" in section  # 50ms blocked of 1000ms uptime
        assert "serve.span.decide_ms" in section
        assert "n=10" in section
        assert "cache.occupancy" not in section

    def test_wait_without_uptime_still_reported(self):
        section = format_serve_section(
            {"serve.backpressure.wait_ms": [(0, 12.0)]}
        )
        assert "12.0ms (no uptime series)" in section

    def test_histograms_rebuilt_from_points(self):
        values = [0.1, 0.5, 2.0, 40.0]
        hists = serve_latency_histograms(
            {
                "serve.span.emit_ms": [(t, v) for t, v in enumerate(values)],
                "serve.queue_depth": [(0, 9.0)],  # not a span series
            }
        )
        assert set(hists) == {"serve.span.emit_ms"}
        hist = hists["serve.span.emit_ms"]
        assert hist.count == len(values)
        assert hist.vmax == 40.0

    def test_traced_replay_round_trips_span_latency(self, tmp_path, capsys):
        # A traced single-shard replay re-summarizes offline to the
        # same decide-latency numbers the live server measured.
        from repro.policies import make_policy
        from repro.serve import run_replay
        from repro.sim import ExperimentSpec

        path = tmp_path / "serve.jsonl"
        r = [i % 5 for i in range(40)]
        s = [(i + 2) % 5 for i in range(40)]
        with TraceRecorder(path) as rec:
            summary = run_replay(
                ExperimentSpec(kind="join", cache_size=6),
                lambda: make_policy("lru"),
                r,
                s,
                recorder=rec,
            )
        series_map = collect_series(read_trace(path))
        hists = serve_latency_histograms(series_map)
        decide = hists["serve.span.decide_ms"]
        assert decide.count == 40
        assert decide.quantile(0.99) == pytest.approx(summary.p99_decide_ms)
        assert report_main([str(path), "--serve"]) == 0
        out = capsys.readouterr().out
        assert "serve:" in out
        assert "serve.span.decide_ms" in out
        assert "backpressure duty cycle" in out

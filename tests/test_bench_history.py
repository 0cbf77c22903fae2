"""Benchmark-history gate: flattening, fingerprints, rolling-median check.

``tools/`` is not a package, so the module under test is loaded by file
path — the same way ``benchmarks/perf_harness.py`` imports it.  Pins:

* a harness report flattens into an entry whose metrics cover both the
  aggregate and FlowExpect sections (and tolerates either being absent);
* append/load round-trips through JSONL, skipping truncated lines;
* the fingerprint separates runs by environment *and* workload, so the
  check never compares apples to oranges;
* the check fails in the correct direction for higher-is-better and
  lower-is-better metrics, passes within tolerance, and passes with a
  note below ``min_runs``;
* the CLI exits 0/1 accordingly.
"""

from __future__ import annotations

import copy
import importlib.util
from pathlib import Path

import pytest

_REPO = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def bh():
    """The bench_history module, loaded by path like the harness does."""
    spec = importlib.util.spec_from_file_location(
        "bench_history_under_test", _REPO / "tools" / "bench_history.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


REPORT = {
    "workload": {"figure": "fig08", "length": 100, "trials_per_experiment": 8},
    "environment": {
        "python": "3.11.7",
        "numpy": "2.4.6",
        "machine": "x86_64",
        "cpu_count": 1,
        "parallel_workers": 1,
        "irrelevant_extra": "dropped",
    },
    "aggregate": {
        "trials": 32,
        "scalar_trials_per_sec": 100.0,
        "batch_trials_per_sec": 800.0,
        "batch_speedup": 8.0,
        "parallel_speedup": 1.0,
        "parallel_trials_per_sec": 100.0,
    },
    "flowexpect": {
        "length": 60,
        "lookahead": 4,
        "cache_size": 10,
        "fast_ms_per_step": 0.5,
        "reference_ms_per_step": 3.0,
        "fast_speedup": 6.0,
        "prob_table_hit_rate": 0.7,
    },
    "multi_join": {
        "config": "CHAIN3",
        "length": 80,
        "trials": 8,
        "scalar_trials_per_sec": 40.0,
        "batch_trials_per_sec": 200.0,
        "batch_speedup": 5.0,
        "serve_length": 500,
        "serve_n_shards": 3,
        "serve_tuples_per_sec": 9000.0,
    },
}


def _entry(bh, ts=1.0, **metric_overrides):
    entry = bh.entry_from_report(REPORT, ts=ts, sha="abc1234")
    entry["metrics"].update(metric_overrides)
    return entry


class TestEntryFromReport:
    """Report → history-entry flattening."""

    def test_headline_metrics_flattened(self, bh):
        entry = _entry(bh)
        m = entry["metrics"]
        assert m["batch_speedup"] == 8.0
        assert m["fe_fast_ms_per_step"] == 0.5
        assert m["fe_prob_table_hit_rate"] == 0.7
        assert "trials" not in m  # workload size is identity, not a metric

    def test_env_keys_filtered(self, bh):
        entry = _entry(bh)
        assert "irrelevant_extra" not in entry["env"]
        assert entry["env"]["cpu_count"] == 1

    def test_fe_workload_params_join_the_fingerprint(self, bh):
        entry = _entry(bh)
        assert entry["workload"]["fe_lookahead"] == 4
        other = copy.deepcopy(REPORT)
        other["flowexpect"]["lookahead"] = 8
        assert bh.fingerprint_key(entry) != bh.fingerprint_key(
            bh.entry_from_report(other, ts=1.0, sha="abc1234")
        )

    def test_multi_join_section_flattened_with_prefix(self, bh):
        entry = _entry(bh)
        m = entry["metrics"]
        assert m["multi_batch_speedup"] == 5.0
        assert m["multi_serve_tuples_per_sec"] == 9000.0
        assert entry["workload"]["multi_config"] == "CHAIN3"
        assert entry["workload"]["multi_trials"] == 8
        assert "multi_length" in entry["workload"]

    def test_serve_enabled_overhead_flattened_lower_is_better(self, bh):
        report = dict(REPORT, serve={"length": 20000, "n_shards": 1,
                                     "enabled_overhead_pct": 160.0})
        entry = bh.entry_from_report(report, ts=1.0, sha="x")
        assert entry["metrics"]["serve_enabled_overhead_pct"] == 160.0
        assert bh._lower_is_better("serve_enabled_overhead_pct")

    def test_missing_sections_are_tolerated(self, bh):
        partial = {"workload": {}, "environment": {}, "flowexpect": REPORT["flowexpect"]}
        entry = bh.entry_from_report(partial, ts=1.0, sha="x")
        assert "fe_fast_speedup" in entry["metrics"]
        assert "batch_speedup" not in entry["metrics"]


class TestAppendLoad:
    """JSONL round trip and tolerant loading."""

    def test_round_trip(self, bh, tmp_path):
        path = tmp_path / "hist.jsonl"
        first = _entry(bh, ts=1.0)
        second = _entry(bh, ts=2.0)
        bh.append_entry(path, first)
        bh.append_entry(path, second)
        loaded = bh.load_history(path)
        assert loaded == [first, second]

    def test_truncated_line_skipped_with_report(self, bh, tmp_path):
        path = tmp_path / "hist.jsonl"
        bh.append_entry(path, _entry(bh, ts=1.0))
        with path.open("a", encoding="utf-8") as fh:
            fh.write('{"ts": 2.0, "metr')  # killed mid-append
        bad: list[str] = []
        loaded = bh.load_history(path, bad_lines=bad)
        assert len(loaded) == 1
        assert len(bad) == 1 and bad[0].startswith("2:")

    def test_missing_file_is_empty_history(self, bh, tmp_path):
        assert bh.load_history(tmp_path / "nope.jsonl") == []


class TestCheck:
    """Rolling-median gating semantics."""

    def test_passes_within_tolerance(self, bh):
        entries = [
            _entry(bh, ts=1.0),
            _entry(bh, ts=2.0, batch_speedup=7.5),
            _entry(bh, ts=3.0, batch_speedup=7.2),  # −10% of median 7.75
        ]
        ok, messages = bh.check(entries, tolerance=0.2)
        assert ok, messages
        assert any("PASS" in m for m in messages)

    def test_higher_better_regression_fails(self, bh):
        entries = [_entry(bh, ts=1.0), _entry(bh, ts=2.0, batch_speedup=2.0)]
        ok, messages = bh.check(entries, tolerance=0.2)
        assert not ok
        assert any("batch_speedup" in m and "REGRESSION" in m for m in messages)

    def test_lower_better_regression_fails(self, bh):
        entries = [
            _entry(bh, ts=1.0),
            _entry(bh, ts=2.0, fe_fast_ms_per_step=5.0),  # 10× slower
        ]
        ok, messages = bh.check(entries, tolerance=0.2)
        assert not ok
        assert any(
            "fe_fast_ms_per_step" in m and "REGRESSION" in m for m in messages
        )

    def test_improvements_never_fail(self, bh):
        entries = [
            _entry(bh, ts=1.0),
            _entry(bh, ts=2.0, batch_speedup=80.0, fe_fast_ms_per_step=0.05),
        ]
        ok, _ = bh.check(entries, tolerance=0.2)
        assert ok

    def test_different_fingerprint_is_not_compared(self, bh):
        fast_elsewhere = _entry(bh, ts=1.0, batch_speedup=100.0)
        fast_elsewhere["env"]["cpu_count"] = 64
        entries = [fast_elsewhere, _entry(bh, ts=2.0)]
        ok, messages = bh.check(entries, tolerance=0.2, min_runs=2)
        # Only 1 comparable run → baseline-building pass, no comparison
        # against the 64-core numbers.
        assert ok
        assert any("baseline building" in m for m in messages)

    def test_empty_history_passes(self, bh):
        ok, messages = bh.check([])
        assert ok and any("empty" in m for m in messages)


def _legacy_native_entry(bh, ts):
    """A history line as recorded before the native section was removed."""
    entry = _entry(bh, ts=ts)
    entry["metrics"].update(
        native_native_ms_per_step=1.8609, native_reference_ms_per_step=1.6649
    )
    entry["workload"].update(
        native_length=200,
        native_lookahead=8,
        native_trials=4,
        native_available=False,
    )
    return entry


class TestLegacyNativeEntries:
    """History lines that still carry ``native_*`` metrics and workload
    keys (the committed BENCH_history.jsonl has them) stay loadable and
    never break the gate."""

    def test_report_native_section_is_ignored(self, bh):
        report = dict(REPORT, native={"length": 200, "native_available": False,
                                      "native_ms_per_step": 1.86})
        entry = bh.entry_from_report(report, ts=1.0, sha="x")
        assert not any(k.startswith("native_") for k in entry["metrics"])
        assert not any(k.startswith("native_") for k in entry["workload"])

    def test_legacy_lines_load_and_check(self, bh, tmp_path, capsys):
        path = tmp_path / "hist.jsonl"
        for ts in (1.0, 2.0):
            bh.append_entry(path, _legacy_native_entry(bh, ts))
        entries = bh.load_history(path)
        assert len(entries) == 2
        assert entries[0]["metrics"]["native_reference_ms_per_step"] == 1.6649
        # Two legacy runs share a fingerprint: native_* metrics are gated
        # like any other lower-is-better latency.
        assert bh.main(["--check", "--history", str(path)]) == 0
        # A new-shape run has no native_* workload keys, so it never
        # compares against the legacy lines: baseline building, exit 0.
        bh.append_entry(path, _entry(bh, ts=3.0))
        assert bh.main(["--check", "--history", str(path)]) == 0
        assert "baseline building" in capsys.readouterr().out


class TestCli:
    """Exit codes of the command-line gate."""

    def test_check_pass_and_fail(self, bh, tmp_path, capsys):
        path = tmp_path / "hist.jsonl"
        bh.append_entry(path, _entry(bh, ts=1.0))
        bh.append_entry(path, _entry(bh, ts=2.0))
        assert bh.main(["--check", "--history", str(path)]) == 0
        bh.append_entry(path, _entry(bh, ts=3.0, batch_speedup=0.5))
        assert bh.main(["--check", "--history", str(path)]) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_summary_without_check(self, bh, tmp_path, capsys):
        path = tmp_path / "hist.jsonl"
        bh.append_entry(path, _entry(bh, ts=1.0))
        assert bh.main(["--history", str(path)]) == 0
        assert "1 recorded run(s)" in capsys.readouterr().out

    def test_committed_history_gates_green(self, bh, capsys):
        """The repo's own BENCH_history.jsonl must satisfy its gate."""
        history = _REPO / "BENCH_history.jsonl"
        assert history.exists()
        entries = bh.load_history(history)
        assert len(entries) >= 2
        assert (
            bh.main(["--check", "--history", str(history), "--tolerance", "0.5"])
            == 0
        )
        capsys.readouterr()

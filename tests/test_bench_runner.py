"""Unit tests for the `repro bench` runner (repro.obs.bench)."""

import copy
import json

import pytest

from repro.obs import bench as bench_mod
from repro.obs.bench import (
    BENCHES,
    bench_filename,
    compare_against,
    deterministic_view,
    diff_payloads,
    machine_fingerprint,
    run_bench,
    write_payload,
)


class TestRunBench:
    def test_unknown_name_is_an_error(self):
        with pytest.raises(ValueError, match="unknown bench"):
            run_bench("nope")

    def test_payload_carries_the_conventions(self):
        payload = run_bench("quantile_sketch", smoke=True)
        assert payload["benchmark"] == "quantile_sketch"
        assert payload["smoke"] is True
        assert payload["machine"] == machine_fingerprint()
        assert payload["work"]  # a non-empty work-counter snapshot
        json.dumps(payload, sort_keys=True)  # JSON-serializable as-is

    def test_game_work_counters_are_byte_identical_across_runs(self):
        # The acceptance bar: two seeded invocations agree on every
        # deterministic value, byte for byte, wall-clock excluded.
        first = run_bench("game_work", smoke=True)
        second = run_bench("game_work", smoke=True)
        assert json.dumps(deterministic_view(first), sort_keys=True) == \
            json.dumps(deterministic_view(second), sort_keys=True)
        assert first["verdicts_consistent"] is True
        work = first["work"]["default"]
        assert any("stage=\"game\"" in key for key in work)
        assert any("stage=\"compile\"" in key for key in work)

    def test_compile_cache_bench_is_deterministic(self):
        first = run_bench("compile_cache", smoke=True)
        second = run_bench("compile_cache", smoke=True)
        assert deterministic_view(first) == deterministic_view(second)
        assert first["verdicts_stable"] is True
        assert first["cache_hits"] > 0  # the warm sweep hit the cache


class TestDeterministicView:
    def test_strips_wall_clock_and_machine(self):
        payload = {
            "benchmark": "x", "solve_seconds": 1.23, "cold_ns": 5,
            "overhead_fraction": 0.01, "machine": {"cpus": 8},
            "work": {"default": {"pops": 4.0}, "warm_seconds": 9.9},
            "speedup": 11.0, "within_budget": True,
        }
        view = deterministic_view(payload)
        assert view == {"benchmark": "x", "work": {"default": {"pops": 4.0}}}

    def test_preserves_counters_and_lists(self):
        payload = {"scenarios": ["a", "b"], "work": {"pops": 3.0}}
        assert deterministic_view(payload) == payload


class TestDiffPayloads:
    BASE = {
        "benchmark": "game_work", "smoke": True, "verdicts_consistent": True,
        "solve_seconds": 0.5,
        "work": {"default": {"pops": 100.0, "nodes": 10.0}},
    }

    def test_identical_payloads_have_no_regressions(self):
        assert diff_payloads(self.BASE, copy.deepcopy(self.BASE)) == []

    def test_counter_growth_beyond_threshold_flags(self):
        current = copy.deepcopy(self.BASE)
        current["work"]["default"]["pops"] = 150.0
        (regression,) = diff_payloads(self.BASE, current, threshold=0.10)
        assert "pops" in regression and "150" in regression

    def test_counter_growth_within_threshold_passes(self):
        current = copy.deepcopy(self.BASE)
        current["work"]["default"]["pops"] = 105.0
        assert diff_payloads(self.BASE, current, threshold=0.10) == []

    def test_improvements_never_flag(self):
        current = copy.deepcopy(self.BASE)
        current["work"]["default"]["pops"] = 10.0
        assert diff_payloads(self.BASE, current) == []

    def test_wall_clock_changes_are_ignored(self):
        current = copy.deepcopy(self.BASE)
        current["solve_seconds"] = 500.0  # a 1000x slowdown: not our problem
        assert diff_payloads(self.BASE, current) == []

    def test_true_turning_false_flags(self):
        current = copy.deepcopy(self.BASE)
        current["verdicts_consistent"] = False
        (regression,) = diff_payloads(self.BASE, current)
        assert "verdicts_consistent" in regression

    def test_new_keys_do_not_flag(self):
        current = copy.deepcopy(self.BASE)
        current["work"]["other"] = {"pops": 1e9}
        assert diff_payloads(self.BASE, current) == []

    def test_vanished_counter_flags(self):
        # A counter the code stops reporting can no longer be gated; the
        # differ must say so instead of skipping it.
        current = copy.deepcopy(self.BASE)
        del current["work"]["default"]["nodes"]
        (regression,) = diff_payloads(self.BASE, current)
        assert regression == "work.default.nodes: 10.0 -> missing"

    def test_vanished_configuration_flags_every_counter(self):
        current = copy.deepcopy(self.BASE)
        del current["work"]["default"]
        assert diff_payloads(self.BASE, current) == [
            "work.default.nodes: 10.0 -> missing",
            "work.default.pops: 100.0 -> missing",
        ]

    def test_vanished_boolean_flags(self):
        current = copy.deepcopy(self.BASE)
        del current["verdicts_consistent"]
        (regression,) = diff_payloads(self.BASE, current)
        assert "verdicts_consistent" in regression


class TestCompareAgainst:
    def test_missing_baseline_returns_none(self, tmp_path):
        payload = {"benchmark": "game_work", "smoke": True}
        assert compare_against(payload, str(tmp_path / "nope.json")) is None

    def test_smoke_flag_mismatch_skips_the_diff(self, tmp_path):
        baseline = {"benchmark": "game_work", "smoke": False,
                    "work": {"pops": 1.0}}
        path = write_payload(baseline, str(tmp_path))
        current = {"benchmark": "game_work", "smoke": True,
                   "work": {"pops": 1e9}}
        assert compare_against(current, path) is None

    def test_matching_smoke_flags_diff(self, tmp_path):
        baseline = {"benchmark": "game_work", "smoke": True,
                    "work": {"pops": 10.0}}
        path = write_payload(baseline, str(tmp_path))
        current = {"benchmark": "game_work", "smoke": True,
                   "work": {"pops": 100.0}}
        (regression,) = compare_against(current, path)
        assert "pops" in regression


class TestWritePayload:
    def test_writes_sorted_json_with_newline(self, tmp_path):
        payload = {"benchmark": "demo", "b": 2, "a": 1}
        path = write_payload(payload, str(tmp_path))
        assert path.endswith(bench_filename("demo"))
        text = (tmp_path / "BENCH_demo.json").read_text()
        assert text.endswith("\n")
        assert text.index('"a"') < text.index('"b"')
        assert json.loads(text) == payload

    def test_every_bench_is_named(self):
        assert set(BENCHES) == {
            "game_work", "obs_overhead", "quantile_sketch", "compile_cache",
            "gateway_load", "incremental", "stream_enforce",
        }

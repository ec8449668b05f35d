"""Tests for the benchmark schema/regression guard used by perf-smoke CI."""

import json
import pathlib
import sys

_BENCHMARKS = pathlib.Path(__file__).resolve().parents[2] / "benchmarks"
sys.path.insert(0, str(_BENCHMARKS))

from bench_guard import (  # noqa: E402
    PROVENANCE_FIELDS,
    SCHEMAS,
    compare,
    kind_for_path,
    main,
    validate_schema,
)


def _payload(**overrides):
    base = {
        "recorded_at": "2026-08-08T00:00:00",
        "python": "3.11.7",
        "cpu_count": 4,
        "parallel_jobs": 4,
        "kernel_events_per_s": 2_000_000,
        "kernel_mixed_events_per_s": 900_000,
        "kernel_run_intervals_events_per_s": 2_500_000,
        "standard_cell_wall_clock_s": 3.0,
        "figure4_scale_cells": 15,
        "serial_wall_clock_s": 20.0,
        "parallel_wall_clock_s": 6.0,
        "parallel_speedup": 3.1,
        "parallel_skipped_reason": None,
        "speedup_by_jobs": {"1": 1.0, "2": 1.8, "4": 3.1},
        "cache_cold_wall_clock_s": 20.0,
        "cache_warm_wall_clock_s": 0.05,
        "cache_warm_executed": 0,
        "cache_warm_hits": 15,
    }
    base.update(overrides)
    return base


class TestSchema:
    def test_committed_baseline_passes(self):
        committed = json.loads(
            (_BENCHMARKS.parent / "BENCH_engine.json").read_text()
        )
        assert validate_schema(committed) == []

    def test_valid_payload_passes(self):
        assert validate_schema(_payload()) == []

    def test_missing_field_reported(self):
        payload = _payload()
        del payload["kernel_events_per_s"]
        assert any("kernel_events_per_s" in p for p in validate_schema(payload))

    def test_wrong_type_reported(self):
        payload = _payload(cpu_count="four")
        assert any("cpu_count" in p for p in validate_schema(payload))

    def test_single_core_speedup_must_be_null(self):
        """The provenance rule: a 1-core box cannot report a speedup."""
        payload = _payload(
            cpu_count=1,
            parallel_speedup=0.8,  # the pre-rework file did exactly this
        )
        assert any("cpu_count < 2" in p for p in validate_schema(payload))

    def test_null_speedup_requires_a_reason(self):
        payload = _payload(
            parallel_speedup=None,
            speedup_by_jobs=None,
            parallel_wall_clock_s=None,
            parallel_skipped_reason=None,
        )
        assert validate_schema(payload) != []
        payload["parallel_skipped_reason"] = "cpu_count=1 < 2"
        payload["cpu_count"] = 1
        assert validate_schema(payload) == []

    def test_non_object_rejected(self):
        assert validate_schema([1, 2, 3]) != []


def _routing_payload(**overrides):
    base = {
        "recorded_at": "2026-08-08T00:00:00",
        "python": "3.11.7",
        "cpu_count": 4,
        "map_sizes": [1_000, 10_000],
        "publish_batch": 64,
        "route_read_per_s": 4_000_000,
        "route_write_per_s": 3_000_000,
        "pinned_epoch_read_per_s": 6_000_000,
        "epoch_publish_ms_by_map_size": {"1000": 0.1},
        "partition_sizes_per_s_by_map_size": {"1000": 900.0},
    }
    base.update(overrides)
    return base


def _scale_payload(**overrides):
    base = {
        "recorded_at": "2026-08-08T00:00:00",
        "python": "3.11.7",
        "cpu_count": 1,
        "tuple_count": 1_000_000,
        "node_counts": [100, 250],
        "rss_unit": "KB",
        "build_wall_clock_s_by_nodes": {"100": 2.7, "250": 2.8},
        "peak_rss_by_nodes": {"100": 181_948, "250": 192_340},
        "route_read_per_s": 1_500_000,
        "pinned_epoch_read_per_s": 1_300_000,
        "epoch_publish_ms": 0.3,
        "bytes_per_tuple": 146.2,
        "map_bytes_per_key": 4.0,
        "e2e_node_count": 100,
        "e2e_tuple_count": 500_000,
        "e2e_scheduler": "Hybrid",
        "e2e_interval_s": 5.0,
        "e2e_measure_intervals": 3,
        "e2e_capacity_units_per_s": 8.0,
        "e2e_throughput_txn_per_min": [1000.0, 1100.0, 1050.0],
        "e2e_committed_total": 150,
        "e2e_wall_clock_s": 120.0,
    }
    base.update(overrides)
    return base


class TestSchemaKinds:
    def test_kind_inferred_from_filename(self):
        assert kind_for_path("BENCH_engine.json") == "engine"
        assert kind_for_path("/ci/BENCH_routing.json") == "routing"
        assert kind_for_path("BENCH_scale.json") == "scale"
        assert kind_for_path("BENCH_locking.json") == "locking"
        assert kind_for_path("BENCH_future_thing.json") == "generic"
        assert kind_for_path("results.json") == "generic"

    def test_every_schema_requires_provenance(self):
        for kind, fields in SCHEMAS.items():
            assert set(PROVENANCE_FIELDS) <= set(fields), kind

    def test_committed_routing_baseline_passes(self):
        committed = json.loads(
            (_BENCHMARKS.parent / "BENCH_routing.json").read_text()
        )
        assert validate_schema(committed, "routing") == []

    def test_routing_payload_checked_against_routing_schema(self):
        assert validate_schema(_routing_payload(), "routing") == []
        payload = _routing_payload()
        del payload["route_read_per_s"]
        assert any(
            "route_read_per_s" in p for p in validate_schema(payload, "routing")
        )

    def test_missing_provenance_fails_every_kind(self):
        for kind, payload in (
            ("engine", _payload()),
            ("routing", _routing_payload()),
            ("generic", {"recorded_at": "x", "python": "3.11.7"}),
        ):
            payload.pop("cpu_count", None)
            assert any(
                "cpu_count" in p for p in validate_schema(payload, kind)
            ), kind

    def test_committed_scale_baseline_passes(self):
        committed = json.loads(
            (_BENCHMARKS.parent / "BENCH_scale.json").read_text()
        )
        assert validate_schema(committed, "scale") == []

    def test_scale_schema_requires_e2e_section(self):
        """A scale file without the end-to-end run is rejected: the
        dataset/routing numbers alone do not prove the simulation runs
        at cluster scale."""
        assert validate_schema(_scale_payload(), "scale") == []
        payload = _scale_payload()
        del payload["e2e_throughput_txn_per_min"]
        assert any(
            "e2e_throughput_txn_per_min" in p
            for p in validate_schema(payload, "scale")
        )

    def test_scale_e2e_series_length_must_match_intervals(self):
        payload = _scale_payload(e2e_measure_intervals=5)
        assert any(
            "e2e_throughput_txn_per_min" in p
            for p in validate_schema(payload, "scale")
        )

    def test_scale_e2e_node_count_floor(self):
        payload = _scale_payload(e2e_node_count=10)
        assert any(
            "e2e_node_count" in p for p in validate_schema(payload, "scale")
        )

    def test_scale_per_node_series_keys_must_match(self):
        payload = _scale_payload(node_counts=[100, 250, 500])
        assert any(
            "build_wall_clock_s_by_nodes" in p
            for p in validate_schema(payload, "scale")
        )

    def test_locking_ratio_is_gated_on_any_machine(self):
        """The committed file passes; a file whose per-operation cost
        grows with the queue again fails its schema check outright."""
        committed = json.loads(
            (_BENCHMARKS.parent / "BENCH_locking.json").read_text()
        )
        assert validate_schema(committed, "locking") == []
        assert committed["before"]["depth128_over_depth1"] > 60
        regressed = {**committed, "depth128_over_depth1": 60.5}
        assert any(
            "depth128_over_depth1" in p
            for p in validate_schema(regressed, "locking")
        )
        del regressed["depth16_ops_per_s"]
        assert any(
            "depth16_ops_per_s" in p
            for p in validate_schema(regressed, "locking")
        )

    def test_generic_kind_ignores_extra_metrics(self):
        payload = {
            "recorded_at": "2026-08-08T00:00:00",
            "python": "3.11.7",
            "cpu_count": 2,
            "whatever_per_s": 123,
        }
        assert validate_schema(payload, "generic") == []

    def test_unknown_kind_rejected(self):
        assert validate_schema(_payload(), "bogus") != []

    def test_cli_kind_override(self, tmp_path, capsys):
        path = tmp_path / "BENCH_routing.json"
        path.write_text(json.dumps(_routing_payload()))
        assert main(["check-schema", str(path)]) == 0
        assert "(routing)" in capsys.readouterr().out
        # Forcing the engine schema onto a routing file fails loudly.
        assert main(["check-schema", str(path), "--kind", "engine"]) == 1


class TestCompare:
    def test_identical_passes(self):
        code, _ = compare(_payload(), _payload())
        assert code == 0

    def test_within_threshold_passes(self):
        fresh = _payload(kernel_events_per_s=1_700_000)  # -15%
        code, _ = compare(_payload(), fresh)
        assert code == 0

    def test_regression_beyond_threshold_fails(self):
        fresh = _payload(kernel_events_per_s=1_500_000)  # -25%
        code, messages = compare(_payload(), fresh)
        assert code == 1
        assert any("REGRESSION" in m for m in messages)

    def test_any_kernel_metric_can_trip_the_gate(self):
        fresh = _payload(kernel_run_intervals_events_per_s=1_000_000)  # -60%
        assert compare(_payload(), fresh)[0] == 1

    def test_different_cpu_count_skips(self):
        code, messages = compare(_payload(), _payload(cpu_count=1,
                                                      parallel_speedup=None,
                                                      speedup_by_jobs=None,
                                                      parallel_wall_clock_s=None,
                                                      parallel_skipped_reason="x"))
        assert code == 0
        assert any("skip" in m for m in messages)

    def test_different_python_minor_skips(self):
        code, messages = compare(
            _payload(), _payload(python="3.12.1", kernel_events_per_s=1)
        )
        assert code == 0
        assert any("skip" in m for m in messages)

    def test_patch_version_difference_still_compares(self):
        fresh = _payload(python="3.11.9", kernel_events_per_s=1_000_000)
        assert compare(_payload(), fresh)[0] == 1


class TestCli:
    def test_check_schema_ok(self, tmp_path, capsys):
        path = tmp_path / "bench.json"
        path.write_text(json.dumps(_payload()))
        assert main(["check-schema", str(path)]) == 0
        assert "schema OK" in capsys.readouterr().out

    def test_check_schema_failure(self, tmp_path, capsys):
        path = tmp_path / "bench.json"
        path.write_text(json.dumps(_payload(cpu_count=None)))
        assert main(["check-schema", str(path)]) == 1
        assert "cpu_count" in capsys.readouterr().err

    def test_compare_cli_detects_regression(self, tmp_path):
        baseline = tmp_path / "baseline.json"
        fresh = tmp_path / "fresh.json"
        baseline.write_text(json.dumps(_payload()))
        fresh.write_text(json.dumps(_payload(kernel_events_per_s=1_000_000)))
        assert main(["compare", str(baseline), str(fresh)]) == 1
        # A looser threshold lets the same pair pass.
        assert main(
            ["compare", str(baseline), str(fresh), "--threshold", "0.6"]
        ) == 0

    def test_compare_cli_rejects_malformed_baseline(self, tmp_path):
        baseline = tmp_path / "baseline.json"
        fresh = tmp_path / "fresh.json"
        baseline.write_text(json.dumps({"not": "a benchmark"}))
        fresh.write_text(json.dumps(_payload()))
        assert main(["compare", str(baseline), str(fresh)]) == 1

"""Tests for the parallel execution engine and the result cache.

The two load-bearing guarantees: ``jobs=4`` must reproduce ``jobs=1``
bit-for-bit (summaries *and* interval series), and a cache round-trip
must reproduce the exact result object.
"""

import dataclasses
import json

import pytest

from repro.errors import ConfigError
from repro.experiments.config import (
    config_delta,
    config_from_dict,
    config_to_dict,
)
from repro.experiments.parallel import shutdown_pool, warm_pool
from repro.faults import FaultEvent, FaultScheduleConfig

from repro.experiments import (
    CACHE_DIR_ENV,
    CACHE_SCHEMA_VERSION,
    CellReport,
    ResultCache,
    config_key,
    default_cache_dir,
    resolve_jobs,
    run_cells,
    run_experiment,
    sweep_seeds,
)
from repro.experiments.figures import _run_cells

from .test_runner import tiny


def _tiny_matrix():
    """Four small, distinct cells."""
    return [
        tiny(scheduler=scheduler, measure_intervals=3, warmup_intervals=1)
        for scheduler in ("ApplyAll", "AfterAll", "Piggyback", "Hybrid")
    ]


def _assert_identical(first, second):
    """Summaries and full interval series match bit-for-bit."""
    assert first.summary == second.summary
    assert len(first.intervals) == len(second.intervals)
    for a, b in zip(first.intervals, second.intervals):
        assert dataclasses.asdict(a) == dataclasses.asdict(b)


class TestRunCells:
    def test_results_in_config_order(self):
        configs = _tiny_matrix()
        results = run_cells(configs, jobs=1)
        assert [r.config.scheduler for r in results] == [
            c.scheduler for c in configs
        ]

    def test_serial_matches_direct_runner(self):
        config = tiny(measure_intervals=3, warmup_intervals=1)
        (via_engine,) = run_cells([config], jobs=1)
        _assert_identical(via_engine, run_experiment(config))

    def test_parallel_matches_serial_bit_for_bit(self):
        configs = _tiny_matrix()
        serial = run_cells(configs, jobs=1)
        parallel = run_cells(configs, jobs=4)
        for a, b in zip(serial, parallel):
            _assert_identical(a, b)

    def test_progress_fires_in_config_order(self):
        configs = _tiny_matrix()
        seen = []
        run_cells(configs, jobs=1, progress=lambda c: seen.append(c.scheduler))
        assert seen == [c.scheduler for c in configs]

    def test_report_counts_executions(self):
        report = CellReport()
        run_cells(_tiny_matrix()[:2], jobs=1, report=report)
        assert report.total == 2
        assert report.executed == 2
        assert report.cache_hits == 0
        assert report.cache_misses == 2
        assert report.wall_clock_s > 0

    def test_resolve_jobs(self):
        assert resolve_jobs(3) == 3
        assert resolve_jobs(1) == 1
        assert resolve_jobs(0) >= 1
        assert resolve_jobs(-2) >= 1


class TestResultCache:
    def test_round_trip_reproduces_exact_result(self, tmp_path):
        config = tiny(measure_intervals=3, warmup_intervals=1)
        cache = ResultCache(tmp_path)
        result = run_experiment(config)
        cache.put(config, result)
        restored = cache.get(config)
        assert restored == result  # dataclass equality over every field

    def test_second_batch_served_entirely_from_cache(self, tmp_path):
        configs = _tiny_matrix()
        cache = ResultCache(tmp_path)
        cold_report = CellReport()
        cold = run_cells(configs, cache=cache, report=cold_report)
        assert cold_report.executed == len(configs)

        warm_report = CellReport()
        executed = []
        warm = run_cells(
            configs,
            cache=cache,
            progress=lambda c: executed.append(c),
            report=warm_report,
        )
        assert executed == []  # zero simulations ran
        assert warm_report.executed == 0
        assert warm_report.cache_hits == len(configs)
        for a, b in zip(cold, warm):
            _assert_identical(a, b)

    def test_key_is_stable_and_config_sensitive(self):
        config = tiny(measure_intervals=3, warmup_intervals=1)
        assert config_key(config) == config_key(config)
        assert config_key(config) != config_key(
            config.with_overrides(seed=99)
        )
        assert config_key(config) != config_key(
            config.with_overrides(scheduler="AfterAll")
        )

    def test_schema_is_v4(self):
        # The elastic-membership refactor changed the stored interval
        # layout (the per-state node census fields) and the hashed
        # config (the elasticity schedule).
        assert CACHE_SCHEMA_VERSION == 4

    def test_old_schema_entry_is_ignored_not_misserved(self, tmp_path):
        """A v3-era entry under the same config must miss, not resurrect.

        Pre-v4 files are keyed by the old schema version in both the
        hashed payload and the filename prefix, so even a structurally
        readable old entry can never be looked up by a v4 cache.  A v4
        entry written while ``RuntimeConfig`` still had ``storage_tier``
        misses too: the retired field was part of the hashed document.
        """
        import json

        config = tiny(measure_intervals=3, warmup_intervals=1)
        cache = ResultCache(tmp_path)
        result = run_experiment(config)

        # Recreate what a v3 cache would have written for this config:
        # the old key mixes schema=3 into the hash and prefixes v3-.
        import dataclasses as dc
        import hashlib

        with_retired_field = dc.asdict(config)
        with_retired_field["runtime"]["storage_tier"] = "auto"
        old_paths = []
        for schema, hashed in ((3, dc.asdict(config)), (4, with_retired_field)):
            old_payload = json.dumps(
                {"schema": schema, "config": hashed},
                sort_keys=True, separators=(",", ":"), default=repr,
            )
            old_key = hashlib.sha256(old_payload.encode("utf-8")).hexdigest()
            old_paths.append(tmp_path / f"v{schema}-{old_key}.json")
        old_path, retired_field_path = old_paths
        from repro.metrics.export import result_to_state_dict

        state = result_to_state_dict(result)
        for interval in state["intervals"]:  # v3 records lacked the new fields
            for field_name in (
                "nodes_joining", "nodes_active",
                "nodes_draining", "nodes_retired",
            ):
                interval.pop(field_name)
        retired_field_path.write_text(json.dumps(result_to_state_dict(result)))
        old_path.write_text(json.dumps(state))

        assert cache.get(config) is None  # neither entry may be served
        assert cache.misses == 1
        assert cache.path_for(config).name.startswith("v4-")
        # old entries are ignored, not deleted
        assert old_path.exists() and retired_field_path.exists()

    def test_repeat_get_served_from_memory(self, tmp_path):
        config = tiny(measure_intervals=3, warmup_intervals=1)
        cache = ResultCache(tmp_path)
        cache.put(config, run_experiment(config))
        first = cache.get(config)  # disk read, populates the LRU
        assert cache.memory_hits == 0
        second = cache.get(config)
        assert second is first  # the same object, no JSON re-read
        assert cache.hits == 2
        assert cache.memory_hits == 1

    def test_memory_layer_survives_disk_entry_deletion(self, tmp_path):
        """Once read, an entry is served from memory even if the file goes."""
        config = tiny(measure_intervals=3, warmup_intervals=1)
        cache = ResultCache(tmp_path)
        cache.put(config, run_experiment(config))
        first = cache.get(config)
        cache.path_for(config).unlink()
        assert cache.get(config) is first

    def test_memory_layer_evicts_least_recent(self, tmp_path):
        configs = _tiny_matrix()[:3]
        cache = ResultCache(tmp_path, memory_entries=2)
        for config in configs:
            cache.put(config, run_experiment(config))
            cache.get(config)  # populate the LRU
        # configs[0] was evicted when configs[2] came in; the other two
        # are memory hits.
        before = cache.memory_hits
        assert cache.get(configs[1]) is not None
        assert cache.get(configs[2]) is not None
        assert cache.memory_hits == before + 2
        assert cache.get(configs[0]) is not None  # re-read from disk
        assert cache.memory_hits == before + 2

    def test_put_does_not_populate_memory(self, tmp_path):
        """The LRU fills on successful reads only, so a corrupted or
        unwritable disk entry can never be masked by the memory layer."""
        config = tiny(measure_intervals=3, warmup_intervals=1)
        cache = ResultCache(tmp_path)
        cache.put(config, run_experiment(config))
        cache.path_for(config).write_text("{not json")
        assert cache.get(config) is None
        assert cache.memory_hits == 0

    def test_memory_layer_can_be_disabled(self, tmp_path):
        config = tiny(measure_intervals=3, warmup_intervals=1)
        cache = ResultCache(tmp_path, memory_entries=0)
        cache.put(config, run_experiment(config))
        first = cache.get(config)
        second = cache.get(config)
        assert first == second
        assert second is not first  # every get re-reads the disk
        assert cache.memory_hits == 0

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        config = tiny(measure_intervals=3, warmup_intervals=1)
        cache = ResultCache(tmp_path)
        cache.put(config, run_experiment(config))
        cache.path_for(config).write_text("{not json")
        assert cache.get(config) is None
        assert cache.misses == 1

    def test_unwritable_directory_does_not_raise(self, tmp_path):
        config = tiny(measure_intervals=3, warmup_intervals=1)
        result = run_experiment(config)
        blocked = tmp_path / "file-not-dir"
        blocked.write_text("")
        cache = ResultCache(blocked / "cache")
        cache.put(config, result)  # must swallow the write failure
        assert cache.get(config) is None
        assert cache.misses == 1

    def test_env_var_overrides_default_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "elsewhere"))
        assert default_cache_dir() == tmp_path / "elsewhere"
        assert ResultCache().directory == tmp_path / "elsewhere"
        monkeypatch.delenv(CACHE_DIR_ENV)
        assert str(default_cache_dir()) == ".repro-cache"


class TestConfigSerde:
    """Dict/JSON round-tripping that the delta dispatch relies on."""

    def test_round_trip_is_exact(self):
        config = tiny(measure_intervals=3, warmup_intervals=1)
        rebuilt = config_from_dict(
            json.loads(json.dumps(config_to_dict(config)))
        )
        assert rebuilt == config
        assert config_key(rebuilt) == config_key(config)

    def test_round_trip_preserves_fault_schedule(self):
        schedule = FaultScheduleConfig(
            events=(
                FaultEvent(120.0, "crash", 2),
                FaultEvent(180.0, "restart", 2),
            ),
            mtbf_s=300.0,
            mttr_s=30.0,
        )
        config = tiny(measure_intervals=3, warmup_intervals=1).with_overrides(
            faults=schedule
        )
        rebuilt = config_from_dict(
            json.loads(json.dumps(config_to_dict(config)))
        )
        assert rebuilt == config
        assert isinstance(rebuilt.faults.events, tuple)
        assert config_key(rebuilt) == config_key(config)
        document = config_to_dict(config)
        document["faults"]["events"][0]["severity"] = 1
        with pytest.raises(ConfigError, match=r"faults\.events.*severity"):
            config_from_dict(document)

    def test_delta_contains_only_differing_fields(self):
        base = tiny(scheduler="Hybrid", measure_intervals=3, warmup_intervals=1)
        other = tiny(
            scheduler="Feedback",
            alpha=0.2,
            measure_intervals=3,
            warmup_intervals=1,
        )
        delta = config_delta(base, other)
        assert set(delta) == {"name", "scheduler", "alpha"}
        assert config_delta(base, base) == {}

    def test_delta_applied_over_base_reconstructs_cell(self):
        base = tiny(scheduler="Hybrid", measure_intervals=3, warmup_intervals=1)
        cell = tiny(
            scheduler="Piggyback",
            distribution="uniform",
            load="low",
            alpha=0.6,
            seed=7,
            measure_intervals=3,
            warmup_intervals=1,
        )
        merged = json.loads(json.dumps(config_to_dict(base)))
        merged.update(
            json.loads(json.dumps(config_delta(base, cell)))
        )
        assert config_from_dict(merged) == cell


class TestWarmPool:
    def test_pool_is_reused_for_same_worker_count(self):
        first = warm_pool(2)
        second = warm_pool(2)
        assert first is second
        shutdown_pool()

    def test_pool_rebuilt_when_worker_count_changes(self):
        first = warm_pool(2)
        second = warm_pool(3)
        assert first is not second
        assert second is warm_pool(3)
        shutdown_pool()

    def test_shutdown_is_idempotent(self):
        warm_pool(2)
        shutdown_pool()
        shutdown_pool()  # no live pool: must not raise

    def test_consecutive_run_cells_share_one_pool(self):
        configs = _tiny_matrix()[:2]
        first = run_cells(configs, jobs=2)
        pool_after_first = warm_pool(2)  # same size: must be the live pool
        second = run_cells(configs, jobs=2)
        assert warm_pool(2) is pool_after_first
        for a, b in zip(first, second):
            _assert_identical(a, b)

    def test_spawned_workers_import_through_the_facades(self, monkeypatch):
        """A ``spawn`` worker inherits no module: it unpickles its task by
        importing ``repro.experiments.parallel`` through the lazy packages."""
        monkeypatch.setattr(
            "repro.experiments.parallel._start_method", lambda: "spawn"
        )
        shutdown_pool()
        configs = _tiny_matrix()[:2]
        try:
            spawned = run_cells(configs, jobs=2)
        finally:
            shutdown_pool()
        for a, b in zip(spawned, run_cells(configs, jobs=1)):
            _assert_identical(a, b)


class TestIntegration:
    def test_figure_cells_parallel_matches_serial(self):
        def factory(scheduler, distribution, load, alpha, seed):
            return tiny(
                scheduler=scheduler,
                distribution=distribution,
                load=load,
                alpha=alpha,
                seed=seed,
                measure_intervals=3,
                warmup_intervals=1,
            )

        kwargs = dict(
            schedulers=("ApplyAll", "Hybrid"),
            config_factory=factory,
        )
        serial = _run_cells("F", "zipf", "low", (1.0, 0.6), jobs=1, **kwargs)
        parallel = _run_cells("F", "zipf", "low", (1.0, 0.6), jobs=4, **kwargs)
        assert set(serial.runs) == set(parallel.runs)
        for cell, result in serial.runs.items():
            _assert_identical(result, parallel.runs[cell])

    def test_sweep_parallel_matches_serial(self):
        config = tiny(measure_intervals=3, warmup_intervals=1)
        serial = sweep_seeds(config, seeds=(1, 2, 3), jobs=1)
        parallel = sweep_seeds(config, seeds=(1, 2, 3), jobs=3)
        for a, b in zip(serial.results, parallel.results):
            _assert_identical(a, b)

    def test_sweep_uses_cache(self, tmp_path):
        config = tiny(measure_intervals=3, warmup_intervals=1)
        cache = ResultCache(tmp_path)
        sweep_seeds(config, seeds=(1, 2), cache=cache)
        report = CellReport()
        sweep_seeds(config, seeds=(1, 2), cache=cache, report=report)
        assert report.executed == 0
        assert report.cache_hits == 2

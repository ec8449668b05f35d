"""Tests for workload profiles, generation, placement, and arrivals."""

import random

import pytest

from repro.cluster import Cluster, ClusterConfig
from repro.errors import ConfigError, StorageError
from repro.routing import PartitionMap
from repro.types import AccessMode
from repro.workload import (
    ArrivalConfig,
    PlacementConfig,
    PoissonArrivalProcess,
    TransactionType,
    WorkloadConfig,
    WorkloadProfile,
    WorkloadSampler,
    build_profile,
    calibrate_rate,
    choose_distributed_types,
    initial_placement,
    load_stores,
    place_unprofiled_keys,
    verify_placement,
)


class TestProfile:
    def test_type_validation(self):
        with pytest.raises(ConfigError):
            TransactionType(0, (), 1.0)
        with pytest.raises(ConfigError):
            TransactionType(0, (1, 1), 1.0)
        with pytest.raises(ConfigError):
            TransactionType(0, (1, 2), -1.0)

    def test_duplicate_type_ids_rejected(self):
        types = [
            TransactionType(0, (0,), 1.0),
            TransactionType(0, (1,), 1.0),
        ]
        with pytest.raises(ConfigError):
            WorkloadProfile(table="t", types=types)

    def test_probability_normalised(self):
        profile = WorkloadProfile(
            table="t",
            types=[
                TransactionType(0, (0,), 3.0),
                TransactionType(1, (1,), 1.0),
            ],
        )
        assert profile.probability_of(0) == pytest.approx(0.75)

    def test_hottest_sorted(self):
        profile = WorkloadProfile(
            table="t",
            types=[
                TransactionType(0, (0,), 1.0),
                TransactionType(1, (1,), 5.0),
            ],
        )
        assert [t.type_id for t in profile.hottest()] == [1, 0]
        assert len(profile.hottest(1)) == 1

    def test_key_index_and_types_accessing(self):
        profile = WorkloadProfile(
            table="t",
            types=[
                TransactionType(0, (0, 1), 1.0),
                TransactionType(1, (1, 2), 1.0),
            ],
        )
        index = profile.key_index()
        assert [t.type_id for t in index[1]] == [0, 1]
        assert [t.type_id for t in profile.types_accessing(2)] == [1]


class TestBuildProfile:
    def test_uniform_frequencies_equal(self):
        config = WorkloadConfig(
            tuple_count=100, distinct_types=10, distribution="uniform"
        )
        profile = build_profile(config)
        assert len(profile) == 10
        assert {t.frequency for t in profile.types} == {1.0}

    def test_zipf_frequencies_decrease(self):
        config = WorkloadConfig(
            tuple_count=100, distinct_types=10, distribution="zipf"
        )
        profile = build_profile(config)
        freqs = [t.frequency for t in profile.types]
        assert freqs == sorted(freqs, reverse=True)

    def test_key_blocks_disjoint_and_contiguous(self):
        config = WorkloadConfig(tuple_count=100, distinct_types=10)
        profile = build_profile(config)
        all_keys = [k for t in profile.types for k in t.keys]
        assert len(all_keys) == len(set(all_keys)) == 50
        assert profile.types[3].keys == (15, 16, 17, 18, 19)

    def test_too_many_types_rejected(self):
        with pytest.raises(ConfigError, match="do not fit"):
            WorkloadConfig(tuple_count=10, distinct_types=5,
                           queries_per_txn=5)

    def test_unknown_distribution_rejected(self):
        with pytest.raises(ConfigError):
            WorkloadConfig(distribution="pareto")


class TestSampler:
    def make(self, distribution="zipf", write_probability=0.5):
        config = WorkloadConfig(
            tuple_count=100, distinct_types=10, distribution=distribution,
            write_probability=write_probability,
        )
        profile = build_profile(config)
        return WorkloadSampler(profile, config, random.Random(0))

    def test_queries_cover_type_keys(self):
        sampler = self.make()
        ttype, queries = sampler.sample_transaction()
        assert [q.key for q in queries] == list(ttype.keys)

    def test_write_probability_respected(self):
        sampler = self.make(write_probability=1.0)
        _ttype, queries = sampler.sample_transaction()
        assert all(q.mode is AccessMode.WRITE for q in queries)
        sampler = self.make(write_probability=0.0)
        _ttype, queries = sampler.sample_transaction()
        assert all(q.mode is AccessMode.READ for q in queries)

    def test_zipf_sampling_prefers_hot_types(self):
        sampler = self.make(distribution="zipf")
        counts = {}
        for _ in range(2000):
            ttype = sampler.sample_type()
            counts[ttype.type_id] = counts.get(ttype.type_id, 0) + 1
        assert counts[0] == max(counts.values())

    def test_uniform_sampling_roughly_even(self):
        sampler = self.make(distribution="uniform")
        counts = {}
        for _ in range(5000):
            ttype = sampler.sample_type()
            counts[ttype.type_id] = counts.get(ttype.type_id, 0) + 1
        assert min(counts.values()) > 300


class TestPlacement:
    def make_profile(self):
        return build_profile(
            WorkloadConfig(tuple_count=100, distinct_types=10)
        )

    def test_choose_distributed_counts(self):
        profile = self.make_profile()
        rng = random.Random(0)
        assert len(choose_distributed_types(profile, 1.0, rng)) == 10
        assert len(choose_distributed_types(profile, 0.6, rng)) == 6
        assert len(choose_distributed_types(profile, 0.0, rng)) == 0

    def test_distributed_types_spread_collocated_types_home(self):
        profile = self.make_profile()
        partitions = [0, 1, 2]
        distributed = {0, 1}
        pmap = initial_placement(profile, partitions, distributed)
        for ttype in profile.types:
            homes = {pmap.primary_of(k) for k in ttype.keys}
            if ttype.type_id in distributed:
                assert len(homes) > 1
            else:
                assert len(homes) == 1

    def test_place_unprofiled_fills_gaps(self):
        profile = self.make_profile()
        pmap = initial_placement(profile, [0, 1], set())
        place_unprofiled_keys(pmap, 100, [0, 1])
        assert len(pmap) == 100

    def test_place_unprofiled_needs_a_partition(self):
        # As its sibling initial_placement does; it used to die with
        # ZeroDivisionError.
        with pytest.raises(ConfigError, match="at least one partition"):
            place_unprofiled_keys(PartitionMap(4), 4, [])

    def test_load_rejects_a_key_no_store_column_holds(self, env):
        cluster = Cluster(env, ClusterConfig(node_count=1))
        pmap = PartitionMap()
        pmap.assign(1, 0)
        pmap.assign(2**63, 0)
        with pytest.raises(StorageError, match=str(2**63)):
            load_stores(cluster, pmap, PlacementConfig(), random.Random(0))
        assert len(cluster.nodes[0].store) == 0

    def test_load_and_verify_stores(self, env):
        profile = self.make_profile()
        cluster = Cluster(env, ClusterConfig(node_count=2))
        pmap = initial_placement(profile, [0, 1], {0})
        loaded = load_stores(
            cluster, pmap, PlacementConfig(), random.Random(0)
        )
        assert loaded == len(pmap)
        assert verify_placement(cluster, pmap)
        cluster.nodes[0].store.delete(next(iter(pmap.keys())))
        assert not verify_placement(cluster, pmap)

    def test_alpha_validation(self):
        with pytest.raises(ConfigError):
            PlacementConfig(alpha=1.5)

    def test_single_partition_everything_collocated(self):
        profile = self.make_profile()
        pmap = initial_placement(profile, [0], {t.type_id for t in profile})
        assert set(pmap.partition_sizes()) == {0}


class TestArrivals:
    def test_calibrate_rate(self):
        # 130% of 20 units/s at 2 units per txn -> 13 txn/s.
        assert calibrate_rate(1.3, 20.0, 2.0) == pytest.approx(13.0)

    def test_calibrate_rejects_bad_inputs(self):
        with pytest.raises(ConfigError):
            calibrate_rate(0, 1, 1)
        with pytest.raises(ConfigError):
            calibrate_rate(1, 0, 1)
        with pytest.raises(ConfigError):
            calibrate_rate(1, 1, 0)

    def _sampler(self):
        config = WorkloadConfig(tuple_count=100, distinct_types=10)
        return WorkloadSampler(
            build_profile(config), config, random.Random(0)
        )

    def test_burst_mode_submits_at_interval_start(self):
        from ..txn.conftest import build_stack

        stack = build_stack(keys=100, capacity=1000)
        arrivals = PoissonArrivalProcess(
            stack.env,
            stack.tm,
            self._sampler(),
            ArrivalConfig(rate_txn_per_s=1.0, interval_s=10.0),
            random.Random(1),
            horizon_s=30.0,
        )
        submitted_times = []
        original = stack.tm.submit

        def spy(txn, priority=None):
            submitted_times.append(stack.env.now)
            original(txn, priority)

        stack.tm.submit = spy
        stack.env.run(until=35)
        assert arrivals.total_generated == len(submitted_times)
        assert all(t in (0.0, 10.0, 20.0) for t in submitted_times)

    def test_spread_mode_spaces_arrivals(self):
        from ..txn.conftest import build_stack

        stack = build_stack(keys=100, capacity=1000)
        PoissonArrivalProcess(
            stack.env,
            stack.tm,
            self._sampler(),
            ArrivalConfig(rate_txn_per_s=2.0, interval_s=10.0,
                          mode="spread"),
            random.Random(1),
            horizon_s=20.0,
        )
        times = []
        original = stack.tm.submit

        def spy(txn, priority=None):
            times.append(stack.env.now)
            original(txn, priority)

        stack.tm.submit = spy
        stack.env.run(until=25)
        assert len(set(times)) > 3  # not all at interval boundaries

    def test_horizon_stops_generation(self):
        from ..txn.conftest import build_stack

        stack = build_stack(keys=100, capacity=1000)
        arrivals = PoissonArrivalProcess(
            stack.env,
            stack.tm,
            self._sampler(),
            ArrivalConfig(rate_txn_per_s=5.0, interval_s=5.0),
            random.Random(1),
            horizon_s=10.0,
        )
        stack.env.run(until=100)
        generated_at_horizon = arrivals.total_generated
        stack.env.run(until=200)
        assert arrivals.total_generated == generated_at_horizon

    def test_arrival_config_validation(self):
        with pytest.raises(ConfigError):
            ArrivalConfig(rate_txn_per_s=-1)
        with pytest.raises(ConfigError):
            ArrivalConfig(rate_txn_per_s=1, interval_s=0)
        with pytest.raises(ConfigError):
            ArrivalConfig(rate_txn_per_s=1, mode="chaotic")

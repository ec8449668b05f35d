"""Tests for static partitioners, the collocation optimizer, and Schism-like graphs."""

import pytest

from repro.errors import PartitioningError
from repro.partitioning import (
    CostModel,
    GraphPartitioner,
    HashPartitioner,
    RangePartitioner,
    RepartitionOptimizer,
)
from repro.routing import PartitionMap
from repro.workload import TransactionType, WorkloadProfile


def make_profile(n_types=6, keys_per_type=3, zipf=False):
    types = []
    for i in range(n_types):
        keys = tuple(range(i * keys_per_type, (i + 1) * keys_per_type))
        freq = 1.0 / (i + 1) if zipf else 1.0
        types.append(TransactionType(type_id=i, keys=keys, frequency=freq))
    return WorkloadProfile(table="t", types=types)


def spread_map(profile, partitions):
    """Place each type's keys round-robin (all types distributed)."""
    pmap = PartitionMap()
    for ttype in profile.types:
        for offset, key in enumerate(ttype.keys):
            pmap.assign(key, partitions[offset % len(partitions)])
    return pmap


class TestHashPartitioner:
    def test_modular_assignment(self):
        partitioner = HashPartitioner([0, 1, 2])
        assert partitioner.partition_of(0) == 0
        assert partitioner.partition_of(4) == 1

    def test_plan_covers_all_keys(self):
        partitioner = HashPartitioner([0, 1])
        plan = partitioner.plan_for(range(10))
        assert len(plan) == 10
        assert plan.partitions_used() == frozenset((0, 1))

    def test_empty_partitions_rejected(self):
        with pytest.raises(PartitioningError):
            HashPartitioner([])

    def test_duplicate_partitions_rejected(self):
        with pytest.raises(PartitioningError):
            HashPartitioner([0, 0])


class TestRangePartitioner:
    def test_contiguous_ranges(self):
        partitioner = RangePartitioner([0, 1], key_space=10)
        assert partitioner.boundaries() == [(0, 5), (5, 10)]
        assert partitioner.partition_of(4) == 0
        assert partitioner.partition_of(5) == 1

    def test_uneven_split(self):
        partitioner = RangePartitioner([0, 1, 2], key_space=10)
        for key in range(10):
            assert partitioner.partition_of(key) in (0, 1, 2)

    def test_out_of_range_rejected(self):
        partitioner = RangePartitioner([0], key_space=5)
        with pytest.raises(PartitioningError):
            partitioner.partition_of(5)

    def test_invalid_key_space(self):
        with pytest.raises(PartitioningError):
            RangePartitioner([0], key_space=0)


class TestRepartitionOptimizer:
    def test_plan_collocates_every_distributed_type(self):
        profile = make_profile()
        partitions = [0, 1, 2]
        pmap = spread_map(profile, partitions)
        optimizer = RepartitionOptimizer(CostModel(), partitions)
        plan = optimizer.derive_plan(profile, pmap)
        for ttype in profile.types:
            targets = {
                plan.effective_partition(k, pmap) for k in ttype.keys
            }
            assert len(targets) == 1, f"type {ttype.type_id} still split"

    def test_already_collocated_types_untouched(self):
        profile = make_profile(n_types=2)
        pmap = PartitionMap()
        for ttype in profile.types:
            for key in ttype.keys:
                pmap.assign(key, ttype.type_id)
        optimizer = RepartitionOptimizer(CostModel(), [0, 1])
        plan = optimizer.derive_plan(profile, pmap)
        assert len(plan) == 0

    def test_subset_selection_fixes_only_selected(self):
        profile = make_profile(n_types=4)
        partitions = [0, 1, 2]
        pmap = spread_map(profile, partitions)
        optimizer = RepartitionOptimizer(CostModel(), partitions)
        selected = [profile.types[0], profile.types[2]]
        plan = optimizer.derive_plan(profile, pmap, selected)
        planned_keys = set(plan.keys())
        assert planned_keys == set(
            profile.types[0].keys + profile.types[2].keys
        )

    def test_load_stays_roughly_balanced(self):
        profile = make_profile(n_types=30, zipf=True)
        partitions = [0, 1, 2]
        pmap = spread_map(profile, partitions)
        optimizer = RepartitionOptimizer(CostModel(), partitions)
        plan = optimizer.derive_plan(profile, pmap)
        load = {p: 0.0 for p in partitions}
        for ttype in profile.types:
            target = plan.effective_partition(ttype.keys[0], pmap)
            load[target] += ttype.frequency
        total = sum(load.values())
        assert max(load.values()) < 0.7 * total  # nothing hogs everything

    def test_should_repartition_threshold(self):
        profile = make_profile(n_types=2)
        partitions = [0, 1]
        pmap = spread_map(profile, partitions)
        cost_model = CostModel()
        optimizer = RepartitionOptimizer(cost_model, partitions)
        # all types distributed -> expected cost 2; capacity 10
        mean_cost = cost_model.expected_cost_per_txn(profile.types, pmap)
        assert optimizer.should_repartition(10.0, mean_cost, 10.0)
        assert not optimizer.should_repartition(1.0, mean_cost, 10.0)


class TestGraphPartitioner:
    def test_coaccess_graph_shape(self):
        profile = make_profile(n_types=2, keys_per_type=3)
        graph = GraphPartitioner([0, 1]).build_graph(profile)
        assert graph.number_of_nodes() == 6
        # each type is a 3-clique: 3 edges per type
        assert graph.number_of_edges() == 6

    def test_shared_key_merges_edge_weight(self):
        types = [
            TransactionType(0, (0, 1), 2.0),
            TransactionType(1, (0, 1), 3.0),
        ]
        profile = WorkloadProfile(table="t", types=types)
        graph = GraphPartitioner([0]).build_graph(profile)
        assert graph[0][1]["weight"] == 5.0

    def test_disjoint_cliques_yield_zero_cut(self):
        profile = make_profile(n_types=8, keys_per_type=3)
        partitioner = GraphPartitioner([0, 1, 2, 3])
        plan = partitioner.derive_plan(profile)
        assert partitioner.cut_weight(profile, plan) == 0.0

    def test_plan_covers_all_profiled_keys(self):
        profile = make_profile(n_types=5)
        partitioner = GraphPartitioner([0, 1])
        plan = partitioner.derive_plan(profile)
        assert set(plan.keys()) == profile.all_keys()

    def test_load_balanced_by_lpt(self):
        profile = make_profile(n_types=10)
        partitioner = GraphPartitioner([0, 1])
        plan = partitioner.derive_plan(profile)
        counts = {0: 0, 1: 0}
        for key in plan.keys():
            counts[plan.target_of(key)] += 1
        assert abs(counts[0] - counts[1]) <= 10  # within two cliques

    def test_empty_profile_gives_empty_plan(self):
        profile = WorkloadProfile(table="t", types=[])
        plan = GraphPartitioner([0, 1]).derive_plan(profile)
        assert len(plan) == 0

    def test_oversized_component_is_split(self):
        # One giant connected chain of types sharing keys.
        types = []
        for i in range(6):
            types.append(
                TransactionType(i, (i, i + 1, i + 2), 1.0)
            )
        profile = WorkloadProfile(table="t", types=types)
        partitioner = GraphPartitioner([0, 1])
        plan = partitioner.derive_plan(profile)
        used = {plan.target_of(k) for k in plan.keys()}
        assert used == {0, 1}  # the single component got split

    def test_deterministic(self):
        profile = make_profile(n_types=12, zipf=True)
        plan_a = GraphPartitioner([0, 1, 2]).derive_plan(profile)
        plan_b = GraphPartitioner([0, 1, 2]).derive_plan(profile)
        assert plan_a.assignment == plan_b.assignment

    def test_needs_partitions(self):
        with pytest.raises(PartitioningError):
            GraphPartitioner([])

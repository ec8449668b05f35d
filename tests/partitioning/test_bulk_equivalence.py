"""The bulk set-up and plan path against the per-tuple reference.

The benchmark cells and golden series all build a dense, single-replica
map whose types share no key and plan against the current epoch, so
their digests pin only that corner.  These properties pin the rest —
types sharing keys, dict-mode maps, spilled (multi-replica) cells, keys
beyond ``capacity``, keys resident on partitions outside the placement
set, ``types_to_fix`` a strict subset, a ``MapEpoch`` one publish stale
— by requiring the shipped code and ``reference.py`` to agree exactly:
ordered plan items, the op list, every spec field with ``==`` on floats.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.cluster import Cluster, ClusterConfig
from repro.core import generate_and_rank
from repro.errors import PartitioningError
from repro.partitioning import (
    CostModel,
    PartitionPlan,
    RepartitionOptimizer,
    diff_plan,
)
from repro.routing import PartitionMap, PartitionMapStore
from repro.sim import Environment
from repro.workload import (
    PlacementConfig,
    TransactionType,
    WorkloadProfile,
    load_stores,
    place_unprofiled_keys,
)

from . import reference

KEYS = 16
PARTITIONS = [0, 1, 2, 3]
VIEWS = ("map", "current-epoch", "stale-epoch")
#: Exactly representable and not: sums of these depend on the order
#: they are added in, which is what ``==`` on benefits checks.
FREQUENCIES = st.sampled_from([0.0, 0.1, 0.2, 0.3, 1.0, 2.5, 7.0])


@st.composite
def partition_maps(draw, mapped=st.just(True)):
    """A map over ``range(KEYS)``: dense, half-dense or dict-mode, some
    keys with extra replicas; ``mapped`` decides per key whether it is
    placed at all."""
    pmap = PartitionMap(draw(st.sampled_from([0, KEYS // 2, KEYS])))
    for key in range(KEYS):
        if not draw(mapped):
            continue
        replicas = draw(
            st.lists(
                st.sampled_from(PARTITIONS), min_size=1, max_size=3,
                unique=True,
            )
        )
        pmap.assign(key, replicas[0])
        for pid in replicas[1:]:
            pmap.add_replica(key, pid)
    return pmap


@st.composite
def profiles(draw):
    """Types over ``range(KEYS)`` that may share keys; ids are distinct
    but not in profile order."""
    key_sets = draw(
        st.lists(
            st.lists(
                st.integers(0, KEYS - 1), min_size=1, max_size=4, unique=True
            ),
            min_size=1,
            max_size=8,
        )
    )
    type_ids = draw(st.permutations(range(len(key_sets))))
    return WorkloadProfile(
        table="t",
        types=[
            TransactionType(type_id, tuple(keys), draw(FREQUENCIES))
            for type_id, keys in zip(type_ids, key_sets)
        ],
    )


def view_of(pmap: PartitionMap, kind: str, moves):
    """``pmap`` itself, its store's current epoch, or an epoch one
    publish stale (which must keep reading the map as it was pinned)."""
    if kind == "map":
        return pmap
    store = PartitionMapStore(pmap)
    if kind == "current-epoch":
        return store.current_epoch
    pinned = store.pin()
    stage = store.begin_stage()
    for key, destination in moves:
        source = stage.primary_of(key)
        if destination not in stage.replicas_of(key):
            stage.move(key, source, destination)
    store.publish(stage)
    return pinned


def op_fields(ops):
    return [
        (type(op), op.op_id, op.key, op.source, op.destination, op.benefit)
        for op in ops
    ]


def spec_fields(specs):
    return [
        (s.type_id, s.benefit, s.cost, s.benefit_density, op_fields(s.ops))
        for s in specs
    ]


class TestPlanEquivalence:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        pmap=partition_maps(),
        profile=profiles(),
        view_kind=st.sampled_from(VIEWS),
        moves=st.lists(
            st.tuples(st.integers(0, KEYS - 1), st.sampled_from(PARTITIONS)),
            min_size=1, max_size=4,
        ),
        placement=st.lists(
            st.sampled_from(PARTITIONS), min_size=1, max_size=4, unique=True
        ),
        fix=st.one_of(st.none(), st.sets(st.integers(0, 7))),
        extra_plan=st.dictionaries(
            st.integers(0, KEYS - 1), st.sampled_from(PARTITIONS), max_size=6
        ),
    )
    def test_derive_diff_rank_agree_with_reference(
        self, pmap, profile, view_kind, moves, placement, fix, extra_plan
    ):
        view = view_of(pmap, view_kind, moves)
        types_to_fix = None if fix is None else [
            t for t in profile.types if t.type_id in fix
        ]
        model = CostModel(base_cost=1.5, rep_op_cost=0.3)

        plan = RepartitionOptimizer(model, placement).derive_plan(
            profile, view, types_to_fix
        )
        expected_plan = reference.derive_plan(
            placement, profile, view, types_to_fix
        )
        assert list(plan.assignment.items()) == list(
            expected_plan.assignment.items()
        )

        # Ranking is also fed what no collocation plan holds: targets
        # that leave a type spread, unprofiled keys (leftover ops).
        for key, target in extra_plan.items():
            plan.assign(key, target)
            expected_plan.assign(key, target)
        ops = diff_plan(view, plan, start_op_id=3)
        expected_ops = reference.diff_plan(view, expected_plan, start_op_id=3)
        assert op_fields(ops) == op_fields(expected_ops)

        specs = generate_and_rank(ops, plan, view, profile, model)
        expected_specs = reference.generate_and_rank(
            expected_ops, expected_plan, view, profile, model
        )
        assert spec_fields(specs) == spec_fields(expected_specs)

    @pytest.mark.parametrize("view_kind", VIEWS)
    def test_unmapped_planned_key_still_raises(self, view_kind):
        pmap = PartitionMap(4)
        for key in range(3):
            pmap.assign(key, 0)
        view = view_of(pmap, view_kind, [(0, 1)])
        plan = PartitionPlan({1: 1, 3: 0, 9: 0})
        for diff in (diff_plan, reference.diff_plan):
            with pytest.raises(PartitioningError, match="unmapped tuple 3"):
                diff(view, plan)


def store_state(cluster: Cluster):
    return [
        (list(node.store.keys()), list(node.store.rows()), node.store.inserts)
        for node in cluster.nodes
    ]


class TestBuildEquivalence:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        pmap=partition_maps(mapped=st.booleans()),
        tuple_count=st.integers(0, KEYS + 4),
        partitions=st.lists(
            st.sampled_from(PARTITIONS), min_size=1, max_size=4
        ),
        seed=st.integers(0, 2**32),
    )
    def test_cold_fill_and_load_agree_with_reference(
        self, pmap, tuple_count, partitions, seed
    ):
        expected_map = pmap.copy()
        place_unprofiled_keys(pmap, tuple_count, partitions)
        reference.place_unprofiled_keys(expected_map, tuple_count, partitions)
        assert list(pmap.keys()) == list(expected_map.keys())
        assert list(pmap.items()) == [
            (key, expected_map.replicas_of(key)) for key in expected_map.keys()
        ]
        assert len(pmap) == len(expected_map)
        assert pmap.partition_sizes() == expected_map.partition_sizes()
        assert pmap.version == expected_map.version

        config = PlacementConfig(tuple_size_bytes=24)
        cluster, expected_cluster = (
            Cluster(Environment(), ClusterConfig(node_count=len(PARTITIONS)))
            for _ in range(2)
        )
        rng, expected_rng = random.Random(seed), random.Random(seed)
        loaded = load_stores(cluster, pmap, config, rng)
        assert loaded == reference.load_stores(
            expected_cluster, expected_map, config, expected_rng
        )
        assert store_state(cluster) == store_state(expected_cluster)
        assert rng.getstate() == expected_rng.getstate()

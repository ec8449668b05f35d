"""The bulk set-up and plan path against the per-tuple reference.

The benchmark cells and golden series all build a dense, single-replica
map whose types share no key and plan against the current epoch, so
their digests pin only that corner.  These properties pin the rest —
types sharing keys, dict-mode maps, spilled (multi-replica) cells, keys
beyond ``capacity``, keys resident on partitions outside the placement
set, ``types_to_fix`` a strict subset, a ``MapEpoch`` one publish stale,
several ops on one key, op ids that neither start at 0 nor run
contiguously — by requiring the shipped code and ``reference.py`` to
agree exactly: ordered plan items, the op list, every spec field with
``==`` on floats.
"""

from __future__ import annotations

import random
from dataclasses import astuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.cluster import Cluster, ClusterConfig
from repro.core import generate_and_rank
from repro.errors import PartitioningError, RoutingError
from repro.partitioning import (
    CostModel,
    CreateReplica,
    DeleteReplica,
    Migrate,
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

from ..hypothesis_budget import examples
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
    return [(type(op), astuple(op)) for op in ops]


def spec_fields(specs):
    return [
        (s.type_id, s.benefit, s.cost, s.benefit_density, op_fields(s.ops))
        for s in specs
    ]


#: (kind, key, partition, offset to the other partition).  Keys collide
#: with each other and with the diff's, so a key carries two or more ops
#: (a ``Migrate`` beside a ``DeleteReplica``, two ``CreateReplica``s);
#: keys past ``KEYS`` belong to no type.
op_draws = st.lists(
    st.tuples(
        st.sampled_from(["migrate", "create", "delete"]),
        st.integers(0, KEYS + 3),
        st.sampled_from(PARTITIONS),
        st.integers(1, len(PARTITIONS) - 1),
    ),
    max_size=8,
)


@st.composite
def op_ids(draw, first, n):
    """``n`` distinct ids from ``first`` on: consecutive, or anywhere
    above it in any order."""
    if draw(st.booleans()):
        return list(range(first, first + n))
    return draw(
        st.lists(
            st.integers(first, 10**6), min_size=n, max_size=n, unique=True
        )
    )


def make_ops(ids, draws):
    ops = []
    for op_id, (kind, key, partition, offset) in zip(ids, draws):
        other = (partition + offset) % len(PARTITIONS)
        if kind == "delete":
            ops.append(DeleteReplica(op_id=op_id, key=key, partition=partition))
        else:
            cls = Migrate if kind == "migrate" else CreateReplica
            ops.append(
                cls(op_id=op_id, key=key, source=other, destination=partition)
            )
    return ops


class TestPlanEquivalence:
    @settings(max_examples=examples(300), deadline=None)
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
        extra_ops=op_draws,
        data=st.data(),
    )
    def test_derive_diff_rank_agree_with_reference(
        self, pmap, profile, view_kind, moves, placement, fix, extra_plan,
        extra_ops, data,
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

        # ... and what no diff emits: more ops on a key, of every kind,
        # numbered on from the diff's ids or from anywhere above them.
        gap = data.draw(st.integers(0, 2))
        ids = data.draw(op_ids(3 + len(ops) + gap, len(extra_ops)))
        ops += make_ops(ids, extra_ops)
        expected_ops += make_ops(ids, extra_ops)

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
    @settings(max_examples=examples(150), deadline=None)
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


def map_state(pmap: PartitionMap):
    return (
        list(pmap.items()), len(pmap), pmap.version, pmap.partition_sizes()
    )


#: Large enough that a span is halved many times before it counts as all
#: mapped or all unmapped, and that no run's length divides evenly.
COLUMN = 1_000


def column_map(shape: str) -> PartitionMap:
    """A ``COLUMN``-cell dense map: a mapped prefix (what initial
    placement leaves), scattered holes with spilled cells among the
    mapped ones, nothing unmapped, or nothing mapped."""
    pmap = PartitionMap(COLUMN)
    if shape == "prefix":
        mapped = range(313)
    elif shape == "holes":
        mapped = [k for k in range(COLUMN) if k % 3 == 0 or 400 <= k < 450]
    else:
        mapped = range(COLUMN) if shape == "all-mapped" else ()
    pmap.assign_many(list(mapped), [9 + key % 2 for key in mapped])
    for key in list(mapped)[::11]:
        pmap.add_replica(key, 8)  # a spilled cell is mapped, not a gap
    return pmap


class NoLadder(random.Random):
    """``randrange`` is what the loader's draws must equal, not what it
    may call: one call per tuple was a third of the scale tier's build."""

    def randrange(self, *args, **kwargs):
        raise AssertionError("load_placement went through randrange")


class TestBulkBuild:
    @pytest.mark.parametrize("seed", [0, 1, 7, 2**31 + 5])
    @pytest.mark.parametrize("shape", ["dense", "spilled", "out-of-range"])
    def test_load_draws_randrange_bit_for_bit_without_calling_it(
        self, shape, seed
    ):
        """Pins CPython's ``Random._randbelow_with_getrandbits``: 20-bit
        draws, one at or past 1,000,000 rejected and redrawn.  A Python
        that draws ``randrange(1_000_000)`` any other way fails here."""
        pmap = PartitionMap(0 if shape == "out-of-range" else 700)
        pmap.assign_many(range(700), [key % 4 for key in range(700)])
        if shape == "spilled":
            for key in range(0, 700, 7):
                pmap.add_replica(key, (key + 1) % 4)
        config = PlacementConfig()
        cluster, expected_cluster = (
            Cluster(Environment(), ClusterConfig(node_count=len(PARTITIONS)))
            for _ in range(2)
        )
        rng, expected_rng = NoLadder(seed), random.Random(seed)
        loaded = load_stores(cluster, pmap, config, rng)
        assert loaded == reference.load_stores(
            expected_cluster, pmap, config, expected_rng
        )
        assert store_state(cluster) == store_state(expected_cluster)
        assert rng.getstate() == expected_rng.getstate()
        # ... and the rejection branch was taken: one 20-bit draw per
        # record would have left the generator somewhere else.
        one_each = random.Random(seed)
        for _ in range(loaded):
            one_each.getrandbits(20)
        assert rng.getstate() != one_each.getstate()

    @settings(max_examples=examples(150), deadline=None)
    @given(
        pmap=partition_maps(mapped=st.booleans()),
        batch=st.lists(
            st.tuples(
                st.integers(0, KEYS + 3), st.sampled_from(PARTITIONS + [40])
            ),
            max_size=KEYS,
            unique_by=lambda pair: pair[0],
        ),
    )
    def test_assign_many_is_a_loop_of_assign(self, pmap, batch):
        batch = [(key, pid) for key, pid in batch if key not in pmap]
        expected = pmap.copy()
        for key, pid in batch:
            expected.assign(key, pid)
        pmap.assign_many([key for key, _ in batch], [pid for _, pid in batch])
        assert list(pmap.keys()) == list(expected.keys())
        assert map_state(pmap) == map_state(expected)

    @pytest.mark.parametrize(
        "keys, partition_ids, message",
        [
            ([4, 1], [0, 0], "tuple 1 is already mapped"),  # a dense cell
            ([4, 2], [0, 0], "tuple 2 is already mapped"),  # a spilled cell
            ([4, 9], [0, 0], "tuple 9 is already mapped"),  # past capacity
            ([4, 5, 4], [0, 1, 2], "2 distinct"),
            ([10, 10], [0, 0], "1 distinct"),
            ([4, 5], [0, -1], "partition id must be in"),
            ([4, 10], [1 << 31, 0], "partition id must be in"),
            ([4, 5], [0], "2 keys .* 1 partition ids"),
            ([], [0], "0 keys .* 1 partition ids"),
        ],
    )
    def test_a_refused_assign_many_leaves_the_map_untouched(
        self, keys, partition_ids, message
    ):
        pmap = PartitionMap(capacity=8)
        pmap.assign_many([1, 2, 9], [0, 1, 2])
        pmap.add_replica(2, 3)
        before = map_state(pmap)
        with pytest.raises(RoutingError, match=message):
            pmap.assign_many(keys, partition_ids)
        assert map_state(pmap) == before

    @pytest.mark.parametrize("partitions", [[4, 2, 7], [0, 1, 2, 3, 4, 5, 6]])
    @pytest.mark.parametrize("key_count", [0, 1, 863, COLUMN, COLUMN + 50])
    @pytest.mark.parametrize(
        "shape", ["prefix", "holes", "all-mapped", "none-mapped"]
    )
    def test_assign_unmapped_agrees_with_reference_on_long_columns(
        self, shape, key_count, partitions
    ):
        pmap = column_map(shape)
        pmap.assign(COLUMN + 7, 9)  # one cold key is already placed
        expected = pmap.copy()
        pmap.assign_unmapped(key_count, partitions)
        reference.place_unprofiled_keys(expected, key_count, partitions)
        assert list(pmap.keys()) == list(expected.keys())
        assert map_state(pmap) == map_state(expected)

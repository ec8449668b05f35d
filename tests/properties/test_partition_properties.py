"""Property-based tests: partition map and planning invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import RoutingError
from repro.partitioning import CostModel, RepartitionOptimizer, diff_plan
from repro.routing import PartitionMap
from repro.workload import TransactionType, WorkloadProfile

from ..hypothesis_budget import examples

PARTITIONS = [0, 1, 2]


@st.composite
def partition_maps(draw, n_keys=12):
    pmap = PartitionMap()
    for key in range(n_keys):
        pmap.assign(key, draw(st.sampled_from(PARTITIONS)))
    return pmap


@st.composite
def map_mutations(draw):
    return draw(
        st.lists(
            st.tuples(
                st.sampled_from(["add", "remove", "move"]),
                st.integers(min_value=0, max_value=11),
                st.sampled_from(PARTITIONS),
                st.sampled_from(PARTITIONS),
            ),
            max_size=40,
        )
    )


class TestPartitionMapInvariants:
    @settings(max_examples=examples(200), deadline=None)
    @given(partition_maps(), map_mutations())
    def test_every_key_always_has_a_replica(self, pmap, mutations):
        for action, key, p1, p2 in mutations:
            try:
                if action == "add":
                    pmap.add_replica(key, p1)
                elif action == "remove":
                    pmap.remove_replica(key, p1)
                else:
                    pmap.move(key, p1, p2)
            except RoutingError:
                pass  # invalid mutations must be rejected, not corrupt
        for key in range(12):
            replicas = pmap.replicas_of(key)
            assert len(replicas) >= 1
            assert len(set(replicas)) == len(replicas)  # distinct partitions

    @settings(max_examples=examples(200), deadline=None)
    @given(partition_maps())
    def test_copy_equivalence(self, pmap):
        clone = pmap.copy()
        for key in range(12):
            assert clone.replicas_of(key) == pmap.replicas_of(key)


@st.composite
def profiles(draw):
    n_types = draw(st.integers(min_value=1, max_value=6))
    types = []
    for i in range(n_types):
        keys = tuple(range(i * 2, i * 2 + 2))
        freq = draw(
            st.floats(min_value=0.01, max_value=10.0, allow_nan=False)
        )
        types.append(TransactionType(i, keys, freq))
    return WorkloadProfile(table="t", types=types)


class TestPlanningInvariants:
    @settings(max_examples=examples(150), deadline=None)
    @given(profiles(), st.randoms(use_true_random=False))
    def test_derived_plan_collocates_every_type(self, profile, rng):
        pmap = PartitionMap()
        for ttype in profile.types:
            for key in ttype.keys:
                pmap.assign(key, rng.choice(PARTITIONS))
        optimizer = RepartitionOptimizer(CostModel(), PARTITIONS)
        plan = optimizer.derive_plan(profile, pmap)
        for ttype in profile.types:
            homes = {
                plan.effective_partition(k, pmap) for k in ttype.keys
            }
            assert len(homes) == 1

    @settings(max_examples=examples(150), deadline=None)
    @given(profiles(), st.randoms(use_true_random=False))
    def test_diff_never_moves_unplanned_keys(self, profile, rng):
        pmap = PartitionMap()
        for ttype in profile.types:
            for key in ttype.keys:
                pmap.assign(key, rng.choice(PARTITIONS))
        optimizer = RepartitionOptimizer(CostModel(), PARTITIONS)
        plan = optimizer.derive_plan(profile, pmap)
        ops = diff_plan(pmap, plan)
        for op in ops:
            assert op.key in plan
            assert pmap.primary_of(op.key) == op.source
            assert plan.target_of(op.key) == op.destination

    @settings(max_examples=examples(100), deadline=None)
    @given(profiles())
    def test_plan_cost_never_worse_than_original(self, profile):
        """The collocation plan can only reduce expected cost."""
        pmap = PartitionMap()
        for ttype in profile.types:
            for offset, key in enumerate(ttype.keys):
                pmap.assign(key, PARTITIONS[offset % len(PARTITIONS)])
        model = CostModel()
        optimizer = RepartitionOptimizer(model, PARTITIONS)
        plan = optimizer.derive_plan(profile, pmap)
        before = model.expected_cost_per_txn(profile.types, pmap)
        after = model.expected_cost_per_txn(profile.types, pmap, plan)
        assert after <= before

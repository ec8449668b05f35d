"""Property-based tests: membership interleavings never strand data.

For any interleaving of scale-out, drain, and crash/restart events, at
quiescence every tuple is still routed to a living (non-RETIRED)
partition, no key is left marked MOVING, and every drained node reached
zero resident tuples before retirement.
"""

import dataclasses

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterConfig, NodeState
from repro.elasticity import parse_elasticity_schedule
from repro.experiments import (
    bench_scale,
    build_system,
    start_repartitioning,
)
from repro.faults import parse_fault_schedule
from repro.workload import WorkloadConfig

from ..hypothesis_budget import examples

TUPLES = 120

#: Extra 20 s intervals granted past the nominal horizon for the pump
#: to finish every migration.  Draining down to a single survivor can
#: leave it over capacity (offered load is sized for three nodes), so
#: the queue — and the piggyback carriers inside it — drains at FIFO
#: pace; quiescence arrives late but provably arrives.
GRACE_INTERVALS = 40

#: Event times land in [40, 160] s (slots 2-8 of 20 s intervals).
slots = st.integers(min_value=2, max_value=8)

#: 0-2 scale-outs of 1-2 nodes each.
adds = st.lists(
    st.tuples(slots, st.integers(min_value=1, max_value=2)), max_size=2
)

#: Drain up to two of the three seed nodes (one must keep serving).
drains = st.lists(
    st.tuples(slots, st.sampled_from([0, 1, 2])),
    max_size=2,
    unique_by=lambda event: event[1],
)

#: At most one crash/restart cycle, aimed at any of the first five
#: node ids (joiners included when they exist; crashing an id that was
#: never provisioned is rejected by config validation, so clamp later).
crashes = st.lists(
    st.tuples(
        slots,
        st.integers(min_value=0, max_value=4),
        st.integers(min_value=1, max_value=2),  # down for 1-2 slots
    ),
    max_size=1,
)


def build_config(add_events, drain_events, crash_events):
    parts = [f"{slot * 20}:add:{count}" for slot, count in add_events]
    parts.extend(f"{slot * 20}:drain:{node}" for slot, node in drain_events)
    elasticity = ",".join(parts) or None

    fault_parts = []
    for slot, node, down in crash_events:
        # Only nodes provisioned strictly before the crash fires are
        # legal targets (a same-tick add may be ordered after the
        # crash event; the injector validates ids at fire time).  Ids
        # are handed out chronologically, so the joiners alive before
        # this slot are exactly 3 .. 3+early-1.
        early = sum(
            count for add_slot, count in add_events if add_slot < slot
        )
        eligible = list(range(3 + early))
        node = eligible[node % len(eligible)]
        fault_parts.append(f"{slot * 20}:crash:{node}")
        fault_parts.append(f"{(slot + down) * 20}:restart:{node}")
    faults = ",".join(fault_parts) or None

    config = bench_scale(
        scheduler="Hybrid",
        load="low",
        seed=1,
        measure_intervals=17,
        warmup_intervals=1,
        faults=parse_fault_schedule(faults) if faults else None,
        elasticity=(
            parse_elasticity_schedule(elasticity) if elasticity else None
        ),
    )
    return dataclasses.replace(
        config,
        cluster=ClusterConfig(node_count=3, capacity_units_per_s=4.0),
        workload=WorkloadConfig(
            tuple_count=TUPLES,
            distinct_types=24,
            distribution=config.workload.distribution,
        ),
    )


def run_to_quiescence(config):
    system = build_system(config)
    env = system.env
    interval_s = config.runtime.interval_s
    warmup_s = interval_s * config.runtime.warmup_intervals

    def kickoff():
        yield env.timeout(warmup_s)
        start_repartitioning(system)

    env.process(kickoff())
    horizon = warmup_s + interval_s * config.runtime.measure_intervals
    env.run(until=horizon + 1e-9)
    # The property is stated *at quiescence*: grant overloaded
    # interleavings a bounded tail to finish in-flight migrations.
    for _ in range(GRACE_INTERVALS):
        if _quiescent(system):
            break
        horizon += interval_s
        env.run(until=horizon + 1e-9)
    return system


def _quiescent(system):
    controller = system.elasticity_controller
    if controller is not None and not controller.quiescent:
        return False
    session = system.repartitioner.session
    if session is not None and not session.is_complete:
        return False
    return not system.store.moving_keys()


class TestNoTupleStranded:
    @settings(max_examples=examples(12), deadline=None)
    @given(adds, drains, crashes)
    # A drain transaction holding one Migrate into a node that retired
    # while it waited: used to abort with ``stale_route`` every retry,
    # forever, leaving node 0 DRAINING past the grace tail.
    @example(
        add_events=[(2, 1)],
        drain_events=[(2, 0), (3, 1)],
        crash_events=[(2, 0, 1)],
    )
    def test_interleavings_leave_no_tuple_unrouted(
        self, add_events, drain_events, crash_events
    ):
        system = run_to_quiescence(
            build_config(add_events, drain_events, crash_events)
        )
        store = system.store
        cluster = system.cluster

        # Quiescent: every transition ran to completion inside the tail.
        controller = system.elasticity_controller
        if controller is not None:
            assert controller.quiescent

        # No MOVING leak: every staged migration published or discarded.
        assert store.moving_keys() == frozenset()

        # Every tuple routed, and only to living partitions.
        epoch = store.current_epoch
        retired = {
            node.partition_id
            for node in cluster.nodes
            if node.state is NodeState.RETIRED
        }
        routed = set()
        for key in epoch.keys():
            replicas = tuple(epoch.replicas_of(key))
            assert replicas, f"key {key} unrouted"
            assert not retired.intersection(replicas), (
                f"key {key} routed to retired partition(s) "
                f"{retired.intersection(replicas)}"
            )
            routed.add(key)
        assert routed == set(range(TUPLES))

        # Retirement never stranded data on the way out.
        for node in cluster.nodes:
            if node.state is NodeState.RETIRED:
                assert len(node.store) == 0

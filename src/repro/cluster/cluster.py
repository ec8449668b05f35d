"""Cluster assembly: nodes, the network, and shared deadlock detection."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

from ..errors import ConfigError, MembershipError
from ..locking.deadlock import DeadlockDetector
from ..sim.network import Network
from ..sim.random import RandomStreams
from ..types import NodeId, PartitionId
from .node import DataNode, NodeState

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.environment import Environment


@dataclass(frozen=True)
class ClusterConfig:
    """Static description of the simulated cluster.

    Defaults follow the paper's testbed: 5 data nodes, one partition per
    node, 100 connections per node.  ``capacity_units_per_s`` is the work
    a node can serve per second; workload calibration expresses offered
    load relative to the sum of these rates.
    """

    node_count: int = 5
    capacity_units_per_s: float = 100.0
    max_connections: int = 100
    network_latency_s: float = 0.0005
    network_bandwidth_bytes_per_s: float = 100e6
    capacity_noise_sigma: float = 0.0
    capacity_noise_interval_s: float = 5.0

    def __post_init__(self) -> None:
        if self.node_count < 1:
            raise ConfigError(f"need at least one node, got {self.node_count}")
        if self.capacity_units_per_s <= 0:
            raise ConfigError("node capacity must be positive")
        if self.max_connections < 1:
            raise ConfigError("need at least one connection per node")
        if self.capacity_noise_sigma < 0:
            raise ConfigError("capacity noise sigma cannot be negative")


class Cluster:
    """The simulated shared-nothing cluster (one partition per node).

    Besides assembling the nodes, the cluster is the *membership
    authority*: every node-set mutation — adding a node, walking one
    through ``JOINING → ACTIVE → DRAINING → RETIRED`` — goes through
    the methods in the "Membership" section below.  Nothing outside
    ``repro.cluster`` may mutate ``nodes`` or a node's lifecycle state
    directly (enforced by repro-lint rule RPR007).
    """

    def __init__(
        self,
        env: "Environment",
        config: ClusterConfig,
        streams: Optional[RandomStreams] = None,
    ) -> None:
        self.env = env
        self.config = config
        self._streams = streams
        #: Called with each node added after construction (scale-out);
        #: the experiment runner uses this to wire fault injection and
        #: store loading for late joiners.
        self.on_node_added: list[Callable[[DataNode], None]] = []
        self.detector = DeadlockDetector()
        self.network = Network(
            env,
            latency_s=config.network_latency_s,
            bandwidth_bytes_per_s=config.network_bandwidth_bytes_per_s,
        )
        self.nodes: list[DataNode] = [
            DataNode(
                env,
                node_id=i,
                partition_id=i,
                capacity_units_per_s=config.capacity_units_per_s,
                max_connections=config.max_connections,
                detector=self.detector,
            )
            for i in range(config.node_count)
        ]
        self._by_partition: dict[PartitionId, DataNode] = {
            node.partition_id: node for node in self.nodes
        }
        if config.capacity_noise_sigma > 0:
            if streams is None:
                raise ConfigError(
                    "capacity noise requires a RandomStreams instance"
                )
            for node in self.nodes:
                node.start_capacity_noise(
                    streams.stream(f"capacity-noise-{node.node_id}"),
                    interval_s=config.capacity_noise_interval_s,
                    relative_sigma=config.capacity_noise_sigma,
                )

    @property
    def partition_ids(self) -> list[PartitionId]:
        """Partition ids of all non-RETIRED nodes, in node order."""
        return [
            node.partition_id
            for node in self.nodes
            if node.state is not NodeState.RETIRED
        ]

    @property
    def placement_partition_ids(self) -> list[PartitionId]:
        """Partitions new placements may target (ACTIVE ∪ JOINING).

        This is the node set the optimizer and the drain/rebalance
        planners work against: the *post-transition* serving set, so
        migrations never land tuples on a node that is on its way out.
        """
        return [
            node.partition_id
            for node in self.nodes
            if node.state in (NodeState.ACTIVE, NodeState.JOINING)
        ]

    @property
    def total_capacity_units_per_s(self) -> float:
        """Aggregate base service rate across non-RETIRED nodes."""
        return sum(
            node.base_rate
            for node in self.nodes
            if node.state is not NodeState.RETIRED
        )

    def node(self, node_id: NodeId) -> DataNode:
        """Node by id."""
        try:
            return self.nodes[node_id]
        except IndexError:
            raise ConfigError(f"unknown node id {node_id}") from None

    def node_for_partition(self, partition_id: PartitionId) -> DataNode:
        """The node hosting ``partition_id``."""
        node = self._by_partition.get(partition_id)
        if node is None:
            raise ConfigError(f"no node hosts partition {partition_id}")
        return node

    def tuples_per_partition(self) -> dict[PartitionId, int]:
        """Resident tuple counts, for balance assertions in tests."""
        return {node.partition_id: len(node.store) for node in self.nodes}

    # ------------------------------------------------------------------
    # Membership (the only legal way to mutate the node set)
    # ------------------------------------------------------------------
    def add_node(self) -> DataNode:
        """Provision one new node in JOINING state (scale-out).

        The node gets the next id and its own fresh partition, inherits
        the cluster's capacity/connection configuration, and — like the
        seed nodes — a deterministic per-node capacity-noise stream when
        noise is configured.  ``on_node_added`` observers fire last so
        they see a fully wired node.
        """
        config = self.config
        node = DataNode(
            self.env,
            node_id=len(self.nodes),
            partition_id=len(self.nodes),
            capacity_units_per_s=config.capacity_units_per_s,
            max_connections=config.max_connections,
            detector=self.detector,
        )
        node.state = NodeState.JOINING
        self.nodes.append(node)
        self._by_partition[node.partition_id] = node
        if config.capacity_noise_sigma > 0:
            if self._streams is None:
                raise ConfigError(
                    "capacity noise requires a RandomStreams instance"
                )
            node.start_capacity_noise(
                self._streams.stream(f"capacity-noise-{node.node_id}"),
                interval_s=config.capacity_noise_interval_s,
                relative_sigma=config.capacity_noise_sigma,
            )
        for callback in self.on_node_added:
            callback(node)
        return node

    def state_of(self, node_id: NodeId) -> NodeState:
        """Lifecycle state of ``node_id``."""
        return self.node(node_id).state

    def activate(self, node_id: NodeId) -> None:
        """JOINING → ACTIVE: the joiner finished absorbing its share."""
        node = self.node(node_id)
        if node.state is not NodeState.JOINING:
            raise MembershipError(
                f"cannot activate node {node_id} in state {node.state.value}"
            )
        node.state = NodeState.ACTIVE

    def begin_drain(self, node_id: NodeId) -> None:
        """ACTIVE → DRAINING: stop targeting the node, start moving data."""
        node = self.node(node_id)
        if node.state is not NodeState.ACTIVE:
            raise MembershipError(
                f"cannot drain node {node_id} in state {node.state.value}"
            )
        node.state = NodeState.DRAINING

    def retire(self, node_id: NodeId) -> None:
        """DRAINING → RETIRED: the drain finished; leave the serving set.

        Refuses while the node still holds tuples — retirement must
        never strand data.  The retired node stays in ``nodes`` (ids and
        list indices remain stable) but stops counting toward capacity,
        stops fluctuating, and the executor aborts any stale route that
        still points at it.
        """
        node = self.node(node_id)
        if node.state is not NodeState.DRAINING:
            raise MembershipError(
                f"cannot retire node {node_id} in state {node.state.value}"
            )
        if len(node.store) > 0:
            raise MembershipError(
                f"cannot retire node {node_id}: "
                f"{len(node.store)} tuple(s) still resident"
            )
        node.state = NodeState.RETIRED
        node.retired = True
        if node._noise_config is not None or node._noise_process is not None:
            node.stop_capacity_noise()

    def nodes_in(self, *states: NodeState) -> list[DataNode]:
        """All nodes currently in any of ``states``, in node order."""
        return [node for node in self.nodes if node.state in states]

    def state_counts(self) -> dict[str, int]:
        """Node count per lifecycle state (keys are state values)."""
        counts = {state.value: 0 for state in NodeState}
        for node in self.nodes:
            counts[node.state.value] += 1
        return counts

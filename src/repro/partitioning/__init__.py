"""Partitioning: plans, repartition operations, cost model, and planners."""

from .cost_model import DISTRIBUTED_COST_FACTOR, CostModel
from .graph_partitioner import GraphPartitioner, GraphPartitionerConfig
from .operations import (
    CreateReplica,
    DeleteReplica,
    Migrate,
    RepartitionOperation,
)
from .optimizer import OptimizerConfig, RepartitionOptimizer
from .plan import PartitionPlan, diff_plan, plan_from_map
from .replication import ReadReplicationPlanner, ReplicationConfig
from .static_partitioners import HashPartitioner, RangePartitioner

__all__ = [
    "CostModel",
    "CreateReplica",
    "DISTRIBUTED_COST_FACTOR",
    "DeleteReplica",
    "GraphPartitioner",
    "GraphPartitionerConfig",
    "HashPartitioner",
    "Migrate",
    "OptimizerConfig",
    "PartitionPlan",
    "RangePartitioner",
    "ReadReplicationPlanner",
    "ReplicationConfig",
    "RepartitionOperation",
    "RepartitionOptimizer",
    "diff_plan",
    "plan_from_map",
]

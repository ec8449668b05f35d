"""A Schism-style graph partitioner (Curino et al., VLDB 2010).

Schism models tuples as graph nodes with edges weighted by how often two
tuples are accessed by the same transaction, then partitions the graph
to minimise the weight of cut edges (distributed transactions) subject
to balance.  This implementation:

1. builds the co-access graph from a :class:`WorkloadProfile` (each
   transaction type contributes a clique over its keys, weighted by the
   type's frequency);
2. collapses connected components (indivisible tuple groups — cutting
   inside one would create a distributed transaction);
3. bin-packs components onto partitions by descending weight, always
   into the currently lightest partition (LPT scheduling), which keeps
   the frequency-weighted load balanced;
4. optionally refines oversized components with Kernighan–Lin bisection
   when a single component exceeds a partition's fair share.

The result is a :class:`PartitionPlan` usable by the SOAP pipeline
exactly like the collocation optimizer's plans.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

from ..errors import PartitioningError
from ..types import PartitionId, TupleKey
from .plan import PartitionPlan

# ``networkx`` is imported where it is used: every process imports this
# module with ``repro``, only a ``GraphPartitioner`` at work needs the
# library (half of a small cell's import time).
if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    import networkx as nx

    from repro.workload.profile import WorkloadProfile


@dataclass(frozen=True)
class GraphPartitionerConfig:
    """Tuning knobs for the graph partitioner."""

    #: Components heavier than ``oversize_factor * fair_share`` get split.
    oversize_factor: float = 1.5
    #: Maximum Kernighan–Lin refinement passes per split.
    kl_max_iter: int = 10
    #: Seed for the (deterministic) KL refinement.
    seed: int = 0


class GraphPartitioner:
    """Workload-aware graph partitioning in the spirit of Schism."""

    def __init__(
        self,
        partitions: Sequence[PartitionId],
        config: Optional[GraphPartitionerConfig] = None,
    ) -> None:
        if not partitions:
            raise PartitioningError("need at least one partition")
        self.partitions = list(partitions)
        self.config = config or GraphPartitionerConfig()

    # ------------------------------------------------------------------
    # Graph construction
    # ------------------------------------------------------------------
    def build_graph(self, profile: WorkloadProfile) -> nx.Graph:
        """Co-access graph: nodes are keys, edge weights are co-access freq."""
        import networkx as nx

        graph = nx.Graph()
        for ttype in profile.types:
            keys = ttype.keys
            graph.add_nodes_from(keys)
            for i, key_a in enumerate(keys):
                for key_b in keys[i + 1 :]:
                    if graph.has_edge(key_a, key_b):
                        graph[key_a][key_b]["weight"] += ttype.frequency
                    else:
                        graph.add_edge(key_a, key_b, weight=ttype.frequency)
            for key in keys:
                node = graph.nodes[key]
                node["weight"] = node.get("weight", 0.0) + ttype.frequency
        return graph

    # ------------------------------------------------------------------
    # Partitioning
    # ------------------------------------------------------------------
    def derive_plan(self, profile: WorkloadProfile) -> PartitionPlan:
        """Partition the co-access graph into a placement plan."""
        graph = self.build_graph(profile)
        if graph.number_of_nodes() == 0:
            return PartitionPlan()

        components = self._weighted_components(graph)
        fair_share = sum(w for _keys, w in components) / len(self.partitions)
        limit = self.config.oversize_factor * max(fair_share, 1e-12)

        pieces: list[tuple[list[TupleKey], float]] = []
        for keys, weight in components:
            if weight > limit and len(keys) > 1:
                pieces.extend(self._split(graph, keys, weight, limit))
            else:
                pieces.append((keys, weight))

        # LPT bin packing: heaviest piece first onto the lightest partition.
        pieces.sort(key=lambda item: (-item[1], item[0][0]))
        load: dict[PartitionId, float] = {p: 0.0 for p in self.partitions}
        plan = PartitionPlan()
        for keys, weight in pieces:
            target = min(self.partitions, key=lambda p: (load[p], p))
            for key in keys:
                plan.assign(key, target)
            load[target] += weight
        return plan

    def cut_weight(self, profile: WorkloadProfile, plan: PartitionPlan) -> float:
        """Total frequency of transaction types the plan leaves distributed."""
        cut = 0.0
        for ttype in profile.types:
            targets = {plan.target_of(k) for k in ttype.keys}
            if len(targets) > 1:
                cut += ttype.frequency
        return cut

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _weighted_components(
        self, graph: nx.Graph
    ) -> list[tuple[list[TupleKey], float]]:
        import networkx as nx

        components = []
        for nodes in nx.connected_components(graph):
            ordered = sorted(nodes)
            weight = sum(graph.nodes[n].get("weight", 0.0) for n in ordered)
            components.append((ordered, weight))
        components.sort(key=lambda item: item[0][0])
        return components

    def _split(
        self,
        graph: nx.Graph,
        keys: list[TupleKey],
        weight: float,
        limit: float,
    ) -> list[tuple[list[TupleKey], float]]:
        """Recursively bisect an oversized component with Kernighan–Lin."""
        if weight <= limit or len(keys) <= 1:
            return [(keys, weight)]
        import networkx as nx

        subgraph = graph.subgraph(keys)
        side_a, side_b = nx.algorithms.community.kernighan_lin_bisection(
            subgraph,
            max_iter=self.config.kl_max_iter,
            weight="weight",
            seed=self.config.seed,
        )
        result: list[tuple[list[TupleKey], float]] = []
        for side in (side_a, side_b):
            side_keys = sorted(side)
            side_weight = sum(
                graph.nodes[n].get("weight", 0.0) for n in side_keys
            )
            result.extend(self._split(graph, side_keys, side_weight, limit))
        return result

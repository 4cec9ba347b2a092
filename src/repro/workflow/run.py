"""Runs: workflow executions (provenance graphs).

A :class:`Run` is the result of deriving a specification to completion: a DAG
whose nodes are *atomic module executions* (e.g. ``a:1``, ``a:2``) and whose
edges carry data tags.  Every node stores the dynamic reachability label
assigned when it was derived (see :mod:`repro.labeling`), which is the only
per-node information the paper's query engine needs at query time.

Regular path queries are evaluated over runs: the baselines traverse the run
graph directly, while the labeling-based engine only touches node labels.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Any, Iterable, Iterator, Mapping, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    import networkx

    from repro.core.bitset import PackedRunView
    from repro.labeling.labels import Label
    from repro.workflow.spec import Specification

__all__ = ["RunNode", "RunEdge", "Run"]


@dataclass(frozen=True)
class RunNode:
    """A module execution in a run."""

    node_id: str
    name: str
    label: "Label"


@dataclass(frozen=True)
class RunEdge:
    """A tagged data edge between two module executions."""

    source: str
    target: str
    tag: str


@dataclass
class Run:
    """A completed workflow execution.

    Attributes
    ----------
    spec:
        The specification the run was derived from.
    nodes:
        Mapping from node id to :class:`RunNode`.
    edges:
        All data edges, in insertion order.
    derivation_steps:
        The number of node replacements performed, kept for reporting.
    """

    spec: "Specification"
    nodes: Mapping[str, RunNode]
    edges: tuple[RunEdge, ...]
    derivation_steps: int = 0
    seed: int | None = None
    metadata: dict[str, Any] = field(default_factory=dict)

    # -- sizes ------------------------------------------------------------------

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def __contains__(self, node_id: str) -> bool:
        return node_id in self.nodes

    def __iter__(self) -> Iterator[RunNode]:
        return iter(self.nodes.values())

    # -- lookups ----------------------------------------------------------------

    def node(self, node_id: str) -> RunNode:
        return self.nodes[node_id]

    def label_of(self, node_id: str) -> "Label":
        return self.nodes[node_id].label

    def labels_of(self, node_ids: Iterable[str]) -> list["Label"]:
        return [self.nodes[node_id].label for node_id in node_ids]

    def nodes_named(self, name: str) -> tuple[str, ...]:
        """Node ids of all executions of the given module, in id order."""
        return tuple(
            node_id for node_id, node in self.nodes.items() if node.name == name
        )

    def node_ids(self) -> tuple[str, ...]:
        return tuple(self.nodes)

    @cached_property
    def successors(self) -> Mapping[str, tuple[tuple[str, str], ...]]:
        """``successors[u]`` is a tuple of ``(target, tag)`` pairs."""
        out: dict[str, list[tuple[str, str]]] = {node_id: [] for node_id in self.nodes}
        for edge in self.edges:
            out[edge.source].append((edge.target, edge.tag))
        return {node_id: tuple(targets) for node_id, targets in out.items()}

    @cached_property
    def predecessors(self) -> Mapping[str, tuple[tuple[str, str], ...]]:
        """``predecessors[v]`` is a tuple of ``(source, tag)`` pairs."""
        incoming: dict[str, list[tuple[str, str]]] = {node_id: [] for node_id in self.nodes}
        for edge in self.edges:
            incoming[edge.target].append((edge.source, edge.tag))
        return {node_id: tuple(sources) for node_id, sources in incoming.items()}

    @cached_property
    def packed(self) -> "PackedRunView":
        """The run's dense-interned, uint64-packed adjacency view.

        Built once (the service warms it at registration) and reused by every
        query: forward tag rows, wildcard rows for both directions and the
        node interner, so joins and closures never rebuild adjacency per
        call.  The import is deferred because :mod:`repro.core` imports this
        module.
        """
        from repro.core.bitset import build_run_view

        return build_run_view(self)

    @cached_property
    def edges_by_tag(self) -> Mapping[str, tuple[RunEdge, ...]]:
        """All edges grouped by tag (the basis of the inverted index)."""
        grouped: dict[str, list[RunEdge]] = {}
        for edge in self.edges:
            grouped.setdefault(edge.tag, []).append(edge)
        return {tag: tuple(edges) for tag, edges in grouped.items()}

    def tags(self) -> frozenset[str]:
        return frozenset(edge.tag for edge in self.edges)

    # -- traversal helpers (used by baselines and tests) --------------------------

    def topological_order(self) -> list[str]:
        in_degree = {node_id: 0 for node_id in self.nodes}
        for edge in self.edges:
            in_degree[edge.target] += 1
        ready = [node_id for node_id, degree in in_degree.items() if degree == 0]
        order: list[str] = []
        while ready:
            node_id = ready.pop()
            order.append(node_id)
            for target, _ in self.successors[node_id]:
                in_degree[target] -= 1
                if in_degree[target] == 0:
                    ready.append(target)
        if len(order) != len(self.nodes):
            raise ValueError("run graph contains a cycle; this should be impossible")
        return order

    def reachable_from(self, node_id: str) -> frozenset[str]:
        """All nodes reachable from ``node_id`` (excluding itself unless on a
        cycle, which cannot happen in a run DAG)."""
        seen: set[str] = set()
        stack = [target for target, _ in self.successors[node_id]]
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            stack.extend(target for target, _ in self.successors[current])
        return frozenset(seen)

    def to_networkx(self) -> "networkx.MultiDiGraph":
        """Export as a networkx multigraph (tags on the ``tag`` edge attribute)."""
        import networkx

        graph = networkx.MultiDiGraph()
        for node_id, node in self.nodes.items():
            graph.add_node(node_id, name=node.name, label=node.label)
        for edge in self.edges:
            graph.add_edge(edge.source, edge.target, tag=edge.tag)
        return graph

    # -- construction helper -------------------------------------------------------

    @classmethod
    def from_parts(
        cls,
        spec: "Specification",
        nodes: Sequence[RunNode],
        edges: Sequence[RunEdge],
        *,
        derivation_steps: int = 0,
        seed: int | None = None,
    ) -> "Run":
        return cls(
            spec=spec,
            nodes={node.node_id: node for node in nodes},
            edges=tuple(edges),
            derivation_steps=derivation_steps,
            seed=seed,
        )

    def describe(self) -> str:
        """A short human-readable summary (used by the CLI and examples)."""
        return (
            f"run of {self.spec.name!r}: {self.node_count} nodes, "
            f"{self.edge_count} edges, {self.derivation_steps} derivation steps"
        )

"""Node-pair relations and the join-based regex evaluation (Option G1).

A regular path query over a run can always be evaluated bottom-up over the
query's parse tree, materializing for every subexpression the relation of
node pairs it connects and combining child relations with joins, unions and
fixpoints (Li & Moon [21]; Option G1 in Section IV-B).  This module holds
that relational machinery:

* it *is* the baseline G1 used in the experiments, and
* it evaluates the unsafe remainder of a decomposed general query
  (Section IV-B, "Our approach").

Relations are plain sets of ``(source node id, target node id)`` pairs, with
adjacency dictionaries built on the fly for joins; the transitive closure
uses semi-naive iteration.  Following the library-wide convention, the empty
path is admitted: ``ε`` and ``e*`` relate every node of the run to itself.

The set-based :func:`evaluate_regex_relation` is the G1 baseline and the
executable reference semantics; the executor's joins run
:func:`evaluate_regex_relation_packed`, the same bottom-up evaluation over
the uint64-packed kernel of :mod:`repro.core.bitset`.  The packed path reads
the run's adjacency from the memoized ``run.packed`` view — built once per
run and reused across queries — instead of re-deriving per-tag edge sets on
every call, and the closure helpers below ride the same packed view.
Per-seed frontier searches (:func:`frontier_search`) stay on sets: their
cost tracks a sparse run's out-degree, where the packed row width loses.

Two restriction-pushdown primitives let callers keep intermediate relations
proportional to the *requested* node lists instead of the whole run:

* ``restriction_universe`` computes the set of nodes that can lie on any
  source-to-target path (forward-reachable from ``l1`` intersected with
  backward-reachable from ``l2``), and every relation builder here accepts it
  as an ``allowed`` filter — sound because every node of a matching path is
  both reachable from its source and co-reachable from its target;
* ``product_frontier_targets`` is a per-source frontier search over the
  product of the run graph with a query DFA (the production generalization
  of :mod:`repro.baselines.product_bfs`), pruned by the same ``allowed`` set
  and extended with *macro transitions*: synthetic DFA symbols whose
  successors come from an already-materialized relation (the decomposition
  engine feeds the label-decoded relations of maximal safe subqueries
  through this hook).
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping, Sequence

from repro.automata.dfa import DFA
from repro.core.bitset import PackedRelation, closure_mask
from repro.automata.regex import (
    AnySymbol,
    Concat,
    Epsilon,
    Plus,
    RegexNode,
    Star,
    Symbol,
    Union,
)
from repro.workflow.run import Run

__all__ = [
    "NodePairs",
    "tag_relation",
    "all_edge_relation",
    "identity_relation",
    "compose",
    "transitive_closure",
    "reflexive_transitive_closure",
    "restrict",
    "forward_closure_nodes",
    "backward_closure_nodes",
    "restriction_universe",
    "frontier_search",
    "product_frontier_targets",
    "evaluate_regex_relation",
    "evaluate_regex_relation_packed",
]

NodePairs = set[tuple[str, str]]


def tag_relation(run: Run, tag: str, allowed: frozenset[str] | set[str] | None = None) -> NodePairs:
    """Pairs connected by a single edge with the given tag."""
    return {
        (edge.source, edge.target)
        for edge in run.edges_by_tag.get(tag, ())
        if allowed is None or (edge.source in allowed and edge.target in allowed)
    }


def all_edge_relation(run: Run, allowed: frozenset[str] | set[str] | None = None) -> NodePairs:
    """Pairs connected by a single edge of any tag (the wildcard ``_``)."""
    return {
        (edge.source, edge.target)
        for edge in run.edges
        if allowed is None or (edge.source in allowed and edge.target in allowed)
    }


def identity_relation(nodes: Iterable[str]) -> NodePairs:
    """The diagonal relation over a node universe (the empty path)."""
    return {(node, node) for node in nodes}


def _forward_index(relation: NodePairs) -> dict[str, set[str]]:
    index: dict[str, set[str]] = {}
    for source, target in relation:
        index.setdefault(source, set()).add(target)
    return index


def compose(left: NodePairs, right: NodePairs) -> NodePairs:
    """Relational composition: ``{(a, c) | (a, b) ∈ left, (b, c) ∈ right}``.

    The smaller side drives the join to keep intermediate work proportional
    to the output.
    """
    if not left or not right:
        return set()
    right_index = _forward_index(right)
    result: NodePairs = set()
    for source, middle in left:
        targets = right_index.get(middle)
        if targets:
            for target in targets:
                result.add((source, target))
    return result


def transitive_closure(relation: NodePairs) -> NodePairs:
    """``R+``: one or more steps of ``R`` (semi-naive fixpoint iteration)."""
    closure: NodePairs = set(relation)
    index = _forward_index(relation)
    frontier = set(relation)
    while frontier:
        next_frontier: NodePairs = set()
        for source, middle in frontier:
            for target in index.get(middle, ()):
                pair = (source, target)
                if pair not in closure:
                    closure.add(pair)
                    next_frontier.add(pair)
        frontier = next_frontier
    return closure


def reflexive_transitive_closure(relation: NodePairs, nodes: Iterable[str]) -> NodePairs:
    """``R*``: the transitive closure plus the diagonal over the universe."""
    return transitive_closure(relation) | identity_relation(nodes)


def restrict(
    relation: NodePairs, l1: Sequence[str] | None, l2: Sequence[str] | None
) -> NodePairs:
    """Keep only pairs with the source in ``l1`` and the target in ``l2``."""
    if l1 is None and l2 is None:
        return relation
    sources = None if l1 is None else set(l1)
    targets = None if l2 is None else set(l2)
    return {
        (source, target)
        for source, target in relation
        if (sources is None or source in sources)
        and (targets is None or target in targets)
    }


def forward_closure_nodes(run: Run, seeds: Iterable[str]) -> frozenset[str]:
    """All nodes reachable from any seed, including the seeds themselves
    (seed ids not present in the run are silently dropped).

    Runs on the memoized packed view: one word-parallel wavefront per BFS
    level over the run's any-tag rows instead of a per-edge set walk.
    """
    view = run.packed
    reach = closure_mask(view.forward_any, view.interner.mask_of(seeds))
    return frozenset(view.interner.nodes_of(reach))


def backward_closure_nodes(run: Run, seeds: Iterable[str]) -> frozenset[str]:
    """All nodes that reach any seed, including the seeds themselves
    (seed ids not present in the run are silently dropped)."""
    view = run.packed
    reach = closure_mask(view.backward_any, view.interner.mask_of(seeds))
    return frozenset(view.interner.nodes_of(reach))


def restriction_universe(
    run: Run, l1: Sequence[str] | None, l2: Sequence[str] | None
) -> frozenset[str] | None:
    """The nodes that can lie on any path from ``l1`` to ``l2``.

    Every node of a path from a source in ``l1`` to a target in ``l2`` is
    reachable from that source and reaches that target, so the forward
    closure of ``l1`` intersected with the backward closure of ``l2`` is a
    sound universe for *every* intermediate relation of the query — the
    restriction-pushdown filter.  ``None`` (either side, or the result when
    both sides are ``None``) means unconstrained.
    """
    if l1 is None and l2 is None:
        return None
    forward = forward_closure_nodes(run, l1) if l1 is not None else None
    backward = backward_closure_nodes(run, l2) if l2 is not None else None
    if forward is None:
        return backward
    if backward is None:
        return forward
    return forward & backward


def frontier_search(
    adjacency: Mapping[str, Sequence[tuple[str, str]]],
    dfa: DFA,
    seed: str,
    *,
    allowed: frozenset[str] | set[str] | None = None,
    macro_successors: Mapping[str, Callable[[str], Iterable[str]]] | None = None,
) -> set[str]:
    """The core product frontier search over an explicit adjacency view.

    ``adjacency[node]`` lists ``(neighbor, tag)`` pairs; passing
    ``run.successors`` searches forward (see :func:`product_frontier_targets`)
    and passing ``run.predecessors`` with a reversed DFA searches backward
    from a target.  The function touches nothing but these plain mappings and
    the DFA, so the parallel executor's process workers can run it on shipped
    data without reconstructing a :class:`~repro.workflow.run.Run`.
    """
    if seed not in adjacency or (allowed is not None and seed not in allowed):
        return set()
    successors = adjacency
    accepting = dfa.accepting
    transitions = dfa.transitions
    dead = dfa.dead_state()
    start_state = dfa.start
    result: set[str] = set()
    if start_state in accepting:
        result.add(seed)
    seen = {(seed, start_state)}
    stack = [(seed, start_state)]
    while stack:
        node, state = stack.pop()
        row = transitions[state]
        edges: Iterable[tuple[str, str]] = successors[node]
        if macro_successors:
            extra = [
                (target, tag)
                for tag, expand in macro_successors.items()
                if row.get(tag, dead) != dead
                for target in expand(node)
            ]
            if extra:
                edges = list(edges) + extra
        for target, tag in edges:
            next_state = row.get(tag, dead)
            if next_state is None or next_state == dead:
                continue
            if allowed is not None and target not in allowed:
                continue
            key = (target, next_state)
            if key in seen:
                continue
            seen.add(key)
            stack.append(key)
            if next_state in accepting:
                result.add(target)
    return result


def product_frontier_targets(
    run: Run,
    dfa: DFA,
    source: str,
    *,
    allowed: frozenset[str] | set[str] | None = None,
    macro_successors: Mapping[str, Callable[[str], Iterable[str]]] | None = None,
) -> set[str]:
    """All nodes ``v`` such that some path ``source ⤳ v`` is accepted.

    A frontier search over the product of the run graph with the query DFA
    (Mendelzon & Wood), with two production extensions over the baseline in
    :mod:`repro.baselines.product_bfs`:

    * states whose run node falls outside ``allowed`` are pruned (backward
      pruning from the requested targets), and dead DFA states are never
      enqueued, so the search touches only the useful region of the run;
    * ``macro_successors[tag](node)`` supplies the successors of ``node``
      under a synthetic *macro* symbol — an edge standing for a whole
      relation (the decomposition engine maps each label-decoded safe
      subquery to one macro symbol).  Wildcard transitions never match macro
      symbols (see :func:`repro.automata.dfa.determinize`).

    Memory is bounded by ``|reachable nodes| × |DFA states|``, never by the
    run size.  The direction-agnostic core lives in :func:`frontier_search`;
    the backward variant of the executor layer calls it with
    ``run.predecessors`` and a reversed DFA.
    """
    return frontier_search(
        run.successors, dfa, source, allowed=allowed, macro_successors=macro_successors
    )


def evaluate_regex_relation(
    run: Run,
    node: RegexNode,
    *,
    subquery_evaluator: Callable[[RegexNode], "NodePairs | None"] | None = None,
    allowed: frozenset[str] | set[str] | None = None,
) -> NodePairs:
    """Bottom-up join-based evaluation of a query over a run (Option G1).

    ``subquery_evaluator(node) -> NodePairs | None`` optionally intercepts
    subtrees (the decomposition engine passes a hook that answers *safe*
    subtrees with the labeling-based all-pairs algorithm and returns ``None``
    for everything else).  ``allowed`` restricts every relation — leaves and
    closures alike — to pairs inside a node universe (see
    :func:`restriction_universe`), which bounds peak relation size by that
    universe instead of the run.
    """
    if subquery_evaluator is not None:
        shortcut = subquery_evaluator(node)
        if shortcut is not None:
            return shortcut
    # The empty-path diagonal (epsilon, star) only exists at nodes the run
    # actually contains; ids in ``allowed`` that are not run nodes must not
    # fabricate pairs (the packed kernel drops them at interning).
    universe = (
        frozenset(allowed).intersection(run.nodes)
        if allowed is not None
        else run.node_ids()
    )
    if isinstance(node, Epsilon):
        return identity_relation(universe)
    if isinstance(node, Symbol):
        return tag_relation(run, node.tag, allowed)
    if isinstance(node, AnySymbol):
        return all_edge_relation(run, allowed)
    if isinstance(node, Concat):
        relation: NodePairs | None = None
        for part in node.parts:
            part_relation = evaluate_regex_relation(
                run, part, subquery_evaluator=subquery_evaluator, allowed=allowed
            )
            relation = part_relation if relation is None else compose(relation, part_relation)
            if not relation:
                return set()
        return relation if relation is not None else identity_relation(universe)
    if isinstance(node, Union):
        result: NodePairs = set()
        for part in node.parts:
            result |= evaluate_regex_relation(
                run, part, subquery_evaluator=subquery_evaluator, allowed=allowed
            )
        return result
    if isinstance(node, Star):
        inner = evaluate_regex_relation(
            run, node.child, subquery_evaluator=subquery_evaluator, allowed=allowed
        )
        return reflexive_transitive_closure(inner, universe)
    if isinstance(node, Plus):
        inner = evaluate_regex_relation(
            run, node.child, subquery_evaluator=subquery_evaluator, allowed=allowed
        )
        return transitive_closure(inner)
    raise TypeError(f"unknown regex node {node!r}")


def _evaluate_packed(
    run: Run,
    node: RegexNode,
    *,
    subquery_evaluator: Callable[[RegexNode], "NodePairs | None"] | None,
    allowed_mask: int | None,
    universe_mask: int,
) -> PackedRelation:
    """The packed twin of :func:`evaluate_regex_relation`'s recursion.

    Leaves come straight from the memoized ``run.packed`` rows; compositions,
    unions, and closures are word-parallel :class:`PackedRelation` algebra.
    Safe subtrees intercepted by ``subquery_evaluator`` arrive as node-pair
    sets (the label-decode output) and are packed at the boundary.
    """
    view = run.packed
    node_count = len(view.interner)
    if subquery_evaluator is not None:
        shortcut = subquery_evaluator(node)
        if shortcut is not None:
            return PackedRelation.from_pairs(view.interner, shortcut)
    if isinstance(node, Epsilon):
        return PackedRelation.identity(node_count, universe_mask)
    if isinstance(node, Symbol):
        adjacency = view.by_tag.get(node.tag)
        if adjacency is None:
            return PackedRelation.empty(node_count)
        return PackedRelation.from_adjacency(adjacency, allowed_mask)
    if isinstance(node, AnySymbol):
        return PackedRelation.from_adjacency(view.forward_any, allowed_mask)
    if isinstance(node, Concat):
        relation: PackedRelation | None = None
        for part in node.parts:
            part_relation = _evaluate_packed(
                run,
                part,
                subquery_evaluator=subquery_evaluator,
                allowed_mask=allowed_mask,
                universe_mask=universe_mask,
            )
            relation = part_relation if relation is None else relation.compose(part_relation)
            if relation.is_empty():
                return PackedRelation.empty(node_count)
        return relation if relation is not None else PackedRelation.identity(
            node_count, universe_mask
        )
    if isinstance(node, Union):
        result = PackedRelation.empty(node_count)
        for part in node.parts:
            result = result.union(
                _evaluate_packed(
                    run,
                    part,
                    subquery_evaluator=subquery_evaluator,
                    allowed_mask=allowed_mask,
                    universe_mask=universe_mask,
                )
            )
        return result
    if isinstance(node, (Star, Plus)):
        inner = _evaluate_packed(
            run,
            node.child,
            subquery_evaluator=subquery_evaluator,
            allowed_mask=allowed_mask,
            universe_mask=universe_mask,
        )
        closed = inner.transitive_closure()
        if isinstance(node, Star):
            return closed.with_diagonal(universe_mask)
        return closed
    raise TypeError(f"unknown regex node {node!r}")


def evaluate_regex_relation_packed(
    run: Run,
    node: RegexNode,
    *,
    subquery_evaluator: Callable[[RegexNode], "NodePairs | None"] | None = None,
    allowed: frozenset[str] | set[str] | None = None,
) -> NodePairs:
    """:func:`evaluate_regex_relation` on the packed kernel.

    Same contract and results as the set-based evaluation (the Hypothesis
    equivalence suite holds the two paths together); only the representation
    differs — relations live as packed rows for the whole bottom-up pass and
    unpack to node pairs exactly once at the root.
    """
    view = run.packed
    allowed_mask = None if allowed is None else view.interner.mask_of(allowed)
    universe_mask = view.interner.full_mask if allowed_mask is None else allowed_mask
    relation = _evaluate_packed(
        run,
        node,
        subquery_evaluator=subquery_evaluator,
        allowed_mask=allowed_mask,
        universe_mask=universe_mask,
    )
    return relation.to_pairs(view.interner)

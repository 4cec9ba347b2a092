"""Physical operators of the executor layer.

A physical plan (see :mod:`repro.core.exec.plan`) is a tiny tree of the
operators defined here.  Operators are *descriptions*: they carry everything
an executor needs — seeds, direction-adjusted DFA, pruning universe, macro
relations — but do no work themselves, so a plan can be built once (pure,
cheap, unit-testable) and handed to any executor (serial, thread pool,
process pool) without re-planning.

``MacroRelation`` is the one stateful piece: the label-decoded relation of a
routed safe subquery, materialized lazily on the first frontier expansion
that crosses its macro edge and shared — thread-safely — by every seed
search of the operator, in either direction.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping

from repro.automata.dfa import DFA
from repro.automata.regex import RegexNode
from repro.obs import get_tracer

__all__ = [
    "FrontierSearchOp",
    "JoinOp",
    "LabelDecodeOp",
    "MacroRelation",
    "PhysicalOp",
    "RestrictOp",
]


class MacroRelation:
    """A lazily decoded safe-subquery relation serving macro transitions.

    ``decode`` yields the relation's ``(source, target)`` pairs; it runs at
    most once (guarded by a lock, so parallel thread executors share one
    decode).  ``successors``/``predecessors`` are the adjacency views the
    forward and backward frontier searches follow across the macro edge;
    ``adjacency(direction)`` hands the materialized mapping itself to the
    process-pool executor, which must ship plain data to its workers.
    """

    def __init__(self, decode: Callable[[], Iterable[tuple[str, str]]]) -> None:
        self._decode = decode
        self._lock = threading.Lock()
        self._forward: dict[str, tuple[str, ...]] | None = None  # guarded-by: _lock
        self._backward: dict[str, tuple[str, ...]] | None = None  # guarded-by: _lock

    def _materialize(self) -> tuple[
        dict[str, tuple[str, ...]], dict[str, tuple[str, ...]]
    ]:
        """Decode once and return ``(forward, backward)``; readers work off
        the returned mappings (never the fields) so reads need no lock."""
        with self._lock:
            if self._forward is None or self._backward is None:
                with get_tracer().span("exec.macro_decode") as span:
                    forward: dict[str, list[str]] = {}
                    backward: dict[str, list[str]] = {}
                    pairs = 0
                    for source, target in self._decode():
                        pairs += 1
                        forward.setdefault(source, []).append(target)
                        backward.setdefault(target, []).append(source)
                    span.set("pairs", pairs)
                self._forward = {node: tuple(out) for node, out in forward.items()}
                self._backward = {node: tuple(out) for node, out in backward.items()}
            return self._forward, self._backward

    def adjacency(self, direction: str) -> Mapping[str, tuple[str, ...]]:
        """The materialized macro adjacency for one search direction."""
        forward, backward = self._materialize()
        return forward if direction == "forward" else backward

    def successors(self, node: str) -> tuple[str, ...]:
        forward, _ = self._materialize()
        return forward.get(node, ())

    def predecessors(self, node: str) -> tuple[str, ...]:
        _, backward = self._materialize()
        return backward.get(node, ())

    def expander(self, direction: str) -> Callable[[str], tuple[str, ...]]:
        """The per-node successor callable :func:`frontier_search` expects."""
        return self.successors if direction == "forward" else self.predecessors


@dataclass(frozen=True)
class FrontierSearchOp:
    """One pruned product-DFA frontier search per seed.

    ``direction`` orients everything at once: forward seeds are the requested
    sources and hits are targets filtered by ``emit_filter`` (the requested
    target set); backward seeds are the requested *targets*, the ``dfa`` is
    the reversed macro DFA, searches follow run predecessors (and macro
    predecessors), and hits are sources filtered by the requested source set.
    Executors re-orient emitted pairs so callers always see ``(source,
    target)``.
    """

    direction: str  # "forward" | "backward"
    dfa: DFA
    seeds: tuple[str, ...]
    emit_filter: frozenset[str] | None
    allowed: frozenset[str] | None
    macros: Mapping[str, MacroRelation] = field(default_factory=dict)


@dataclass(frozen=True)
class LabelDecodeOp:
    """A fully safe query (or safe subtree) answered by the labeling engine
    (Algorithm 2 / optRPL-G) over explicit node lists."""

    node: RegexNode
    l1: tuple[str, ...]
    l2: tuple[str, ...]


@dataclass(frozen=True)
class JoinOp:
    """The bottom-up relational evaluation (Option G1) of the unsafe
    remainder, with safe subtrees in ``routed`` answered by the labeling
    engine and every relation filtered to the ``allowed`` universe."""

    root: RegexNode
    routed: frozenset[RegexNode]
    allowed: frozenset[str] | None


@dataclass(frozen=True)
class RestrictOp:
    """Final source/target restriction over a child operator's relation
    (``None`` keeps a side unconstrained)."""

    child: "PhysicalOp"
    l1: tuple[str, ...] | None
    l2: tuple[str, ...] | None


PhysicalOp = FrontierSearchOp | LabelDecodeOp | JoinOp | RestrictOp

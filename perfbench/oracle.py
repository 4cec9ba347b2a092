"""The correctness gate: answers checked against the product-automaton oracle.

Runs outside every timed window.  Operations are grouped by (run content,
query) so the oracle builds one DFA per group and one search per distinct
source (``product_bfs_all_pairs``) instead of one DFA per operation; a
pairwise answer is then membership of its pair in the group's result.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Iterable, Mapping

from repro.baselines.product_bfs import product_bfs_all_pairs
from repro.workflow.run import Run

from inputs import Op

#: Plain reachability between distinct nodes is the all-paths query.
REACHABILITY_QUERY = "_*"

Answer = Any  # bool for point reads, frozenset of pairs (or its digest) for scans


class GateError(RuntimeError):
    """The check cannot gate anything (its answers carry no information)."""


def expected(runs: Mapping[str, Run], ops: Mapping[int, Op]) -> dict[int, Answer]:
    """The oracle's answer for every operation given by stream position."""
    groups: dict[tuple[str, str], list[int]] = {}
    for position, op in ops.items():
        query = op.query if op.kind != "reachability" else REACHABILITY_QUERY
        groups.setdefault((op.content, query), []).append(position)
    answers: dict[int, Answer] = {}
    for (content, query), positions in groups.items():
        sources: set[str] = set()
        targets: set[str] = set()
        for position in positions:
            op = ops[position]
            sources.update(op.sources or (op.source,))
            targets.update(op.targets or (op.target,))
        matched = product_bfs_all_pairs(runs[content], sorted(sources), sorted(targets), query)
        for position in positions:
            op = ops[position]
            if op.kind == "allpairs":
                wanted_sources, wanted_targets = set(op.sources), set(op.targets)
                answers[position] = frozenset(
                    pair
                    for pair in matched
                    if pair[0] in wanted_sources and pair[1] in wanted_targets
                )
            else:
                answers[position] = (op.source, op.target) in matched
    return answers


def canonical(answer: Answer) -> Answer:
    """The form answers are kept and compared in: a scan's pair set becomes
    the digest of its sorted pairs, a string the garbage collector never
    scans, so answers held by the client do not slow the program's
    collections; point answers stay booleans."""
    if isinstance(answer, (set, frozenset)):
        return hashlib.sha256(json.dumps(sorted(answer)).encode()).hexdigest()
    return answer


def mismatches(got: Mapping[int, Answer], want: Mapping[int, Answer]) -> list[int]:
    """Positions whose answer differs from the oracle's (a missing answer,
    i.e. an error result, differs too); both sides are compared in
    :func:`canonical` form."""
    return sorted(
        position
        for position, answer in want.items()
        if canonical(got.get(position)) != canonical(answer)
    )


def require_informative(workload: str, want: Mapping[int, Answer]) -> None:
    """Refuse a check whose expected answers are all ``false`` or all empty:
    a program answering ``false`` to everything would pass it."""
    if want and not any(want.values()):
        raise GateError(
            f"{workload}: all {len(want)} checked answers are false or empty, "
            "so the correctness check gates nothing"
        )


def answers_digest(answers: Iterable[tuple[int, Answer]]) -> str:
    """A fingerprint of the program's answers, in stream order."""
    hasher = hashlib.sha256()
    for position, answer in sorted(answers, key=lambda item: item[0]):
        hasher.update(json.dumps([position, canonical(answer)]).encode())
    return hasher.hexdigest()

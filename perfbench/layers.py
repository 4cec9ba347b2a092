"""Per-layer timing for the traced run.

The traced run replays a workload with the program's layer functions
wrapped, from this file, at the names their callers look them up by, so
every call the service makes into a layer is timed where it happens.
Nested layer calls are subtracted from their caller, so each sample is the
layer's *self* time and the samples of one request add up to the time spent
in layers; the rest of the request is the service's dispatch.

The wrapped names are the public functions the layers export.  Patching
fails loudly (``AttributeError``) if a name is removed; a layer metric that
reads 0 on a workload where ``METRICS.md`` expects work means its caller no
longer goes through the wrapped name.
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator

from repro.obs import Span

#: (module, attribute, layer) of every plain function that is timed.
FUNCTIONS = (
    ("repro.service.cache", "query_dfa", "automata.dfa_build"),
    ("repro.service.cache", "analyze_safety", "safety.analyze"),
    ("repro.service.cache", "QueryIndex", "query_index.build"),
    ("repro.service.cache", "plan_decomposition", "decomposition.plan"),
    ("repro.core.engine", "answer_pairwise_query", "pairwise.decode"),
    ("repro.core.engine", "is_reachable", "labeling.reachable"),
    ("repro.core.engine", "all_pairs_iter", "allpairs.safe"),
    ("repro.core.engine", "evaluate_general_query", "exec.unsafe"),
    ("repro.service.service", "load_run", "workflow.load_run"),
    ("repro.core.bitset", "build_run_view", "bitset.pack"),
)

#: (module, class, method, layer) of every method that is timed.
METHODS = (
    ("repro.service.cache", "IndexCache", "safety", "cache.lookup"),
    ("repro.service.cache", "IndexCache", "index", "cache.lookup"),
    ("repro.store.store", "IndexStore", "save_run", "store.save_run"),
)

#: Tracer spans whose self time is reported (see :func:`self_times`).
EXEC_SPANS = {"exec.join": "exec.join", "exec.frontier_search": "exec.frontier"}


class LayerClock:
    """Collects per-layer self times and counts while the patches are in.

    ``samples`` maps a layer to its self times (seconds) since the last
    :meth:`take`; ``outer_s`` accumulates the inclusive time of outermost
    layer calls, which the driver subtracts from a request's latency to get
    its dispatch time.  ``counts`` holds work counters (DFA states, safe
    verdicts, safe subqueries, pairs out); a lookup that built nothing is a
    cache hit, the only kind ``cache.lookup`` keeps.
    """

    def __init__(self) -> None:
        self.samples: dict[str, list[float]] = {}
        self.counts: dict[str, int] = {}
        self.outer_s = 0.0
        self._stack: list[list[float]] = []  # per open call: [child seconds, nested calls]

    def take(self) -> dict[str, list[float]]:
        samples, self.samples = self.samples, {}
        return samples

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def timed(self, layer: str, call: Callable[[], Any]) -> Any:
        frame = [0.0, 0.0]  # [child inclusive seconds, nested calls]
        self._stack.append(frame)
        started = time.perf_counter()
        try:
            return call()
        finally:
            elapsed = time.perf_counter() - started
            self._stack.pop()
            if self._stack:
                self._stack[-1][0] += elapsed
                self._stack[-1][1] += 1 + frame[1]
            else:
                self.outer_s += elapsed
            # A cache lookup that nested a build (or a restore) was a miss;
            # only hits are the lookup path this metric is about.
            if layer != "cache.lookup" or frame[1] == 0:
                self.samples.setdefault(layer, []).append(elapsed - frame[0])


def _observe(clock: LayerClock, layer: str, result: Any) -> Any:
    """Record the work counters a layer's result carries."""
    if layer == "automata.dfa_build":
        clock.count("automata.dfa_states", result.state_count)
    elif layer == "safety.analyze":
        clock.count("safety.reports")
        clock.count("safety.safe", int(result.is_safe))
    elif layer == "decomposition.plan":
        clock.count("decomposition.safe_subqueries", len(result.safe_subtrees))
    return result


def _wrap(clock: LayerClock, layer: str, original: Callable[..., Any]) -> Callable[..., Any]:
    if layer == "allpairs.safe":
        # A lazy stream: drain it inside the timed call so the sample is
        # the whole Algorithm 2 evaluation, not the generator's creation.
        def drained(*args: Any, **kwargs: Any) -> Any:
            pairs = clock.timed(layer, lambda: list(original(*args, **kwargs)))
            clock.count("allpairs.pairs_out", len(pairs))
            return iter(pairs)

        return drained

    def wrapper(*args: Any, **kwargs: Any) -> Any:
        return _observe(clock, layer, clock.timed(layer, lambda: original(*args, **kwargs)))

    return wrapper


@contextmanager
def instrument() -> Iterator[LayerClock]:
    """Patch every layer entry point for the duration of the block."""
    clock = LayerClock()
    undo: list[tuple[Any, str, Any]] = []
    try:
        for module_name, attribute, layer in FUNCTIONS:
            module = importlib.import_module(module_name)
            original = getattr(module, attribute)
            undo.append((module, attribute, original))
            setattr(module, attribute, _wrap(clock, layer, original))
        for module_name, class_name, method, layer in METHODS:
            owner = getattr(importlib.import_module(module_name), class_name)
            original = owner.__dict__[method]
            undo.append((owner, method, original))
            setattr(owner, method, _wrap(clock, layer, original))
        yield clock
    finally:
        for owner, attribute, original in reversed(undo):
            setattr(owner, attribute, original)


def self_times(spans: tuple[Span, ...]) -> dict[str, list[float]]:
    """Self time (duration minus the merged intervals of its children) of
    every finished span named in :data:`EXEC_SPANS`, by layer."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent_id is not None:
            children.setdefault(span.parent_id, []).append(span)
    result: dict[str, list[float]] = {}
    for span in spans:
        layer = EXEC_SPANS.get(span.name)
        if layer is None:
            continue
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(span.span_id, ()), key=lambda item: item.start):
            start, end = max(child.start, cursor), min(child.end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        result.setdefault(layer, []).append(max(0.0, span.duration - covered))
    return result

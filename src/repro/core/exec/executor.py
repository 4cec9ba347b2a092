"""Physical-plan execution: serial, thread-pool and process-pool variants.

``execute`` materializes a plan's result set; ``execute_iter`` streams it.
The interesting operator is :class:`FrontierSearchOp`:

* **serial** — one pruned product search per seed on the calling thread,
  yielding each seed's pairs as they are found (the PR-3 behaviour, now
  direction-aware);
* **parallel** — the per-seed searches are embarrassingly parallel, so the
  seed list is split into contiguous chunks fanned across a worker pool.
  The ``thread`` backend shares the run and the lazily decoded macro
  relations directly (cheap, but GIL-bound); the ``process`` backend ships a
  plain-data :class:`~repro.core.exec.worker.SearchContext` to each worker
  for true parallelism, falling back to threads where process pools are
  unavailable.  ``ordered=True`` merges chunk results in seed order;
  otherwise chunks stream in completion order.

A service-supplied :class:`~repro.core.exec.config.WorkerBudget` caps the
granted fan-out: when the shared pool is saturated the search simply runs
serial instead of oversubscribing the host.
"""

from __future__ import annotations

from concurrent.futures import (
    Executor,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    as_completed,
)
from pickle import PicklingError
import multiprocessing
import threading
from contextlib import contextmanager
from typing import Any, Callable, Iterator, Mapping

from repro.automata.regex import RegexNode
from repro.core.allpairs import all_pairs_iter, all_pairs_safe_query
from repro.core.exec.ops import (
    FrontierSearchOp,
    JoinOp,
    LabelDecodeOp,
    RestrictOp,
)
from repro.core.exec.plan import PhysicalPlan
from repro.core.exec.worker import (
    ChunkPayload,
    ChunkRecord,
    ChunkResult,
    SearchContext,
    init_worker,
    search_seeds,
    timed_search_chunk,
)
from repro.core.relations import NodePairs, evaluate_regex_relation_packed, restrict
from repro.obs import Span, SpanContext, Tracer, get_tracer

__all__ = ["execute", "execute_iter"]


def execute(plan: PhysicalPlan) -> NodePairs:
    """Run a physical plan to a materialized set of ``(source, target)``."""
    root = plan.root
    if isinstance(root, LabelDecodeOp):
        with get_tracer().span(
            "exec.label_decode", sources=len(root.l1), targets=len(root.l2)
        ) as span:
            result = all_pairs_safe_query(
                plan.run,
                list(root.l1),
                list(root.l2),
                plan.indexes(root.node),
                plan.options,
            )
            span.set("pairs", len(result))
            return result
    if isinstance(root, FrontierSearchOp):
        return set(_iter_frontier(plan, root))
    if isinstance(root, RestrictOp):
        with get_tracer().span("exec.restrict") as span:
            inner = _execute_join(plan, root.child)
            result = restrict(inner, root.l1, root.l2)
            span.set("pairs", len(result))
            return result
    if isinstance(root, JoinOp):
        return _execute_join(plan, root)
    raise TypeError(f"unknown physical operator {root!r}")


def execute_iter(plan: PhysicalPlan) -> Iterator[tuple[str, str]]:
    """Stream a physical plan's pairs (each exactly once, unordered unless
    the executor config says ``ordered``).  Frontier and label-decode plans
    stream genuinely; join plans materialize first (they have no streaming
    formulation) and then iterate.
    """
    root = plan.root
    if isinstance(root, LabelDecodeOp):
        return get_tracer().wrap_iter(
            "exec.label_decode",
            all_pairs_iter(
                plan.run,
                list(root.l1),
                list(root.l2),
                plan.indexes(root.node),
                plan.options,
            ),
            sources=len(root.l1),
            targets=len(root.l2),
        )
    if isinstance(root, FrontierSearchOp):
        return _iter_frontier(plan, root)
    return iter(execute(plan))


# ---------------------------------------------------------------------------
# Join execution
# ---------------------------------------------------------------------------


def _execute_join(plan: PhysicalPlan, op: JoinOp) -> NodePairs:
    """Bottom-up relational evaluation on the packed kernel, with routed safe
    subtrees answered by the labeling engine over the ``allowed`` universe."""
    run, options, indexes = plan.run, plan.options, plan.indexes
    universe: list[str] | None = None

    def subquery_evaluator(node: RegexNode) -> NodePairs | None:
        nonlocal universe
        if node not in op.routed:
            return None
        if universe is None:
            universe = (
                list(op.allowed) if op.allowed is not None else list(run.node_ids())
            )
        return all_pairs_safe_query(run, universe, universe, indexes(node), options)

    with get_tracer().span("exec.join", routed=len(op.routed)) as span:
        result = evaluate_regex_relation_packed(
            run, op.root, subquery_evaluator=subquery_evaluator, allowed=op.allowed
        )
        span.set("pairs", len(result))
        return result


# ---------------------------------------------------------------------------
# Frontier execution
# ---------------------------------------------------------------------------


def _iter_frontier(plan: PhysicalPlan, op: FrontierSearchOp) -> Iterator[tuple[str, str]]:
    tracer = get_tracer()
    config = plan.executor
    requested = min(config.workers, len(op.seeds)) if op.seeds else 1
    if requested <= 1:
        with tracer.span(
            "exec.frontier_search",
            mode="serial",
            direction=op.direction,
            seeds=len(op.seeds),
        ):
            yield from _iter_frontier_serial(plan, op)
        return
    if config.budget is None:
        with tracer.span(
            "exec.frontier_search",
            mode="parallel",
            direction=op.direction,
            seeds=len(op.seeds),
            workers=requested,
        ) as span:
            yield from _iter_frontier_parallel(plan, op, requested, None, span)
        return
    granted = config.budget.acquire(requested)
    if granted <= 1:
        config.budget.release(granted)
        # The budget is saturated, so the search degrades to serial on the
        # calling thread; the mode attribute keeps the degrade visible in
        # traces, still correctly nested under the caller's span.
        with tracer.span(
            "exec.frontier_search",
            mode="serial-degraded",
            direction=op.direction,
            seeds=len(op.seeds),
        ):
            yield from _iter_frontier_serial(plan, op)
        return
    released = False
    release_lock = threading.Lock()

    def release() -> None:
        # The searches are done the moment the last chunk future completes;
        # a slow consumer draining the stream afterwards must not keep
        # budget slots hostage, so release exactly once, as early as that
        # (called from future done-callbacks and, as the safety net, from
        # the finally below — hence the lock).
        nonlocal released
        with release_lock:
            if released:
                return
            released = True
        config.budget.release(granted)

    try:
        with tracer.span(
            "exec.frontier_search",
            mode="parallel",
            direction=op.direction,
            seeds=len(op.seeds),
            workers=granted,
        ) as span:
            yield from _iter_frontier_parallel(plan, op, granted, release, span)
    finally:
        release()


def _graph_adjacency(
    plan: PhysicalPlan, op: FrontierSearchOp
) -> Mapping[str, tuple[tuple[str, str], ...]]:
    return plan.run.successors if op.direction == "forward" else plan.run.predecessors


def _lazy_macro_successors(
    op: FrontierSearchOp,
) -> dict[str, Callable[[str], tuple[str, ...]]] | None:
    return {
        tag: relation.expander(op.direction) for tag, relation in op.macros.items()
    } or None


def _iter_frontier_serial(
    plan: PhysicalPlan, op: FrontierSearchOp
) -> Iterator[tuple[str, str]]:
    adjacency = _graph_adjacency(plan, op)
    macro_successors = _lazy_macro_successors(op)
    for seed in op.seeds:
        yield from search_seeds(
            adjacency,
            op.dfa,
            (seed,),
            allowed=op.allowed,
            emit_filter=op.emit_filter,
            macro_successors=macro_successors,
            forward=op.direction == "forward",
        )


def _chunked(seeds: tuple[str, ...], chunk_count: int) -> list[tuple[str, ...]]:
    """Contiguous chunks (seed order preserved across the concatenation, so
    the ordered merge yields pairs grouped in seed order)."""
    size = max(1, -(-len(seeds) // chunk_count))
    return [seeds[offset : offset + size] for offset in range(0, len(seeds), size)]


def _mp_context() -> Any:
    """Prefer a forkserver context: the executor is routinely called from a
    multithreaded QueryService, where plain fork can inherit a lock held
    mid-fork and hang the child; forkserver forks from a clean
    single-threaded server instead."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("forkserver") if "forkserver" in methods else None


def _local_chunk_task(
    plan: PhysicalPlan, op: FrontierSearchOp
) -> Callable[[ChunkPayload], ChunkResult]:
    """The in-process chunk task: what thread pools run, and what the drain
    loop falls back to when a process pool turns out to be broken.

    Thread workers share the parent's tracer: the task adopts the payload's
    parent context so the chunk span nests under the submitting search, and
    there is nothing to stitch on merge.
    """
    forward = op.direction == "forward"
    adjacency = _graph_adjacency(plan, op)
    macro_successors = _lazy_macro_successors(op)

    def task(payload: ChunkPayload) -> ChunkResult:
        seeds, parent = payload
        tracer = get_tracer()
        with tracer.attach(SpanContext.from_tuple(parent)):
            with tracer.span("exec.frontier_chunk", seeds=len(seeds)) as span:
                pairs = search_seeds(
                    adjacency,
                    op.dfa,
                    seeds,
                    allowed=op.allowed,
                    emit_filter=op.emit_filter,
                    macro_successors=macro_successors,
                    forward=forward,
                )
                span.set("pairs", len(pairs))
        return pairs, None

    return task


#: What ``_worker_pool`` hands the parallel merge: the pool, the picklable
#: chunk task, and the in-process task the drain loop recomputes chunks with
#: when the pool breaks mid-flight.
_PoolParts = tuple[
    Executor,
    Callable[[ChunkPayload], ChunkResult],
    Callable[[ChunkPayload], ChunkResult],
]


@contextmanager
def _worker_pool(
    plan: PhysicalPlan, op: FrontierSearchOp, granted: int
) -> Iterator[_PoolParts]:
    """A ready-to-submit pool plus its chunk task and local fallback.

    Process workers get a plain-data :class:`SearchContext` pickled through
    the initializer.

    Nothing here waits for a worker to spawn: chunks are submitted straight
    away and overlap with pool startup, so the ``exec.worker_setup`` span
    measures exactly the parent-side fan-out cost — context build and pool
    construction.  Process-side failures (no ``fork``, a worker that cannot
    re-import or unpickle the context) either raise during construction —
    degraded to a thread pool here — or surface as broken-pool errors on the
    chunk futures, which the drain loop absorbs by recomputing chunks with
    the returned local task.

    Macro relations are materialized here, in the parent, exactly once for
    process pools: a deliberate trade — workers cannot label-decode, so the
    process backend pays the decode up front even when no live product state
    would ever cross the macro edge (serial and thread execution stay lazy;
    prefer ``backend="thread"`` for macro-heavy queries whose edges are
    rarely reached).  Thread pools share the run and the lazily decoded
    macro relations directly — no copies, the first chunk that crosses a
    macro edge decodes it for everyone.
    """
    backend = plan.executor.resolved_backend()
    pool: Executor | None = None
    with get_tracer().span("exec.worker_setup", backend=backend, workers=granted):
        local = _local_chunk_task(plan, op)
        task = local
        if backend == "process":
            try:
                context = SearchContext(
                    direction=op.direction,
                    adjacency=dict(_graph_adjacency(plan, op)),
                    dfa=op.dfa,
                    allowed=op.allowed,
                    emit_filter=op.emit_filter,
                    macros={
                        tag: dict(relation.adjacency(op.direction))
                        for tag, relation in op.macros.items()
                    },
                )
                pool = ProcessPoolExecutor(
                    max_workers=granted,
                    initializer=init_worker,
                    initargs=(context,),
                    mp_context=_mp_context(),
                )
                task = timed_search_chunk
            except (OSError, RuntimeError, PicklingError):
                # Everything pool construction actually raises when process
                # pools are unusable: spawn failures (OSError), a missing
                # start method (RuntimeError), unpicklable init arguments.
                if pool is not None:
                    pool.shutdown(wait=False, cancel_futures=True)
                pool = None
        if pool is None:
            pool = ThreadPoolExecutor(max_workers=granted)
            task = local
    try:
        yield pool, task, local
    finally:
        pool.shutdown(wait=True)


def _stitch_chunk(tracer: Tracer, search: Span, record: ChunkRecord) -> None:
    """Adopt a worker process's chunk record as a child span of the search.

    Worker and parent both read ``CLOCK_MONOTONIC``, so the timestamps are
    directly comparable; the start is still clamped into the search span's
    window to keep profiles well formed against clock weirdness under exotic
    start methods."""
    parent, started, ended, seeds, pairs = record
    started = max(started, search.start)
    tracer.record(
        "exec.frontier_chunk",
        started,
        max(started, ended),
        parent=SpanContext.from_tuple(parent),
        attrs={"seeds": seeds, "pairs": pairs},
        thread="worker",
    )


def _iter_frontier_parallel(
    plan: PhysicalPlan,
    op: FrontierSearchOp,
    granted: int,
    release: Callable[[], None] | None,
    span: Span,
) -> Iterator[tuple[str, str]]:
    tracer = get_tracer()
    parent = span.context.as_tuple() if tracer.enabled else None
    chunks = _chunked(op.seeds, granted * 4)
    with _worker_pool(plan, op, granted) as (pool, task, local):
        futures = [pool.submit(task, (chunk, parent)) for chunk in chunks]
        chunk_of = {future: chunk for future, chunk in zip(futures, chunks)}
        if release is not None:
            # Completion-driven, not consumption-driven: the budget frees as
            # soon as the pool finishes, however slowly the stream drains.
            remaining = len(futures)
            countdown = threading.Lock()

            def on_done(_finished: "Future[ChunkResult]") -> None:
                nonlocal remaining
                with countdown:
                    remaining -= 1
                    last = remaining == 0
                if last:
                    release()

            for future in futures:
                future.add_done_callback(on_done)
        try:
            pending = futures if plan.executor.ordered else as_completed(futures)
            for future in pending:
                try:
                    pairs, record = future.result()
                except (OSError, RuntimeError, PicklingError):
                    # A worker died spawning or unpickling (BrokenProcessPool
                    # is a RuntimeError): the pool is gone, but the chunk is
                    # not — recompute it in-process.
                    span.set("fallback", "local")
                    pairs, record = local((chunk_of[future], parent))
                if record is not None and tracer.enabled:
                    _stitch_chunk(tracer, span, record)
                yield from pairs
        finally:
            for future in futures:
                future.cancel()

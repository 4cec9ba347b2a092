"""The multi-run batch query service.

A :class:`QueryService` is the serving-layer counterpart of
:class:`~repro.core.engine.ProvenanceQueryEngine`: where an engine wraps one
specification, the service hosts *many* registered runs (typically loaded
from the JSON files written by ``repro derive``) and answers *batches* of
pairwise / all-pairs / reachability requests against them, all through one
shared bounded :class:`~repro.service.cache.IndexCache`.

What the service adds over bare engines:

* **cross-run, cross-query index sharing** — runs of the same grammar share
  one engine (keyed by specification fingerprint), and equivalent query
  spellings share one cached index, so a batch that asks ``a|b`` of run 1
  and ``b|a`` of run 2 builds a single index;
* **batch-level build deduplication** — before evaluation, the distinct
  ``(spec, query)`` pairs of a batch are pre-built once (concurrently), so
  a thousand requests sharing three queries pay for three index builds;
* **concurrent evaluation** — independent requests of a batch are evaluated
  on a thread pool; results come back in request order, and one failing
  request becomes an error *result* instead of aborting the batch;
* **warm restarts** — with ``store_dir=`` the cache gains a persistent disk
  tier (:mod:`repro.store`) and the run registry survives the process, so a
  restarted service answers previously-seen queries without rebuilding a
  single index or plan.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Any, Iterable, Iterator, Mapping, Sequence

import dataclasses

from repro.core.decomposition import label_routed_subtrees, warm_frontier_dfa
from repro.core.engine import ProvenanceQueryEngine
from repro.core.exec import ExecutorConfig, WorkerBudget
from repro.errors import ReproError
from repro.obs import SpanContext, clock, get_registry, get_tracer
from repro.service.cache import CacheStats, IndexCache
from repro.store import IndexStore
from repro.service.requests import (
    BatchFormatError,
    QueryRequest,
    QueryResult,
    request_from_dict,
)
from repro.workflow.run import Run
from repro.workflow.serialization import load_run

__all__ = ["QueryService"]

_DEFAULT_CACHE_ENTRIES = 512


def _default_workers() -> int:
    return min(32, (os.cpu_count() or 1) + 4)


def _same_run(left: Run, right: Run) -> bool:
    """Content equality of two runs (grammar by fingerprint, graph by parts);
    object identity and display names do not matter."""
    return (
        left.spec.fingerprint == right.spec.fingerprint
        and left.nodes == right.nodes
        and left.edges == right.edges
    )


class QueryService:
    """Serve query batches over a set of registered runs (see module notes).

    Parameters
    ----------
    cache:
        The shared index cache; a bounded default is created when omitted.
        Passing an explicit cache lets several services (or services plus
        standalone engines) pool their per-query work.
    max_workers:
        Thread-pool width for batch evaluation and index pre-building.
    store_dir / store:
        A persistent tier (:class:`~repro.store.IndexStore`, or a directory
        to create one in).  The store backs the index cache (memory → disk →
        build) *and* persists the run registry: previously registered runs —
        labels included, so no re-labeling — are re-registered on
        construction, which is what lets a restarted service answer its first
        previously-seen query with zero index or plan rebuilds.
    executor:
        The default :class:`~repro.core.exec.ExecutorConfig` for unsafe-query
        evaluation (frontier direction, per-query parallel fan-out, merge
        order).  The service attaches its own :class:`WorkerBudget` of
        ``max_workers`` slots, *shared with the batch pool*: each in-flight
        batch request leases one slot, and a parallel frontier execution
        leases its fan-out from the free remainder — so a saturated batch
        degrades frontier searches to serial instead of oversubscribing.
    """

    def __init__(
        self,
        *,
        cache: IndexCache | None = None,
        max_workers: int | None = None,
        store_dir: str | Path | None = None,
        store: IndexStore | None = None,
        executor: ExecutorConfig | None = None,
    ) -> None:
        if store is None and store_dir is not None:
            store = IndexStore(store_dir)
        if cache is None:
            cache = IndexCache(_DEFAULT_CACHE_ENTRIES, store=store)
        elif store is not None:
            # Raises if the cache already persists in a *different* directory:
            # splitting the run registry and the index entries across two
            # stores would silently break the warm-restart contract.  For the
            # same directory the cache keeps its original instance — adopt it
            # so the registry and the entries share one set of counters.
            cache.attach_store(store)
            store = cache.store
        elif cache.store is not None:
            # No explicit store, but the cache has one: keep the registry and
            # the entries together in that store.
            store = cache.store
        self._store = store
        self._cache = cache
        self._max_workers = max_workers if max_workers is not None else _default_workers()
        if self._max_workers < 1:
            raise ValueError("max_workers must be at least 1")
        self._budget = WorkerBudget(self._max_workers)
        self._executor = self._with_budget(executor or ExecutorConfig())
        self._lock = threading.Lock()
        self._runs: dict[str, Run] = {}  # guarded-by: _lock
        self._engines: dict[str, ProvenanceQueryEngine] = {}  # guarded-by: _lock
        # The persisted registry is adopted by id only (filenames, no
        # parsing); run content loads lazily on first use, so restart cost
        # does not grow with the registry.
        self._pending_run_ids: set[str] = (  # guarded-by: _lock
            set(store.run_ids()) if store is not None else set()
        )
        # Observability: request latencies go to a histogram; state that
        # already lives behind the cache's and budget's own locks is polled
        # through a collector instead of being counted twice.  A newer
        # service instance re-registers the collector name and the snapshot
        # follows it (exactly the registry's replacement semantics).
        registry = get_registry()
        self._latency = registry.histogram(
            "repro_service_request_seconds", "batch request latency"
        )
        registry.register_collector("query_service", self._collect_metrics)

    def _collect_metrics(self) -> dict[str, float]:
        """The polled gauges of this service's live state."""
        stats = self._cache.stats
        return {
            "repro_cache_entries": float(stats.entries),
            "repro_cache_total_cost": float(stats.total_cost),
            "repro_worker_budget_capacity": float(self._budget.capacity),
            "repro_worker_budget_in_use": float(self._budget.in_use),
        }

    def _with_budget(self, config: ExecutorConfig) -> ExecutorConfig:
        """A copy of ``config`` leasing its fan-out from this service's
        shared worker budget (an existing budget is respected)."""
        if config.budget is not None:
            return config
        return dataclasses.replace(config, budget=self._budget)

    @property
    def executor(self) -> ExecutorConfig:
        """The default executor configuration (budget attached)."""
        return self._executor

    # -- registration ------------------------------------------------------------

    def register_run(self, run: Run, run_id: str | None = None) -> str:
        """Register a run under ``run_id`` (default ``run-<n>``); returns the id.

        Re-registering the *same* run content under an existing id is a
        no-op returning the id (so restarting against a persistent registry
        and then replaying the original registrations is idempotent); a
        *different* run under a taken id still raises.
        """
        return self._register(run, run_id, persist=True)

    def _register(self, run: Run, run_id: str | None, persist: bool) -> str:
        if run_id is not None:
            # Materialize a same-named persisted run first, so the content
            # equality check below compares against it instead of silently
            # shadowing (and overwriting) what the registry already holds.
            self._materialize(run_id)
        with self._lock:
            if run_id is None:
                taken = set(self._runs) | self._pending_run_ids
                counter = len(taken) + 1
                while f"run-{counter}" in taken:
                    counter += 1
                run_id = f"run-{counter}"
            existing = self._runs.get(run_id)
            if existing is not None:
                if _same_run(existing, run):
                    return run_id
                raise ValueError(f"run id {run_id!r} is already registered")
            fingerprint = run.spec.fingerprint
            if fingerprint not in self._engines:
                self._engines[fingerprint] = ProvenanceQueryEngine(
                    run.spec, cache=self._cache
                )
            self._runs[run_id] = run
        # Build the packed interning table once at registration, outside the
        # lock: every packed-kernel join/closure reuses this memo, so the
        # first query never pays the interning cost.
        _ = run.packed
        if persist and self._store is not None:
            self._store.save_run(run_id, run)
        return run_id

    def _materialize(self, run_id: str) -> Run | None:
        """Load a pending persisted run into the registry (idempotent).

        An unreadable artifact drops out of the pending set — the store
        counted the corruption — so the service keeps serving everything
        else; concurrent loads are harmless because registration of
        identical content is a no-op.
        """
        with self._lock:
            run = self._runs.get(run_id)
            pending = run is None and run_id in self._pending_run_ids
        if run is not None or not pending:
            return run
        loaded = self._store.load_run(run_id) if self._store is not None else None
        with self._lock:
            self._pending_run_ids.discard(run_id)
        if loaded is None:
            return None
        self._register(loaded, run_id, persist=False)
        with self._lock:
            return self._runs.get(run_id)

    def load_run_file(self, path: str | Path, run_id: str | None = None) -> str:
        """Load a run JSON file (see ``repro derive``) and register it.

        The default id is the file stem, so ``runs/r7.json`` registers as
        ``r7``.
        """
        path = Path(path)
        return self.register_run(load_run(path), run_id=run_id or path.stem)

    def run_ids(self) -> tuple[str, ...]:
        """All registered run ids, including persisted runs not yet loaded."""
        with self._lock:
            return tuple(sorted(set(self._runs) | self._pending_run_ids))

    def get_run(self, run_id: str) -> Run:
        with self._lock:
            run = self._runs.get(run_id)
        if run is None:
            run = self._materialize(run_id)
        if run is None:
            raise KeyError(
                f"unknown run id {run_id!r}; registered runs: {list(self.run_ids())}"
            )
        return run

    def engine_for(self, run_id: str) -> ProvenanceQueryEngine:
        """The shared engine serving the given run's specification."""
        run = self.get_run(run_id)
        with self._lock:
            return self._engines[run.spec.fingerprint]

    # -- cache -------------------------------------------------------------------

    @property
    def cache(self) -> IndexCache:
        return self._cache

    @property
    def store(self) -> IndexStore | None:
        """The persistent tier backing this service, when configured."""
        return self._store

    @property
    def cache_stats(self) -> CacheStats:
        return self._cache.stats

    def warm(self, run_id: str, queries: Iterable[str]) -> dict[str, str]:
        """Pre-build the per-query state of the given queries for a run's
        grammar and report what happened, query by query.

        Safe queries get their :class:`~repro.core.query_index.QueryIndex`
        cached; unsafe queries get their decomposition plan cached plus the
        indexes of exactly the safe subqueries the evaluator's cost routing
        will send to the labeling engine on this run, so the first real
        request pays no per-query build either way.  The returned mapping
        holds one status per query: ``"safe"``, ``"unsafe: ..."``, or
        ``"error: ..."`` for queries the library rejects (typos included —
        only :class:`~repro.errors.ReproError` is caught, anything else is a
        bug and propagates).
        """
        run = self.get_run(run_id)
        return {query: self._probe(run, query) for query in queries}

    def _probe(self, run: Run, query: str) -> str:
        """Warm the cache for one query and describe the outcome.

        Expected per-query failures (:class:`~repro.errors.ReproError`:
        syntax errors, bad queries) become an ``"error: ..."`` status — they
        resurface as error results when the query is actually evaluated —
        while unexpected exceptions propagate instead of being swallowed.
        """
        spec = run.spec
        try:
            if self._cache.safety(spec, query).is_safe:
                self._cache.index(spec, query)
                return "safe"
            plan = self._cache.plan(spec, query)
            routed = label_routed_subtrees(plan, run)
            for subtree in routed:
                self._cache.index(spec, subtree)
            # Memoize the frontier strategy's macro DFAs — forward and
            # reversed, so backward searches restart warm too — for this
            # run's routing, then re-account/persist the entry so the DFAs
            # count against the cache budget and survive restarts with the
            # plan.
            warm_frontier_dfa(plan, run)
            warm_frontier_dfa(plan, run, direction="backward")
            self._cache.sync(spec, query)
            warmed = len(routed)
            return (
                f"unsafe: plan cached, {warmed} safe "
                f"subquer{'y' if warmed == 1 else 'ies'} warmed"
            )
        except ReproError as error:
            return f"error: {error}"

    # -- evaluation --------------------------------------------------------------

    def execute(self, request: QueryRequest | Mapping[str, Any]) -> QueryResult:
        """Evaluate one request, returning an error result on failure."""
        return self._execute(self._coerce(request), position=0)

    def run_batch(
        self, requests: Iterable[QueryRequest | Mapping[str, Any]]
    ) -> list[QueryResult]:
        """Evaluate a batch concurrently; results are in request order."""
        return list(self.iter_batch(requests))

    def iter_batch(
        self, requests: Iterable[QueryRequest | Mapping[str, Any]]
    ) -> Iterator[QueryResult]:
        """Stream batch results in request order as they become available.

        Unlike :meth:`run_batch` this never holds the whole result list:
        each result is yielded as soon as it (and its predecessors) finish.
        """
        batch = [self._coerce(request) for request in requests]
        if not batch:
            return iter(())

        def generate() -> Iterator[QueryResult]:
            tracer = get_tracer()
            with tracer.span("service.batch", requests=len(batch)) as batch_span:
                # Pool threads carry no span stack of their own: each request
                # is handed the batch span's context and re-attaches it, so
                # its service.request span nests here instead of floating.
                parent = batch_span.context if tracer.enabled else None
                pool = ThreadPoolExecutor(max_workers=self._max_workers)
                try:
                    self._prebuild(batch, pool)
                    futures = [
                        pool.submit(self._execute, request, position, parent)
                        for position, request in enumerate(batch)
                    ]
                    for future in futures:
                        yield future.result()
                finally:
                    pool.shutdown(wait=True)

        return generate()

    def stream_pairs(
        self,
        request: QueryRequest | Mapping[str, Any],
        *,
        executor: ExecutorConfig | None = None,
    ) -> Iterator[tuple[str, str]]:
        """Stream the matching pairs of one ``allpairs`` request.

        Unlike :meth:`execute`, the pairs are yielded as the evaluator finds
        them (unsorted, each exactly once) without materializing the result
        set, so callers can cap, paginate or pipe arbitrarily large answers.
        Unsafe queries stream too, through the executor layer's per-seed
        frontier search (direction-aware, optionally fanned across a worker
        pool — memory bounded by the reachable region, not the result; see
        :meth:`ProvenanceQueryEngine.evaluate_iter`).  ``executor`` overrides
        the service default for this call; either way the fan-out leases its
        workers from the budget shared with the batch pool.  Failures raise
        instead of becoming error results, since there is no result record
        to carry them; request validation, run lookup, query parsing and the
        safety check all happen eagerly, before the first pair is drawn.
        """
        request = self._coerce(request)
        if request.op != "allpairs":
            raise BatchFormatError(
                f"stream_pairs only supports op 'allpairs', got {request.op!r}"
            )
        run = self.get_run(request.run)
        engine = self.engine_for(request.run)
        config = self._with_budget(executor) if executor is not None else self._executor
        return engine.evaluate_iter(
            run,
            request.query,
            list(request.sources) if request.sources is not None else None,
            list(request.targets) if request.targets is not None else None,
            use_reachability_filter=request.use_reachability_filter,
            executor=config,
        )

    def _coerce(self, request: QueryRequest | Mapping[str, Any]) -> QueryRequest:
        if isinstance(request, QueryRequest):
            return request
        return request_from_dict(dict(request))

    def _prebuild(self, batch: Sequence[QueryRequest], pool: ThreadPoolExecutor) -> None:
        """Build each distinct ``(spec, canonical query)`` of the batch once."""
        work: dict[tuple[str, str], tuple[Run, str]] = {}
        for request in batch:
            if request.query is None:
                continue
            try:
                run = self.get_run(request.run)
                key = IndexCache.key_for(run.spec, request.query)
            except Exception:
                continue  # unknown run / unparsable query: reported per request
            if key not in work and not self._cache.contains_key(key):
                work[key] = (run, request.query)
        if not work:
            return
        for future in [
            pool.submit(self._probe, run, query) for run, query in work.values()
        ]:
            try:
                future.result()
            except Exception:
                # Pre-building is best-effort: whatever went wrong resurfaces
                # as that request's error result during evaluation.
                pass

    def _execute(
        self,
        request: QueryRequest,
        position: int,
        parent: SpanContext | None = None,
    ) -> QueryResult:
        request_id = request.request_id if request.request_id is not None else str(position)
        tracer = get_tracer()
        started = clock.now()

        def fail(message: str) -> QueryResult:
            elapsed = clock.now() - started
            self._latency.observe(elapsed)
            return QueryResult(
                request_id=request_id,
                op=request.op,
                run=request.run,
                ok=False,
                error=message,
                elapsed=elapsed,
            )

        with tracer.attach(parent), tracer.span(
            "service.request", op=request.op, run=request.run
        ) as span:
            try:
                run = self.get_run(request.run)
            except KeyError as error:
                span.set("ok", False)
                return fail(str(error).strip('"'))
            engine = self.engine_for(request.run)
            try:
                answer: bool | None = None
                pairs: tuple[tuple[str, str], ...] | None = None
                if request.op == "reachability":
                    answer = engine.reachable(run, request.source, request.target)
                elif request.op == "pairwise":
                    if engine.is_safe(request.query):
                        answer = engine.pairwise(
                            run, request.source, request.target, request.query
                        )
                    else:
                        answer = (request.source, request.target) in engine.evaluate(
                            run,
                            request.query,
                            [request.source],
                            [request.target],
                            use_reachability_filter=request.use_reachability_filter,
                        )
                else:  # allpairs — the only remaining validated op
                    # Materializing anyway, so let evaluate() cost-route the
                    # unsafe remainder instead of forcing the streaming path.
                    # The request leases one budget slot for its own thread;
                    # a parallel frontier execution inside leases its fan-out
                    # from whatever the rest of the batch leaves free.
                    with self._budget.lease(1):
                        matches = engine.evaluate(
                            run,
                            request.query,
                            list(request.sources) if request.sources is not None else None,
                            list(request.targets) if request.targets is not None else None,
                            use_reachability_filter=request.use_reachability_filter,
                            executor=self._executor,
                        )
                    pairs = tuple(sorted(matches))
            except Exception as error:
                span.set("ok", False)
                return fail(f"{type(error).__name__}: {error}")
            span.set("ok", True)
            elapsed = clock.now() - started
            self._latency.observe(elapsed)
            return QueryResult(
                request_id=request_id,
                op=request.op,
                run=request.run,
                ok=True,
                answer=answer,
                pairs=pairs,
                elapsed=elapsed,
            )

    # -- reporting ---------------------------------------------------------------

    def describe(self) -> str:
        with self._lock:
            runs = len(set(self._runs) | self._pending_run_ids)
            engines = len(self._engines)
        executor = self._executor
        return (
            f"QueryService({runs} runs, {engines} grammars, "
            f"workers={self._max_workers}, "
            f"executor=direction:{executor.direction}/fanout:{executor.workers}) "
            f"{self._cache.stats.describe()}"
        )

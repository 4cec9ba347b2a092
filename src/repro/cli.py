"""Command-line interface: ``repro`` (or ``python -m repro``).

Subcommands cover the typical workflow of the library:

* ``repro spec``      — inspect a built-in or stored specification,
* ``repro derive``    — derive a labeled run and store it as JSON,
* ``repro safety``    — check whether a query is safe for a specification,
* ``repro query``     — answer a pairwise or all-pairs query over a stored run,
* ``repro batch``     — stream a JSONL batch of queries through the query service,
* ``repro trace``     — evaluate a query under the tracer and write a Chrome
  trace-event JSON (loads in Perfetto / ``chrome://tracing``),
* ``repro metrics``   — print the metrics registry in Prometheus text
  exposition format, optionally after replaying a JSONL batch,
* ``repro store``     — manage a persistent index store (build/warm/ls/stats/gc),
* ``repro cache``     — inspect a warmed service's cache/store statistics,
* ``repro bench``     — benchmark scenarios and trajectory gating (``run`` /
  ``gate`` / ``check`` / ``list`` / ``figures``; same as ``python -m repro.bench``),
* ``repro lint``      — the project's own static-analysis rules
  (:mod:`repro.analysis`), with ``--json`` output and a committed baseline,
* ``repro analyze``   — the whole-program semantic model behind the lint
  rules (``call-graph`` / ``lock-graph`` / ``effects``), with ``--json``
  and Graphviz ``--dot`` output.

Library errors (unsafe queries, malformed regexes, broken input files) exit
non-zero with a one-line ``repro: error: ...`` message instead of a
traceback, so the CLI composes cleanly in shell pipelines and CI.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from repro import __version__
from repro.core.engine import ProvenanceQueryEngine
from repro.datasets.myexperiment import bioaid_specification, qblast_specification
from repro.datasets.paper_example import paper_specification
from repro.datasets.synthetic import generate_synthetic_specification
from repro.errors import ReproError
from repro.obs import (
    NULL_TRACER,
    ExecutionProfile,
    Tracer,
    chrome_trace,
    get_registry,
    prometheus_text,
    use_tracer,
)
from repro.service import IndexCache, QueryService, read_requests_jsonl, result_to_dict
from repro.store import IndexStore
from repro.workflow.run import Run
from repro.workflow.serialization import (
    load_run,
    load_specification,
    save_run,
    save_specification,
)
from repro.workflow.spec import Specification

__all__ = ["main"]

_BUILTIN_SPECS = {
    "paper-example": paper_specification,
    "bioaid": bioaid_specification,
    "qblast": qblast_specification,
}


def _resolve_spec(name_or_path: str) -> Specification:
    """A built-in specification name, a JSON file, or ``synthetic:<size>``."""
    if name_or_path in _BUILTIN_SPECS:
        return _BUILTIN_SPECS[name_or_path]()
    if name_or_path.startswith("synthetic:"):
        size = int(name_or_path.split(":", 1)[1])
        return generate_synthetic_specification(size)
    path = Path(name_or_path)
    if path.exists():
        return load_specification(path)
    raise SystemExit(
        f"unknown specification {name_or_path!r}; use one of {sorted(_BUILTIN_SPECS)}, "
        "'synthetic:<size>', or a path to a specification JSON file"
    )


def _cmd_spec(args: argparse.Namespace) -> int:
    spec = _resolve_spec(args.spec)
    print(spec.describe())
    if args.output:
        save_specification(spec, args.output)
        print(f"written to {args.output}")
    return 0


def _cmd_derive(args: argparse.Namespace) -> int:
    spec = _resolve_spec(args.spec)
    engine = ProvenanceQueryEngine(spec)
    run = engine.derive(seed=args.seed, target_edges=args.edges)
    print(run.describe())
    if args.output:
        save_run(run, args.output)
        print(f"written to {args.output}")
    return 0


def _cmd_safety(args: argparse.Namespace) -> int:
    spec = _resolve_spec(args.spec)
    engine = ProvenanceQueryEngine(spec)
    report = engine.safety_report(args.query)
    if report.is_safe:
        print(f"SAFE: {args.query!r} is safe for {spec.name!r}")
        return 0
    modules = sorted({violation.module for violation in report.violations})
    print(f"UNSAFE: {args.query!r} is not safe for {spec.name!r}")
    print(f"  modules with execution-dependent behaviour: {modules}")
    plan = engine.plan(args.query)
    print(f"  {plan.describe()}")
    return 1


def _cmd_query(args: argparse.Namespace) -> int:
    if (args.source is None) != (args.target is None):
        given, missing = ("--source", "--target") if args.target is None else ("--target", "--source")
        raise SystemExit(
            f"repro query: {given} also needs {missing} (a pairwise query names both "
            "endpoints; use --sources/--targets for one-sided all-pairs lists)"
        )
    run = load_run(args.run)
    engine = ProvenanceQueryEngine(run.spec)
    observing = bool(args.profile or args.trace_json or args.save_profile)
    if not observing:
        return _evaluate_query(args, run, engine)
    tracer = Tracer()
    with use_tracer(tracer):
        code = _evaluate_query(args, run, engine)
    _emit_query_observability(args, tracer, run_id=Path(args.run).stem)
    return code


def _emit_query_observability(
    args: argparse.Namespace, tracer: Tracer, *, run_id: str
) -> None:
    """Profile/trace output for ``repro query``; everything human-oriented
    goes to stderr so piped pair output stays pure."""
    spans = tracer.spans()
    if args.trace_json:
        document = chrome_trace(spans, process_name=f"repro query {run_id}")
        Path(args.trace_json).write_text(json.dumps(document) + "\n")
        print(f"trace: {len(spans)} spans -> {args.trace_json}", file=sys.stderr)
    if args.profile or args.save_profile:
        profile = ExecutionProfile.from_spans(
            spans, query=args.query, run=run_id, meta={"command": "query"}
        )
        if args.profile:
            print(profile.render(), file=sys.stderr)
        if args.save_profile:
            store = IndexStore(args.save_profile)
            store.save_profile(profile)
            print(f"profile saved to store {args.save_profile}", file=sys.stderr)


def _evaluate_query(
    args: argparse.Namespace, run: Run, engine: ProvenanceQueryEngine
) -> int:
    if args.source is not None:
        if args.stream:
            raise SystemExit(
                "repro query: --stream only applies to all-pairs queries, not "
                "--source/--target pairwise queries"
            )
        answer = (
            engine.pairwise(run, args.source, args.target, args.query)
            if engine.is_safe(args.query)
            else (args.source, args.target) in engine.evaluate(
                run, args.query, [args.source], [args.target]
            )
        )
        print(f"{args.source} -[{args.query}]-> {args.target} : {answer}")
        return 0
    l1 = args.sources.split(",") if args.sources else None
    l2 = args.targets.split(",") if args.targets else None
    from repro.core.exec import ExecutorConfig

    executor = ExecutorConfig(direction=args.direction, workers=args.workers)
    if args.stream:
        # Pairs go to stdout as the evaluator finds them (unsorted); the
        # count goes to stderr so piped output stays pure.
        count = 0
        for source, target in engine.evaluate_iter(
            run, args.query, l1, l2, executor=executor
        ):
            print(
                json.dumps([source, target]) if args.json else f"{source} -> {target}",
                flush=True,
            )
            count += 1
        print(f"{count} matching pairs", file=sys.stderr)
        return 0
    matches = engine.evaluate(
        run, args.query, l1, l2, strategy=args.strategy, executor=executor
    )
    if args.json:
        print(json.dumps(sorted(matches)))
    else:
        print(f"{len(matches)} matching pairs")
        for source, target in sorted(matches)[: args.limit]:
            print(f"  {source} -> {target}")
        if len(matches) > args.limit:
            print(f"  ... ({len(matches) - args.limit} more; use --json for all)")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    run = load_run(args.run)
    engine = ProvenanceQueryEngine(run.spec)
    l1 = args.sources.split(",") if args.sources else None
    l2 = args.targets.split(",") if args.targets else None
    from repro.core.exec import ExecutorConfig

    executor = ExecutorConfig(direction=args.direction, workers=args.workers)
    tracer = Tracer()
    with use_tracer(tracer):
        matches = engine.evaluate(run, args.query, l1, l2, executor=executor)
    spans = tracer.spans()
    document = chrome_trace(
        spans, process_name=f"repro trace {Path(args.run).stem}"
    )
    text = json.dumps(document)
    if args.output == "-":
        print(text)
    else:
        Path(args.output).write_text(text + "\n")
    print(
        f"repro trace: {len(matches)} matching pairs, {len(spans)} spans"
        + ("" if args.output == "-" else f" -> {args.output}"),
        file=sys.stderr,
    )
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    if args.requests:
        service = QueryService(
            cache=IndexCache(max_entries=args.cache_entries, store=None),
            store_dir=args.store,
        )
        _register_cli_runs(service, args.run)
        if not service.run_ids():
            raise SystemExit(
                "repro metrics --requests needs at least one run (--run RUN.json, "
                "or --store pointing at a store with a persisted run registry)"
            )
        request_source = (
            sys.stdin if args.requests == "-" else Path(args.requests).open()
        )
        # --trace swaps in a recording tracer so span counters tick too;
        # installing the null tracer otherwise is a no-op re-install.
        tracer = Tracer() if args.trace else NULL_TRACER
        try:
            with use_tracer(tracer):
                for _ in service.iter_batch(read_requests_jsonl(request_source)):
                    pass
        finally:
            if request_source is not sys.stdin:
                request_source.close()
    print(prometheus_text(get_registry()), end="")
    return 0


def _parse_run_entry(entry: str) -> tuple[str | None, str]:
    """Split one ``--run [ID=]PATH`` flag into ``(run id, path)``.

    A bare path wins even when the file name itself contains ``=``
    (``runs/a=b.json`` is a path, not id ``runs/a`` + file ``b.json``);
    otherwise everything before the *first* ``=`` is the id, so an explicit
    id still composes with ``=`` in the file name (``mine=runs/a=b.json``).
    """
    if "=" not in entry or Path(entry).exists():
        return None, entry
    run_id, _, path = entry.partition("=")
    return run_id or None, path


def _register_cli_runs(service: QueryService, entries: list[str]) -> None:
    for entry in entries:
        run_id, path = _parse_run_entry(entry)
        service.load_run_file(path, run_id=run_id)


def _cmd_batch(args: argparse.Namespace) -> int:
    service = QueryService(
        cache=IndexCache(max_entries=args.cache_entries, store=None),
        max_workers=args.workers,
        store_dir=args.store,
    )
    _register_cli_runs(service, args.run)
    if not service.run_ids():
        raise SystemExit(
            "repro batch needs at least one run: pass --run RUN.json, or --store "
            "pointing at a store with a persisted run registry"
        )

    # Both sources hand raw lines (trailing newlines and all) to
    # read_requests_jsonl, which normalizes whitespace and skips blanks —
    # stdin and file input see identical parsing, and files stream instead
    # of being read whole.
    request_source = sys.stdin if args.requests == "-" else Path(args.requests).open()
    requests = read_requests_jsonl(request_source)

    output = open(args.output, "w") if args.output else sys.stdout
    ok_count = failed = 0
    try:
        for result in service.iter_batch(requests):
            print(json.dumps(result_to_dict(result)), file=output, flush=True)
            if result.ok:
                ok_count += 1
            else:
                failed += 1
    finally:
        if args.output:
            output.close()
        if request_source is not sys.stdin:
            request_source.close()
    stats = service.cache_stats
    print(
        f"repro batch: {ok_count + failed} requests ({failed} failed), "
        f"{stats.index_builds} index builds, cache hit rate {stats.hit_rate:.1%}",
        file=sys.stderr,
    )
    if args.stats_json:
        # A machine-readable run summary, so CI and scripts assert on fields
        # (e.g. index_builds == 0 after a warm restart) instead of grepping
        # the human-oriented stderr line.
        summary = dataclasses.asdict(stats)
        summary.update(
            requests=ok_count + failed,
            ok=ok_count,
            failed=failed,
            hit_rate=stats.hit_rate,
        )
        # The registry snapshot rides along under its own key: process-wide
        # counters (cache hits/misses, store reads/writes, spans recorded)
        # plus live collector samples, without disturbing the flat
        # CacheStats schema scripts already assert on.
        summary["metrics"] = get_registry().snapshot()
        Path(args.stats_json).write_text(json.dumps(summary, sort_keys=True) + "\n")
    return 0 if failed == 0 else 1


def _cmd_store_build(args: argparse.Namespace) -> int:
    spec = _resolve_spec(args.spec)
    store = IndexStore(args.dir)
    cache = IndexCache(store=store)
    for query in args.queries:
        try:
            if cache.safety(spec, query).is_safe:
                cache.index(spec, query)
                status = "safe: index stored"
            else:
                cache.plan(spec, query)
                status = "unsafe: safety verdict and plan stored"
        except ReproError as error:
            status = f"error: {error}"
        print(f"  {query} -> {status}")
    print(store.describe())
    return 0


def _cmd_store_warm(args: argparse.Namespace) -> int:
    service = QueryService(store_dir=args.dir)
    _register_cli_runs(service, args.run)
    run_ids = service.run_ids()
    if not run_ids:
        raise SystemExit(
            "repro store warm needs at least one run (--run RUN.json, or a store "
            "with a persisted run registry)"
        )
    for run_id in run_ids:
        print(f"run {run_id}:")
        try:
            statuses = service.warm(run_id, args.queries)
        except KeyError:
            print("  (skipped: persisted run artifact is unreadable)")
            continue
        for query, status in statuses.items():
            print(f"  {query} -> {status}")
    print(service.cache.describe())
    print(service.store.describe())
    return 0


def _existing_store(path: str) -> IndexStore:
    """A store for read-only commands: a missing directory is a user error
    (likely a typo), not a cue to create an empty store."""
    if not Path(path).is_dir():
        raise SystemExit(f"no store directory at {path!r}")
    return IndexStore(path)


def _cmd_store_ls(args: argparse.Namespace) -> int:
    store = _existing_store(args.dir)
    entries = store.entries()
    for info in entries:
        kind = "safe  " if info.is_safe else "unsafe"
        plan = "+plan" if info.has_plan else "     "
        print(f"{info.fingerprint[:12]}  {kind} {plan} {info.bytes:>8}B  {info.query}")
    run_ids = store.run_ids()
    print(f"{len(entries)} entries, {len(run_ids)} runs" + (f": {run_ids}" if run_ids else ""))
    return 0


def _cmd_store_stats(args: argparse.Namespace) -> int:
    store = _existing_store(args.dir)
    entries = store.entries()
    fingerprints: dict[str, int] = {}
    safe = plans = 0
    for info in entries:
        fingerprints[info.fingerprint] = fingerprints.get(info.fingerprint, 0) + 1
        safe += info.is_safe
        plans += info.has_plan
    print(f"store         : {store.root}")
    print(f"entries       : {len(entries)} ({safe} safe, {len(entries) - safe} unsafe, {plans} with plans)")
    print(f"entry bytes   : {store.total_bytes()}")
    print(f"runs          : {len(store.run_ids())}")
    print(f"grammars      : {len(fingerprints)}")
    for fingerprint, count in sorted(fingerprints.items()):
        print(f"  {fingerprint[:16]}...: {count} entries")
    return 0


def _cmd_store_gc(args: argparse.Namespace) -> int:
    store = _existing_store(args.dir)
    if args.max_bytes is None and not args.orphans:
        raise SystemExit(
            "repro store gc needs --max-bytes (size-budgeted LRU sweep), "
            "--orphans (drop entries of unregistered grammars), or both"
        )
    if args.orphans:
        result = store.gc_orphans()
        print(
            f"orphans: removed {result.removed} entries ({result.freed_bytes} bytes); "
            f"{result.remaining_bytes} bytes remain"
        )
    if args.max_bytes is not None:
        result = store.gc(args.max_bytes)
        print(
            f"lru: removed {result.removed} entries ({result.freed_bytes} bytes); "
            f"{result.remaining_bytes} bytes remain"
        )
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    service = QueryService(store_dir=args.store)
    _register_cli_runs(service, args.run)
    if args.warm:
        run_ids = service.run_ids()
        if not run_ids:
            raise SystemExit("repro cache --warm needs at least one registered run")
        for run_id in run_ids:
            try:
                service.warm(run_id, args.warm)
            except KeyError:
                continue  # unreadable persisted run: nothing to warm against
    stats = service.cache_stats
    if args.json:
        record = dataclasses.asdict(stats)
        record["hit_rate"] = stats.hit_rate
        print(json.dumps(record, sort_keys=True))
        return 0
    print(service.describe())
    print(service.cache.describe())
    if service.store is not None:
        print(service.store.describe())
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.bench.__main__ import main as bench_main

    return bench_main(list(args.args))


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis import all_rules, analyze_paths
    from repro.analysis.baseline import Baseline

    rules = all_rules()
    if args.list_rules:
        for rule in rules:
            print(f"{rule.id}  {rule.name}: {rule.description}")
        return 0
    if args.select:
        wanted = {token.strip() for token in args.select.split(",") if token.strip()}
        known = {rule.id for rule in rules}
        unknown = wanted - known
        if unknown:
            raise ValueError(
                f"unknown rule id(s) {sorted(unknown)}; known: {sorted(known)}"
            )
        rules = [rule for rule in rules if rule.id in wanted]
    paths = [Path(p) for p in args.paths] if args.paths else [Path("src/repro")]
    cache = Path(args.semantic_cache) if args.semantic_cache else None
    result = analyze_paths(
        paths, root=Path.cwd(), rules=rules, semantic_cache=cache
    )
    findings = result.findings
    baseline_path = Path(args.baseline)
    if args.update_baseline:
        Baseline.from_findings(findings).dump(baseline_path)
        print(f"wrote baseline with {len(findings)} finding(s) to {baseline_path}")
        return 0
    delta = Baseline.load(baseline_path).apply(findings)
    if args.json:
        status = {id(f): "new" for f in delta.new}
        payload = {
            "version": 1,
            "rules": [rule.id for rule in rules],
            "summary": {
                "total": len(findings),
                "new": len(delta.new),
                "suppressed": len(delta.suppressed),
                "stale": len(delta.stale),
            },
            "findings": [
                {**f.to_dict(), "status": status.get(id(f), "baselined")}
                for f in findings
            ],
            "stale": sorted(delta.stale),
        }
        if args.statistics:
            payload["statistics"] = result.statistics.to_payload()
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for finding in delta.new:
            print(finding.describe())
        parts = [f"{len(findings)} finding(s)", f"{len(delta.new)} new"]
        if delta.suppressed:
            parts.append(f"{len(delta.suppressed)} baselined")
        if delta.stale:
            parts.append(
                f"{len(delta.stale)} stale baseline entr(y/ies) — "
                "run 'repro lint --update-baseline' to tighten"
            )
        print("; ".join(parts))
        if args.statistics:
            stats = result.statistics
            print(
                f"analyzed {stats.modules} module(s), {stats.functions} "
                f"function(s), {stats.call_edges} call edge(s) "
                f"({stats.unresolved_calls}/{stats.total_calls} calls unresolved)"
            )
            print(
                f"locks: {stats.locks}, lock-order edges: "
                f"{stats.lock_order_edges}, cycles: {stats.lock_cycles}"
            )
            per_rule = ", ".join(
                f"{rule_id}={count}"
                for rule_id, count in sorted(stats.rule_findings.items())
            )
            print(f"findings by rule: {per_rule}")
    return 1 if delta.new else 0


def _analyze_call_graph(args: argparse.Namespace, model: object) -> int:
    from repro.analysis.semantic import SemanticModel

    assert isinstance(model, SemanticModel)
    graph = model.graph
    if args.json:
        payload = {
            "version": 1,
            "functions": [
                {
                    "qualified": info.qualified,
                    "module": info.module,
                    "line": info.lineno,
                    "contextmanager": info.is_contextmanager,
                    "holds_locks": sorted(info.holds_locks),
                    "acquires_locks": sorted(info.acquires_locks),
                }
                for _, info in sorted(graph.functions.items())
            ],
            "calls": [
                {
                    "caller": site.caller,
                    "callee": site.callee,
                    "line": site.line,
                    "held": sorted(site.held),
                }
                for site in sorted(
                    graph.calls, key=lambda s: (s.caller, s.callee, s.line)
                )
            ],
            "summary": {
                "modules": graph.modules,
                "functions": len(graph.functions),
                "call_edges": len(graph.calls),
                "total_calls": graph.total_calls,
                "unresolved_calls": graph.unresolved_calls,
            },
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    elif args.dot:
        print("digraph callgraph {")
        print("  rankdir=LR;")
        edges = sorted({(site.caller, site.callee) for site in graph.calls})
        for caller, callee in edges:
            print(f'  "{caller}" -> "{callee}";')
        print("}")
    else:
        print(
            f"{graph.modules} module(s), {len(graph.functions)} "
            f"function(s), {len(graph.calls)} call edge(s) "
            f"({graph.unresolved_calls}/{graph.total_calls} calls unresolved)"
        )
        annotated = [
            info
            for _, info in sorted(graph.functions.items())
            if info.holds_locks or info.acquires_locks
        ]
        for info in annotated:
            notes: list[str] = []
            if info.holds_locks:
                notes.append(f"holds-lock: {', '.join(sorted(info.holds_locks))}")
            if info.acquires_locks:
                notes.append(
                    f"acquires-lock: {', '.join(sorted(info.acquires_locks))}"
                )
            print(f"  {info.qualified}  ({'; '.join(notes)})")
    return 0


def _analyze_lock_graph(args: argparse.Namespace, model: object) -> int:
    from repro.analysis.semantic import SemanticModel

    assert isinstance(model, SemanticModel)
    lock_graph = model.lock_graph
    if args.json:
        payload = {
            "version": 1,
            "locks": {
                name: model.graph.lock_kinds.get(name, "lock")
                for name in sorted(lock_graph.locks)
            },
            "edges": [
                {
                    "source": edge.source,
                    "target": edge.target,
                    "function": edge.function,
                    "line": edge.line,
                    "witness": edge.witness,
                }
                for edge in lock_graph.edges
            ],
            "cycles": [list(cycle) for cycle in lock_graph.cycles],
            "acyclic": lock_graph.acyclic,
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    elif args.dot:
        print("digraph lockorder {")
        print("  rankdir=LR;")
        cyclic = {name for cycle in lock_graph.cycles for name in cycle}
        for name in sorted(lock_graph.locks):
            color = ' color="red"' if name in cyclic else ""
            kind = model.graph.lock_kinds.get(name, "lock")
            print(f'  "{name}" [label="{name}\\n({kind})"{color}];')
        for edge in lock_graph.edges:
            print(f'  "{edge.source}" -> "{edge.target}";')
        print("}")
    else:
        print(
            f"{len(lock_graph.locks)} lock(s), {len(lock_graph.edges)} "
            f"order edge(s), {len(lock_graph.cycles)} cycle(s)"
        )
        for edge in lock_graph.edges:
            print(f"  {edge.source} -> {edge.target}  [{edge.witness}]")
        for cycle in lock_graph.cycles:
            print(f"  CYCLE: {' -> '.join(cycle)} -> {cycle[0]}")
    return 0 if lock_graph.acyclic else 1


def _analyze_effects(args: argparse.Namespace, model: object) -> int:
    from repro.analysis.semantic import SemanticModel

    assert isinstance(model, SemanticModel)
    impure = {
        qualified: sorted(effects)
        for qualified, effects in sorted(model.effects.items())
        if effects
    }
    if args.json:
        counts: dict[str, int] = {}
        for effects in impure.values():
            for effect in effects:
                counts[effect] = counts.get(effect, 0) + 1
        payload = {
            "version": 1,
            "functions": impure,
            "summary": {
                "total_functions": len(model.effects),
                "impure_functions": len(impure),
                "by_effect": counts,
            },
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(
            f"{len(impure)} of {len(model.effects)} function(s) reach an "
            "impure effect"
        )
        for qualified, effects in impure.items():
            print(f"  {qualified}: {', '.join(effects)}")
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    from repro.analysis import analyze_paths

    paths = [Path(p) for p in args.paths] if args.paths else [Path("src/repro")]
    cache = Path(args.semantic_cache) if args.semantic_cache else None
    result = analyze_paths(
        paths,
        root=Path.cwd(),
        rules=[],
        semantic_cache=cache,
        want_model=True,
    )
    handlers = {
        "call-graph": _analyze_call_graph,
        "lock-graph": _analyze_lock_graph,
        "effects": _analyze_effects,
    }
    return handlers[args.view](args, result.model)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regular path queries on workflow provenance (ICDE 2015 reproduction).",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    spec_parser = sub.add_parser("spec", help="inspect a specification")
    spec_parser.add_argument("spec", help="built-in name, synthetic:<size>, or JSON path")
    spec_parser.add_argument("--output", help="write the specification to a JSON file")
    spec_parser.set_defaults(handler=_cmd_spec)

    derive_parser = sub.add_parser("derive", help="derive a labeled run")
    derive_parser.add_argument("spec")
    derive_parser.add_argument("--edges", type=int, default=1000, help="target edge count")
    derive_parser.add_argument("--seed", type=int, default=0)
    derive_parser.add_argument("--output", help="write the run to a JSON file")
    derive_parser.set_defaults(handler=_cmd_derive)

    safety_parser = sub.add_parser("safety", help="check query safety")
    safety_parser.add_argument("spec")
    safety_parser.add_argument("query")
    safety_parser.set_defaults(handler=_cmd_safety)

    query_parser = sub.add_parser("query", help="answer a query over a stored run")
    query_parser.add_argument("run", help="path to a run JSON file (see 'repro derive')")
    query_parser.add_argument("query")
    query_parser.add_argument("--source", help="pairwise query: source node id")
    query_parser.add_argument("--target", help="pairwise query: target node id")
    query_parser.add_argument("--sources", help="all-pairs: comma-separated source ids")
    query_parser.add_argument("--targets", help="all-pairs: comma-separated target ids")
    query_parser.add_argument("--limit", type=int, default=20, help="pairs to print")
    query_parser.add_argument("--json", action="store_true", help="print all pairs as JSON")
    query_parser.add_argument(
        "--stream",
        action="store_true",
        help=(
            "all-pairs only: print pairs as they are found (one per line, "
            "unsorted, no limit) instead of materializing the result set; "
            "unsafe queries stream too, with memory bounded by the region "
            "reachable from --sources rather than by the run"
        ),
    )
    query_parser.add_argument(
        "--strategy",
        choices=["auto", "frontier", "join"],
        default="auto",
        help=(
            "unsafe-remainder evaluation strategy for non-streamed all-pairs "
            "queries: per-source frontier search, join-based relations, or "
            "cost-based choice (default)"
        ),
    )
    query_parser.add_argument(
        "--direction",
        choices=["auto", "forward", "backward"],
        default="auto",
        help=(
            "frontier search direction for unsafe all-pairs queries: forward "
            "runs one search per requested source, backward runs one per "
            "requested target over the reversed query DFA (wins when "
            "--targets is much smaller than --sources); auto (default) "
            "compares the two seed counts with the cost model"
        ),
    )
    query_parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help=(
            "parallel frontier fan-out for unsafe all-pairs queries: the "
            "per-seed searches are spread over this many workers (process "
            "pool where available); 1 (default) runs serial"
        ),
    )
    query_parser.add_argument(
        "--profile",
        action="store_true",
        help=(
            "record an execution profile: evaluate under the tracer and "
            "print the per-operator span tree (with the coverage line) to "
            "stderr, leaving stdout output unchanged"
        ),
    )
    query_parser.add_argument(
        "--trace-json",
        metavar="PATH",
        help=(
            "record the evaluation's spans and write them as Chrome "
            "trace-event JSON (loads in Perfetto / chrome://tracing)"
        ),
    )
    query_parser.add_argument(
        "--save-profile",
        metavar="STORE_DIR",
        help=(
            "persist the execution profile to this index store directory "
            "(created if missing; see 'repro store')"
        ),
    )
    query_parser.set_defaults(handler=_cmd_query)

    trace_parser = sub.add_parser(
        "trace",
        help="evaluate a query under the tracer and emit Chrome trace JSON",
        description=(
            "Evaluate an all-pairs query with a recording tracer installed "
            "and write the finished spans in Chrome trace-event format; load "
            "the file in Perfetto or chrome://tracing to see the query "
            "lifecycle (planning, frontier searches, decode, cache/store "
            "traffic) on a timeline."
        ),
    )
    trace_parser.add_argument("run", help="path to a run JSON file (see 'repro derive')")
    trace_parser.add_argument("query")
    trace_parser.add_argument("--sources", help="comma-separated source ids")
    trace_parser.add_argument("--targets", help="comma-separated target ids")
    trace_parser.add_argument(
        "--direction", choices=["auto", "forward", "backward"], default="auto"
    )
    trace_parser.add_argument(
        "--workers", type=int, default=1, help="parallel frontier fan-out"
    )
    trace_parser.add_argument(
        "--output",
        default="-",
        metavar="PATH",
        help="trace JSON destination (default: stdout)",
    )
    trace_parser.set_defaults(handler=_cmd_trace)

    metrics_parser = sub.add_parser(
        "metrics",
        help="print the metrics registry in Prometheus text format",
        description=(
            "Print every registered counter/gauge/histogram plus live "
            "collector samples in the Prometheus text exposition format. "
            "With --requests, a JSONL batch is replayed through the query "
            "service first so the exposition reflects real traffic."
        ),
    )
    metrics_parser.add_argument(
        "--requests",
        metavar="PATH",
        help="JSONL request file (or '-' for stdin) to replay before reporting",
    )
    metrics_parser.add_argument(
        "--run",
        action="append",
        default=[],
        metavar="[ID=]PATH",
        help="register a run JSON file (repeatable; default ID is the file stem)",
    )
    metrics_parser.add_argument(
        "--store", help="persistent store directory backing the service"
    )
    metrics_parser.add_argument(
        "--cache-entries", type=int, default=512, help="index cache entry bound"
    )
    metrics_parser.add_argument(
        "--trace",
        action="store_true",
        help="install a recording tracer during the replay (span counters tick)",
    )
    metrics_parser.set_defaults(handler=_cmd_metrics)

    batch_parser = sub.add_parser(
        "batch",
        help="evaluate a JSONL batch of queries through the shared-cache service",
        description=(
            "Read one JSON request per line (op/run/query/source/target fields; "
            "see repro.service.requests) and stream one JSON result per line, "
            "in request order.  Runs are registered with --run; requests refer "
            "to them by id (default: the file stem)."
        ),
    )
    batch_parser.add_argument("requests", help="JSONL request file, or '-' for stdin")
    batch_parser.add_argument(
        "--run",
        action="append",
        default=[],
        metavar="[ID=]PATH",
        help=(
            "register a run JSON file under ID (repeatable; default ID is the "
            "file stem, and an existing path containing '=' is taken as-is)"
        ),
    )
    batch_parser.add_argument("--output", help="write JSONL results here instead of stdout")
    batch_parser.add_argument(
        "--workers", type=int, default=None, help="evaluation thread count"
    )
    batch_parser.add_argument(
        "--cache-entries", type=int, default=512, help="index cache entry bound"
    )
    batch_parser.add_argument(
        "--stats-json",
        metavar="PATH",
        help=(
            "write a machine-readable JSON run summary (request/ok/failed "
            "counts plus every cache/store counter) to this file"
        ),
    )
    batch_parser.add_argument(
        "--store",
        help=(
            "persistent index store directory: cached indexes/plans are read "
            "from and written to it, and runs persisted there (see 'repro "
            "store warm') are registered automatically"
        ),
    )
    batch_parser.set_defaults(handler=_cmd_batch)

    store_parser = sub.add_parser(
        "store",
        help="manage a persistent index store (warm service restarts)",
        description=(
            "A store directory holds versioned, checksummed JSON artifacts of "
            "everything the index cache computes (safety reports, query "
            "indexes, decomposition plans with macro DFAs) plus a registry of "
            "labeled runs, keyed by (specification fingerprint, canonical "
            "query).  Services opened with the same store restart warm."
        ),
    )
    store_sub = store_parser.add_subparsers(dest="store_command", required=True)

    store_build = store_sub.add_parser(
        "build", help="build index/plan entries for queries against a specification"
    )
    store_build.add_argument("dir", help="store directory (created if missing)")
    store_build.add_argument("--spec", required=True, help="built-in name, synthetic:<size>, or JSON path")
    store_build.add_argument("queries", nargs="+", metavar="QUERY")
    store_build.set_defaults(handler=_cmd_store_build)

    store_warm = store_sub.add_parser(
        "warm",
        help=(
            "register runs and warm queries through a store-backed service "
            "(persists runs, indexes, plans and routed subquery indexes)"
        ),
    )
    store_warm.add_argument("dir", help="store directory (created if missing)")
    store_warm.add_argument(
        "--run",
        action="append",
        default=[],
        metavar="[ID=]PATH",
        help="register a run JSON file (repeatable; default ID is the file stem)",
    )
    store_warm.add_argument("queries", nargs="+", metavar="QUERY")
    store_warm.set_defaults(handler=_cmd_store_warm)

    store_ls = store_sub.add_parser("ls", help="list stored entries and runs")
    store_ls.add_argument("dir")
    store_ls.set_defaults(handler=_cmd_store_ls)

    store_stats = store_sub.add_parser("stats", help="summarize a store directory")
    store_stats.add_argument("dir")
    store_stats.set_defaults(handler=_cmd_store_stats)

    store_gc = store_sub.add_parser(
        "gc",
        help=(
            "reclaim entries: LRU down to a size budget and/or drop entries "
            "of grammars with no registered run"
        ),
    )
    store_gc.add_argument("dir")
    store_gc.add_argument(
        "--max-bytes",
        type=int,
        default=None,
        help="entry-tier size budget (LRU sweep); runs are never evicted",
    )
    store_gc.add_argument(
        "--orphans",
        action="store_true",
        help=(
            "drop entries whose specification fingerprint matches no run in "
            "the store's registry (note: a store used only via 'repro store "
            "build', with no registered runs, is all orphans by definition)"
        ),
    )
    store_gc.set_defaults(handler=_cmd_store_gc)

    cache_parser = sub.add_parser(
        "cache",
        help="inspect cache/store statistics of a (optionally warmed) service",
        description=(
            "Build a query service, optionally register runs and warm queries, "
            "then print IndexCache/CacheStats counters (hit rates, builds, "
            "store hits) so operators can inspect cache effectiveness without "
            "writing Python."
        ),
    )
    cache_parser.add_argument(
        "--run",
        action="append",
        default=[],
        metavar="[ID=]PATH",
        help="register a run JSON file (repeatable; default ID is the file stem)",
    )
    cache_parser.add_argument(
        "--store", help="persistent store directory backing the service"
    )
    cache_parser.add_argument(
        "--warm",
        action="append",
        default=[],
        metavar="QUERY",
        help="warm this query on every registered run before reporting (repeatable)",
    )
    cache_parser.add_argument(
        "--json", action="store_true", help="print the statistics as one JSON object"
    )
    cache_parser.set_defaults(handler=_cmd_cache)

    bench_parser = sub.add_parser(
        "bench",
        help="benchmark scenarios, trajectory gating, and the paper's figures",
        description=(
            "Everything after 'bench' is forwarded to the benchmark front-end: "
            "'run' executes catalog scenarios, 'gate' compares a run against "
            "the stored trajectory, 'check' validates the catalog, 'list' "
            "prints it, 'figures' (or a bare figure name like fig13a) runs "
            "the legacy paper experiments."
        ),
    )
    bench_parser.add_argument("args", nargs=argparse.REMAINDER)
    bench_parser.set_defaults(handler=_cmd_bench)

    lint_parser = sub.add_parser(
        "lint",
        help="run the project's static-analysis rules (repro.analysis)",
        description=(
            "Run the project-specific AST rules (lock discipline, process-pool "
            "picklability, planner determinism, exception discipline, "
            "streaming discipline, operator protocol, typed defs) over the "
            "given paths. Findings already recorded in the baseline file pass; "
            "new findings exit 1."
        ),
    )
    lint_parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to analyze (default: src/repro)",
    )
    lint_parser.add_argument(
        "--baseline",
        default="lint-baseline.json",
        help="baseline file of accepted findings (default: lint-baseline.json)",
    )
    lint_parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite the baseline to accept all current findings",
    )
    lint_parser.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON output"
    )
    lint_parser.add_argument(
        "--select",
        metavar="IDS",
        help="comma-separated rule ids to run (default: all)",
    )
    lint_parser.add_argument(
        "--rules",
        dest="list_rules",
        action="store_true",
        help="list the rule catalog and exit",
    )
    lint_parser.add_argument(
        "--statistics",
        action="store_true",
        help="report per-rule finding counts and call/lock-graph totals",
    )
    lint_parser.add_argument(
        "--semantic-cache",
        metavar="PATH",
        help=(
            "digest-keyed semantic-model cache file shared with "
            "'repro analyze' (rebuilt automatically when sources change)"
        ),
    )
    lint_parser.set_defaults(handler=_cmd_lint)

    analyze_parser = sub.add_parser(
        "analyze",
        help="inspect the whole-program semantic model (repro.analysis.semantic)",
        description=(
            "Build (or load from --semantic-cache) the whole-program semantic "
            "model behind REP108/REP109 and print one of its views: the "
            "cross-module call graph, the lock-order graph (exit 1 on a "
            "deadlock cycle), or per-function transitive effects."
        ),
    )
    analyze_parser.add_argument(
        "view",
        choices=("call-graph", "lock-graph", "effects"),
        help="which view of the semantic model to print",
    )
    analyze_parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to analyze (default: src/repro)",
    )
    analyze_parser.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON output"
    )
    analyze_parser.add_argument(
        "--dot",
        action="store_true",
        help="emit a Graphviz digraph (call-graph and lock-graph views)",
    )
    analyze_parser.add_argument(
        "--semantic-cache",
        metavar="PATH",
        help="digest-keyed semantic-model cache file shared with 'repro lint'",
    )
    analyze_parser.set_defaults(handler=_cmd_analyze)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ReproError, OSError, ValueError) as error:
        # ValueError covers json.JSONDecodeError plus bad CLI values that
        # surface from the library (duplicate run ids, zero workers, ...).
        print(f"repro: error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

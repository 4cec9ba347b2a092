"""Set-up, the closed-loop client and the metrics of one benchmark run.

One single-threaded client sends the workload's stream to a
``QueryService(max_workers=2)`` one operation at a time (a closed loop:
the next operation is sent when the previous one returned).  The stream is
cut into fixed-size blocks; the reference kernel of :mod:`speed` runs
between blocks, and every time of a block is rescaled by it.
"""

from __future__ import annotations

import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro import QueryRequest, QueryService
from repro.obs import Tracer, use_tracer

import layers
import oracle
from inputs import Inputs, Op
from speed import REFERENCE_S, SpeedMeter, percentile, tail_percentile

#: Set-up is repeated this many times per run; ``setup_s`` is the median.
SETUP_REPEATS = 3

#: Fresh-service passes of BioAID registrations run after the window on the
#: workloads without ingest operations; with set-up's registrations they give
#: ``ingest_p50_ms`` 36 samples instead of 12.
REGISTRATION_PASSES = 6

#: Pool queries warmed per kernel-bracketed set-up block.
WARM_SLICE = 8

#: Operations per timed block (one reference-kernel measurement each).
BLOCK_OPS = {"serve-hot": 200, "compile-cold": 4, "scan-ingest": 6}

READS = ("pairwise", "reachability", "allpairs")


class SetupError(RuntimeError):
    """Set-up could not prepare the workload (a pool query was rejected)."""


@dataclass
class Window:
    """What one pass over (part of) the stream produced."""

    meter: SpeedMeter
    answers: dict[int, oracle.Answer] = field(default_factory=dict)
    errors: dict[int, str] = field(default_factory=dict)
    attempted: int = 0


def build_service(
    inputs: Inputs, workdir: Path, name: str, meter: SpeedMeter | None = None
) -> QueryService:
    """A fresh service with the base runs registered and the pool warmed.

    On ``scan-ingest`` the service is store-backed, in a fresh directory, so
    registrations and ingests pay the store's own write path.  With a
    ``meter``, every registration and every slice of the warm-up is one
    kernel-bracketed block: set-up lasts about a second, and the machine's
    speed drifts within that.
    """
    started = time.perf_counter()
    store_dir = workdir / f"store-{name}" if inputs.workload == "scan-ingest" else None
    service = QueryService(max_workers=2, store_dir=store_dir)
    if meter is not None:
        meter.close(time.perf_counter() - started, 0, {})
    started = time.perf_counter()
    for content in inputs.base:
        service.load_run_file(inputs.files[content], run_id=content)
        elapsed = time.perf_counter() - started
        if meter is not None:
            ingest = [elapsed] if inputs.runs[content].spec.name.startswith("BioAID") else []
            meter.close(elapsed, 1, {"ingest": ingest})
        started = time.perf_counter()
    for first in range(0, len(inputs.warm), WARM_SLICE):
        for run_id, query in inputs.warm[first:first + WARM_SLICE]:
            status = service.warm(run_id, [query])[query]
            if status.startswith("error"):
                raise SetupError(f"pool query {query!r} on {run_id}: {status}")
        if meter is not None:
            meter.close(time.perf_counter() - started, 0, {})
        started = time.perf_counter()
    return service


def timed_setup(inputs: Inputs, workdir: Path) -> tuple[QueryService, list[SpeedMeter]]:
    """Set up :data:`SETUP_REPEATS` times, each with its own meter; the last
    service is the one the window drives."""
    meters = []
    for repeat in range(SETUP_REPEATS):
        service = None  # release the previous service before timing the next
        meter = SpeedMeter()
        service = build_service(inputs, workdir, f"setup-{repeat}", meter)
        meters.append(meter)
    return service, meters


def registration_probe(inputs: Inputs) -> SpeedMeter:
    """Register the BioAID base runs on :data:`REGISTRATION_PASSES` fresh
    services, one kernel-bracketed block per registration."""
    bioaid = [c for c in inputs.base if inputs.runs[c].spec.name.startswith("BioAID")]
    meter = SpeedMeter()
    for _ in range(REGISTRATION_PASSES):
        service = QueryService(max_workers=2)
        for content in bioaid:
            started = time.perf_counter()
            service.load_run_file(inputs.files[content], run_id=content)
            elapsed = time.perf_counter() - started
            meter.close(elapsed, 1, {"ingest": [elapsed]})
        del service
    return meter


def _request(op: Op) -> QueryRequest | None:
    if op.kind == "ingest":
        return None
    if op.kind == "allpairs":
        return QueryRequest(
            op="allpairs", run=op.run, query=op.query, sources=op.sources, targets=op.targets
        )
    return QueryRequest(op=op.kind, run=op.run, query=op.query, source=op.source, target=op.target)


def drive(
    service: QueryService,
    inputs: Inputs,
    count: int,
    clock: layers.LayerClock | None = None,
    tracer: Tracer | None = None,
) -> Window:
    """Send the first ``count`` operations, block by block."""
    stream = inputs.stream[:count]
    requests = [_request(op) for op in stream]
    size = BLOCK_OPS[inputs.workload]
    window = Window(SpeedMeter())
    perf_counter = time.perf_counter
    for first in range(0, len(stream), size):
        reads: list[float] = []
        ingests: list[float] = []
        dispatch: list[float] = []
        scans: list[tuple[int, tuple[tuple[str, str], ...]]] = []
        positions = range(first, min(first + size, len(stream)))
        block_started = perf_counter()
        for position in positions:
            op = stream[position]
            layer_before = clock.outer_s if clock is not None else 0.0
            started = perf_counter()
            if op.kind == "ingest":
                try:
                    service.load_run_file(inputs.files[op.content], run_id=op.run)
                except Exception as error:  # a failed ingest is a counted failure
                    window.errors[position] = f"{type(error).__name__}: {error}"
                ingests.append(perf_counter() - started)
                continue
            result = service.execute(requests[position])
            elapsed = perf_counter() - started
            reads.append(elapsed)
            if clock is not None:
                dispatch.append(elapsed - (clock.outer_s - layer_before))
            if not result.ok:
                window.errors[position] = result.error or "error"
            elif op.kind == "allpairs":
                scans.append((position, result.pairs or ()))
            else:
                window.answers[position] = bool(result.answer)
        raw = perf_counter() - block_started
        for position, pairs in scans:
            window.answers[position] = oracle.canonical(frozenset(pairs))
        samples = {"read": reads, "ingest": ingests}
        if clock is not None:
            samples["service.dispatch"] = dispatch
            samples.update(clock.take())
        if tracer is not None:
            samples.update(layers.self_times(tracer.spans()))
            tracer.clear()
        window.meter.close(raw, len(positions), samples)
    window.attempted = len(stream)
    return window


def check(inputs: Inputs, windows: list[Window]) -> dict[str, Any]:
    """Run the correctness gate over windows that replayed the same stream
    prefix; returns its report (``failed`` counts every window)."""
    attempted = max(window.attempted for window in windows)
    positions = range(attempted)
    if inputs.oracle_sample:
        positions = [position for position in inputs.oracle_sample if position < attempted]
    ops = {
        position: inputs.stream[position]
        for position in positions
        if inputs.stream[position].kind in READS
    }
    want = oracle.expected(inputs.runs, ops)
    oracle.require_informative(inputs.workload, want)
    report: dict[str, Any] = {
        "checked": len(want),
        "checked_true_or_nonempty": sum(1 for answer in want.values() if answer),
        "failed": 0,
        "windows": [],
    }
    for window in windows:
        wrong = [
            position
            for position in oracle.mismatches(window.answers, want)
            if position not in window.errors
        ]
        failed = sorted(set(wrong) | set(window.errors))
        report["failed"] += len(failed)
        report["windows"].append({
            "mismatches": len(wrong),
            "errors": len(window.errors),
            "first_failures": [
                {"position": position, "op": inputs.stream[position].as_json(),
                 "error": window.errors.get(position)}
                for position in failed[:5]
            ],
            "answers_digest": oracle.answers_digest(window.answers.items()),
        })
    return report


def _ms(values: list[float], pct: float) -> float:
    return percentile(values, pct) * 1e3


def end_to_end(
    inputs: Inputs, window: Window, setup: list[SpeedMeter], probe: SpeedMeter | None
) -> tuple[dict[str, float], dict[str, Any]]:
    """The end-to-end metrics of an untraced run, plus their diagnostics
    (``success_rate`` is added by the caller once the oracle has run).
    ``probe`` is the :func:`registration_probe` of a workload without
    ingest operations."""
    meter = window.meter
    # The headline operations are the reads: point reads on serve-hot,
    # first-contact requests on compile-cold, scans on scan-ingest.
    adjusted, raw = meter.adjusted("read"), meter.raw("read")
    tail = tail_percentile(len(adjusted))
    if tail is None:
        raise SetupError(f"only {len(adjusted)} headline samples; the stream is too short")
    if inputs.workload == "scan-ingest":
        ingest_from = "window"
        ingest_adjusted, ingest_raw = meter.adjusted("ingest"), meter.raw("ingest")
    else:
        ingest_from = "set-up and registration probe (BioAID registrations)"
        registrations = [*setup, probe] if probe is not None else setup
        ingest_adjusted = [value for rep in registrations for value in rep.adjusted("ingest")]
        ingest_raw = [value for rep in registrations for value in rep.raw("ingest")]
    metrics = {
        "throughput_rps": meter.throughput,
        "latency_p50_ms": _ms(adjusted, 50.0),
        "latency_p99_ms": _ms(adjusted, tail),
        "ingest_p50_ms": statistics.median(ingest_adjusted) * 1e3,
        "setup_s": statistics.median(rep.adjusted_s for rep in setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    diagnostics = {
        "raw": {
            "throughput_rps": meter.ops / meter.raw_s,
            "latency_p50_ms": _ms(raw, 50.0),
            "latency_p99_ms": _ms(raw, tail),
            "ingest_p50_ms": statistics.median(ingest_raw) * 1e3,
            "setup_s": statistics.median(rep.raw_s for rep in setup),
        },
        "samples": {
            "headline": len(adjusted),
            "ingest": len(ingest_adjusted),
            "ingest_from": ingest_from,
            "setup": len(setup),
            "blocks": len(meter.blocks),
        },
        "percentile_used": {"latency_p50_ms": 50.0, "latency_p99_ms": tail},
        "window_s": {"raw": meter.raw_s, "adjusted": meter.adjusted_s},
        "reference_kernel": {
            "reference_ms": REFERENCE_S * 1e3,
            "window_ms": [round(value * 1e3, 4) for value in meter.kernel_s],
            "setup_ms": [[round(value * 1e3, 4) for value in rep.kernel_s] for rep in setup],
        },
    }
    return metrics, diagnostics


#: Timed layers of the traced run and the unit each one's median is given in.
TIMED_LAYERS = {
    "automata.dfa_build": "ms",
    "safety.analyze": "ms",
    "query_index.build": "ms",
    "decomposition.plan": "ms",
    "cache.lookup": "us",
    "pairwise.decode": "us",
    "labeling.reachable": "us",
    "service.dispatch": "us",
    "allpairs.safe": "ms",
    "exec.unsafe": "ms",
    "exec.join": "ms",
    "exec.frontier": "ms",
    "workflow.load_run": "ms",
    "bitset.pack": "ms",
    "store.save_run": "ms",
}
_SCALE = {"ms": 1e3, "us": 1e6}


def per_layer(
    window: Window,
    clock: layers.LayerClock,
    untraced: Window,
    cache: dict[str, int],
    bytes_per_run: float,
) -> dict[str, float]:
    """The per-layer metrics of a traced run: the median adjusted self time
    of every timed layer (0 for a layer the workload never calls), the
    work counters, and the cost of tracing itself."""
    metrics: dict[str, float] = {}
    for layer, unit in TIMED_LAYERS.items():
        values = window.meter.adjusted(layer)
        metrics[f"{layer}_{unit}"] = statistics.median(values) * _SCALE[unit] if values else 0.0
    counts = clock.counts
    reports = counts.get("safety.reports", 0)
    lookups = cache["hits"] + cache["misses"]
    metrics.update({
        "automata.dfa_states": counts.get("automata.dfa_states", 0),
        "safety.safe_share": counts.get("safety.safe", 0) / reports if reports else 0.0,
        "decomposition.safe_subqueries": counts.get("decomposition.safe_subqueries", 0),
        "cache.hit_rate": cache["hits"] / lookups if lookups else 0.0,
        "cache.evictions": cache["evictions"],
        "allpairs.pairs_out": counts.get("allpairs.pairs_out", 0),
        "store.bytes_per_run": bytes_per_run,
        "obs.trace_overhead": window.meter.throughput / untraced.meter.throughput,
    })
    return metrics


def _cache_counts(service: QueryService) -> dict[str, int]:
    stats = service.cache_stats
    return {"hits": stats.hits, "misses": stats.misses, "evictions": stats.evictions}


def traced(inputs: Inputs, workdir: Path) -> tuple[dict[str, float], dict[str, Any], list[Window]]:
    """The traced run: the first half of the stream untraced, then the same
    half on a fresh service with the layers instrumented and a recording
    tracer installed."""
    count = len(inputs.stream) // 2
    service = build_service(inputs, workdir, "untraced")
    untraced = drive(service, inputs, count)
    service = build_service(inputs, workdir, "traced")
    before = _cache_counts(service)
    tracer = Tracer()
    with layers.instrument() as clock, use_tracer(tracer):
        window = drive(service, inputs, count, clock=clock, tracer=tracer)
    after = _cache_counts(service)
    delta = {key: after[key] - before[key] for key in before}
    ingested = [op.run for op in inputs.stream[:count] if op.kind == "ingest"]
    store = service.store
    sizes = [store.run_path(run_id).stat().st_size for run_id in ingested] if store else []
    metrics = per_layer(window, clock, untraced, delta, statistics.mean(sizes) if sizes else 0.0)
    diagnostics = {
        "calls": {
            kind: len(window.meter.raw(kind))
            for kind in sorted({kind for block in window.meter.blocks for kind in block.samples})
        },
        "counts": dict(sorted(clock.counts.items())),
        "cache": delta,
        "throughput_rps": {
            "untraced": untraced.meter.throughput,
            "traced": window.meter.throughput,
        },
        "reference_kernel": {
            "untraced_ms": [round(value * 1e3, 4) for value in untraced.meter.kernel_s],
            "traced_ms": [round(value * 1e3, 4) for value in window.meter.kernel_s],
        },
    }
    return metrics, diagnostics, [untraced, window]

"""Seeded inputs of the three workloads.

Everything a workload sends to the program is generated here from the
workload seed, before any timing starts: the runs (derived from the
``repro.datasets`` grammars as they read back from JSON, and written to
JSON, so set-up and ingest load them the way a user's files are loaded),
the query pools and the request stream.
The same seed gives the same inputs; :func:`digest` fingerprints them so a
change to a generator cannot silently change a workload.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.automata.regex import canonical_query_text
from repro.core.safety import is_safe_query
from repro.datasets import (
    bioaid_specification,
    generate_ifq_along_path,
    generate_random_query,
    generate_run,
    qblast_specification,
)
from repro.datasets.queries import discriminating_tags
from repro.workflow.run import Run
from repro.workflow.serialization import (
    save_run,
    specification_from_dict,
    specification_to_dict,
)
from repro.workflow.spec import Specification

#: Runs registered in set-up: this many per grammar (BioAID and QBLast).
RUNS_PER_SPEC = 4
RUN_EDGES = 2000

#: A tail percentile of p99 needs 1000 samples to keep 10 beyond it.
MIN_HEADLINE = 1000

#: Nominal headline operations per second of each workload on a 2-vCPU
#: Xeon VM; ``seconds * rate`` sizes the stream so a run lasts about
#: ``seconds``.  The stream length depends only on these constants, the
#: seed and ``seconds``, never on the speed of the machine, so operation
#: counts repeat exactly between runs.
NOMINAL_RATE = {"serve-hot": 7500, "compile-cold": 50, "scan-ingest": 70}

SERVE_POOL = 48
SERVE_PAIRWISE_SHARE = 0.75
SERVE_ZIPF_S = 1.1
SERVE_ORACLE_SAMPLE = 400

#: Pool queries per grammar.  Unsafe scans carry most of the workload's
#: time and vary most from query to query, so the pool holds more of them.
SCAN_SAFE_QUERIES = 12
SCAN_UNSAFE_QUERIES = 24
SCAN_CANDIDATES = 36
SCAN_LIST = 30
SCAN_INGEST_EVERY = 30  # one ingest per this many operations (about 3%)
#: Distinct pre-serialized runs ingested in turn, per grammar (BioAID,
#: QBLast).  BioAID runs load about a third slower than QBLast runs, so a
#: 3:1 mix keeps the ingest median inside one cluster.
SCAN_INGEST_RUNS = (3, 1)
SCAN_FAVOUR_NEW = 0.5


@dataclass(frozen=True)
class Op:
    """One operation of a stream.

    ``kind`` is ``pairwise``, ``reachability`` or ``allpairs`` (reads) or
    ``ingest``; ``content`` names the run file whose content the operation
    reads (an ingested run reads the content of the file it was loaded
    from), which is what the oracle keys its answers by.
    """

    kind: str
    run: str
    content: str
    query: str | None = None
    source: str | None = None
    target: str | None = None
    sources: tuple[str, ...] = ()
    targets: tuple[str, ...] = ()

    def as_json(self) -> list[Any]:
        return [
            self.kind, self.run, self.content, self.query, self.source, self.target,
            list(self.sources), list(self.targets),
        ]


@dataclass
class Inputs:
    """Everything one workload run sends to the program."""

    workload: str
    runs: dict[str, Run]  # content id -> run (base runs and ingest files)
    files: dict[str, Path]  # content id -> serialized run
    base: list[str]  # content ids registered in set-up
    warm: list[tuple[str, str]]  # (run id, query) pre-warmed in set-up
    stream: list[Op]
    oracle_sample: list[int] = field(default_factory=list)  # stream positions checked


GRAMMARS = (bioaid_specification, qblast_specification)


def _specs() -> list[Specification]:
    """The two grammars as they read back from a specification file.

    Runs are derived from the read-back specification, as ``repro derive
    spec.json`` derives them, so that the labels in a run file number the
    recursion cycles the way the specification embedded in that file reads
    back when the service loads it.  The in-memory ``repro.datasets``
    objects do not always do so (see :func:`cycle_numbering_agrees`).
    """
    return [specification_from_dict(specification_to_dict(make())) for make in GRAMMARS]


def cycle_numbering_agrees() -> dict[str, bool]:
    """Per grammar, whether the in-memory ``repro.datasets`` specification
    and its read-back number the recursion cycles alike.

    The program numbers cycles in set-iteration order, so for some hash
    seeds they differ, and a run derived from the in-memory object, saved
    and loaded back, decodes its labels against the wrong cycles.  The
    benchmark derives from the read-back (:func:`_specs`) and reports this
    flag in its diagnostics so that the defect stays visible.
    """
    agrees = {}
    for make in GRAMMARS:
        spec = make()
        back = specification_from_dict(specification_to_dict(spec))
        agrees[spec.name] = spec.production_graph.cycles == back.production_graph.cycles
    return agrees


def _derive_runs(rng: random.Random, prefix: str, per_spec: tuple[int, int]) -> dict[str, Run]:
    runs: dict[str, Run] = {}
    for spec, tag, count in zip(_specs(), ("b", "q"), per_spec):
        for number in range(count):
            runs[f"{prefix}{tag}{number}"] = generate_run(
                spec, RUN_EDGES, seed=rng.randrange(1 << 30)
            )
    return runs


def _pair(rng: random.Random, run: Run, nodes: list[str]) -> tuple[str, str]:
    """A pair of distinct nodes; half the time the target ends a random
    forward walk from the source, so answers are not almost all ``false``."""
    successors = run.successors
    while True:
        source = rng.choice(nodes)
        if rng.random() < 0.5 and successors[source]:
            target = source
            for _ in range(rng.randint(1, 40)):
                if not successors[target]:
                    break
                target = rng.choice(successors[target])[0]
            return source, target
        target = rng.choice(nodes)
        if target != source:
            return source, target


def _zipf_weights(count: int, exponent: float) -> list[float]:
    return [1.0 / (rank**exponent) for rank in range(1, count + 1)]


def stream_length(workload: str, seconds: float) -> int:
    """Headline operations in a stream of ``seconds`` nominal seconds."""
    return max(MIN_HEADLINE, int(seconds * NOMINAL_RATE[workload]))


def make_inputs(workload: str, seed: int, seconds: float, workdir: Path) -> Inputs:
    """Generate one workload's inputs and write its run files under ``workdir``."""
    rng = random.Random(f"perfbench:{workload}:{seed}")
    runs = _derive_runs(rng, "", (RUNS_PER_SPEC, RUNS_PER_SPEC))
    base = list(runs)
    count = stream_length(workload, seconds)
    if workload == "serve-hot":
        warm, stream, sample = _serve_hot(rng, runs, count)
    elif workload == "compile-cold":
        warm, stream, sample = [], _compile_cold(rng, runs, count), []
    elif workload == "scan-ingest":
        extra = _derive_runs(rng, "new-", SCAN_INGEST_RUNS)
        runs.update(extra)
        warm, stream = _scan_ingest(rng, runs, base, list(extra), count)
        sample = []
    else:
        raise ValueError(f"unknown workload {workload!r}")
    files: dict[str, Path] = {}
    (workdir / "runs").mkdir(parents=True, exist_ok=True)
    for content, run in runs.items():
        path = workdir / "runs" / f"{content}.json"
        save_run(run, path)
        files[content] = path
    return Inputs(workload, runs, files, base, warm, stream, sample)


def _serve_hot(
    rng: random.Random, runs: dict[str, Run], count: int
) -> tuple[list[tuple[str, str]], list[Op], list[int]]:
    """Point reads on a warm cache: a pool of safe IFQs small enough to stay
    cached, asked with Zipf popularity, plus plain reachability reads."""
    run_ids = list(runs)
    pool: list[tuple[str, str]] = []
    seen: set[tuple[str, str]] = set()
    while len(pool) < SERVE_POOL:
        run_id = rng.choice(run_ids)
        run = runs[run_id]
        # k by popularity rank (1, 2, 3, 4, 1, ...), not by chance, so the
        # traffic-weighted decode cost does not swing with the seed.
        k = 1 + len(pool) % 4
        query = generate_ifq_along_path(run, k, seed=rng.randrange(1 << 30))
        key = (run.spec.fingerprint, canonical_query_text(query))
        if key in seen or not is_safe_query(run.spec, query):
            continue
        seen.add(key)
        pool.append((run_id, query))
    weights = _zipf_weights(len(pool), SERVE_ZIPF_S)
    nodes = {run_id: list(run.node_ids()) for run_id, run in runs.items()}
    stream: list[Op] = []
    for _ in range(count):
        if rng.random() < SERVE_PAIRWISE_SHARE:
            run_id, query = rng.choices(pool, weights)[0]
            source, target = _pair(rng, runs[run_id], nodes[run_id])
            stream.append(Op("pairwise", run_id, run_id, query, source, target))
        else:
            run_id = rng.choice(run_ids)
            source, target = _pair(rng, runs[run_id], nodes[run_id])
            stream.append(Op("reachability", run_id, run_id, None, source, target))
    sample = sorted(rng.sample(range(count), min(SERVE_ORACLE_SAMPLE, count)))
    return pool, stream, sample


def _compile_cold(rng: random.Random, runs: dict[str, Run], count: int) -> list[Op]:
    """Distinct first-contact pairwise requests: IFQs with k = 2..6 (the
    Fig. 13b regime) alternating with Section V-E random queries over the
    tags that tell alternative productions apart (the Fig. 15 regime)."""
    run_ids = list(runs)
    nodes = {run_id: list(run.node_ids()) for run_id, run in runs.items()}
    pools = {
        run.spec.fingerprint: sorted(discriminating_tags(run.spec)) for run in runs.values()
    }
    seen: set[tuple[str, str]] = set()
    stream: list[Op] = []
    while len(stream) < count:
        run_id = rng.choice(run_ids)
        run = runs[run_id]
        if len(stream) % 2 == 0:
            k = 2 + (len(stream) // 2) % 5
            query = generate_ifq_along_path(run, k, seed=rng.randrange(1 << 30))
        else:
            query = generate_random_query(
                run.spec, seed=rng.randrange(1 << 30), depth=3, tag_pool=pools[run.spec.fingerprint]
            )
        key = (run.spec.fingerprint, canonical_query_text(query))
        if key in seen:
            continue
        seen.add(key)
        source, target = _pair(rng, run, nodes[run_id])
        stream.append(Op("pairwise", run_id, run_id, query, source, target))
    return stream


def _scan_ingest(
    rng: random.Random,
    runs: dict[str, Run],
    base: list[str],
    extra: list[str],
    count: int,
) -> tuple[list[tuple[str, str]], list[Op]]:
    """All-pairs scans over 30x30 node lists drawn from per-run candidate
    sets, with one ingest of a pre-serialized run every
    ``SCAN_INGEST_EVERY`` operations; scans favour freshly ingested runs."""
    queries: dict[str, tuple[list[str], list[str]]] = {}
    for run_id in base:
        run = runs[run_id]
        fingerprint = run.spec.fingerprint
        queries.setdefault(fingerprint, ([], []))
    for fingerprint in queries:
        members = [run_id for run_id in base if runs[run_id].spec.fingerprint == fingerprint]
        safe: list[str] = []
        unsafe: list[str] = []
        seen: set[str] = set()
        while len(safe) < SCAN_SAFE_QUERIES or len(unsafe) < SCAN_UNSAFE_QUERIES:
            run = runs[rng.choice(members)]
            query = generate_ifq_along_path(run, rng.randint(2, 4), seed=rng.randrange(1 << 30))
            canonical = canonical_query_text(query)
            if canonical in seen:
                continue
            seen.add(canonical)
            if is_safe_query(run.spec, query):
                if len(safe) < SCAN_SAFE_QUERIES:
                    safe.append(query)
            elif len(unsafe) < SCAN_UNSAFE_QUERIES:
                unsafe.append(query)
        queries[fingerprint] = (safe, unsafe)
    candidates = {content: _candidates(rng, run) for content, run in runs.items()}
    # Warm each query on one run of its grammar: the cache entry, plan and
    # frontier DFAs are shared by every run of the grammar.
    first = {runs[run_id].spec.fingerprint: run_id for run_id in reversed(base)}
    warm = [
        (first[fingerprint], query)
        for fingerprint, kinds in queries.items()
        for kind in kinds
        for query in kind
    ]
    grammars = [spec.fingerprint for spec in _specs()]
    base_of = {fp: [c for c in base if runs[c].spec.fingerprint == fp] for fp in grammars}
    ingested: dict[str, list[tuple[str, str]]] = {fp: [] for fp in grammars}
    stream: list[Op] = []
    ingests = scans = 0
    while scans < count:
        if (len(stream) + 1) % SCAN_INGEST_EVERY == 0:
            content = extra[ingests % len(extra)]  # b0, b1, b2, q0, b0, ...
            run_id = f"ingest-{ingests}"
            ingests += 1
            ingested[runs[content].spec.fingerprint].append((run_id, content))
            stream.append(Op("ingest", run_id, content))
            continue
        # The (grammar, safety) class of each scan follows a fixed cycle of
        # eight: grammars alternate, and the scans at cycle positions 3 and
        # 6 (one per grammar) ask an unsafe query.  Every seed sends the same
        # share of each class; only the runs, queries and lists vary.  Safe
        # scans (Algorithm 2) are an order of magnitude cheaper than unsafe
        # ones (decomposition + frontier search), so the 3:1 mix puts the
        # median inside the safe scans and p99 inside the unsafe ones rather
        # than on the boundary between the two.
        slot = scans % 8
        fingerprint = grammars[slot % 2]
        fresh = ingested[fingerprint]
        if fresh and rng.random() < SCAN_FAVOUR_NEW:
            # Favour the newest runs: a triangular pick over the ingest order.
            pick = int(len(fresh) * (1.0 - rng.random() * rng.random()))
            run_id, content = fresh[min(pick, len(fresh) - 1)]
        else:
            run_id = content = rng.choice(base_of[fingerprint])
        safe, unsafe = queries[fingerprint]
        query = rng.choice(unsafe if slot in (3, 6) else safe)
        sources, targets = candidates[content]
        stream.append(
            Op(
                "allpairs",
                run_id,
                content,
                query,
                sources=tuple(rng.sample(sources, SCAN_LIST)),
                targets=tuple(rng.sample(targets, SCAN_LIST)),
            )
        )
        scans += 1
    return warm, stream


def _candidates(rng: random.Random, run: Run) -> tuple[list[str], list[str]]:
    """Scan endpoints: sources from the first third of a topological order,
    targets from the last third, so IFQ scans along the run find matches."""
    order = run.topological_order()
    third = max(1, len(order) // 3)
    head, tail = sorted(order[:third]), sorted(order[-third:])
    return rng.sample(head, SCAN_CANDIDATES), rng.sample(tail, SCAN_CANDIDATES)


def digest(inputs: Inputs, count: int = MIN_HEADLINE) -> str:
    """A fingerprint of the run structure (nodes, edges, tags; not labels),
    the warm pool and the first ``count`` stream operations."""
    hasher = hashlib.sha256()
    for content in sorted(inputs.runs):
        run = inputs.runs[content]
        hasher.update(content.encode())
        hasher.update(json.dumps(sorted((n.node_id, n.name) for n in run)).encode())
        hasher.update(json.dumps([(e.source, e.target, e.tag) for e in run.edges]).encode())
    hasher.update(json.dumps(sorted(inputs.base)).encode())
    hasher.update(json.dumps(inputs.warm).encode())
    hasher.update(json.dumps([op.as_json() for op in inputs.stream[:count]]).encode())
    return hasher.hexdigest()

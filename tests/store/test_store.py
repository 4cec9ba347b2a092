"""Tests for the persistent index store (round-trips, corruption, gc)."""

import json

import pytest

from repro.core.decomposition import warm_frontier_dfa
from repro.core.engine import ProvenanceQueryEngine
from repro.datasets.paper_example import paper_specification
from repro.service import IndexCache, QueryService
from repro.store import FORMAT_VERSION, IndexStore
from repro.store import store as store_module
from repro.workflow.derivation import derive_run

SAFE_QUERY = "_* e _*"
UNSAFE_QUERY = "_* a _*"


@pytest.fixture(scope="module")
def spec():
    return paper_specification()


@pytest.fixture(scope="module")
def run(spec):
    return derive_run(spec, seed=0, target_edges=60)


def _warmed_store(tmp_path, spec, queries=(SAFE_QUERY, UNSAFE_QUERY)):
    store = IndexStore(tmp_path / "store")
    cache = IndexCache(store=store)
    for query in queries:
        if cache.safety(spec, query).is_safe:
            cache.index(spec, query)
        else:
            cache.plan(spec, query)
    return store


class TestEntryRoundTrip:
    def test_safe_entry_restores_without_builds(self, tmp_path, spec, run):
        store = _warmed_store(tmp_path, spec)
        cache = IndexCache(store=IndexStore(store.root))
        index = cache.index(spec, SAFE_QUERY)
        stats = cache.stats
        assert stats.index_builds == 0
        assert stats.safety_checks == 0
        assert stats.store_hits == 1
        # The restored index shares the restored report's DFA, like a build.
        assert index.dfa is cache.safety(spec, SAFE_QUERY).dfa
        fresh = ProvenanceQueryEngine(spec)
        assert ProvenanceQueryEngine(spec, cache=cache).evaluate(
            run, SAFE_QUERY
        ) == fresh.evaluate(run, SAFE_QUERY)

    def test_unsafe_entry_restores_verdict_and_plan(self, tmp_path, spec, run):
        store = _warmed_store(tmp_path, spec)
        original = IndexCache(store=store).plan(spec, UNSAFE_QUERY)
        cache = IndexCache(store=IndexStore(store.root))
        assert not cache.safety(spec, UNSAFE_QUERY).is_safe
        plan = cache.plan(spec, UNSAFE_QUERY)
        stats = cache.stats
        assert stats.plan_builds == 0
        assert stats.safety_checks == 0
        assert plan.root == original.root
        assert plan.safe_subtrees == original.safe_subtrees
        fresh = ProvenanceQueryEngine(spec)
        assert ProvenanceQueryEngine(spec, cache=cache).evaluate(
            run, UNSAFE_QUERY
        ) == fresh.evaluate(run, UNSAFE_QUERY)

    def test_macro_dfas_persist_after_sync(self, tmp_path, spec, run):
        store = IndexStore(tmp_path / "store")
        cache = IndexCache(store=store)
        plan = cache.plan(spec, UNSAFE_QUERY)
        warm_frontier_dfa(plan, run)
        assert plan.macro_dfas()
        cache.sync(spec, UNSAFE_QUERY)
        restored = IndexCache(store=IndexStore(store.root)).plan(spec, UNSAFE_QUERY)
        assert restored.macro_dfas().keys() == plan.macro_dfas().keys()
        for key, dfa in plan.macro_dfas().items():
            assert restored.macro_dfas()[key].transitions == dfa.transitions

    def test_no_temp_files_left_behind(self, tmp_path, spec):
        store = _warmed_store(tmp_path, spec)
        assert not list(store.root.rglob("*.tmp"))


class TestCorruption:
    """Truncation, bad checksums and version bumps must degrade to a clean
    rebuild — never a crash, never a wrong answer."""

    def _entry_file(self, store):
        (path,) = store.root.glob("entries/*/*.json")
        return path

    def _assert_clean_rebuild(self, store, spec):
        cache = IndexCache(store=IndexStore(store.root))
        index = cache.index(spec, SAFE_QUERY)
        assert index is not None
        stats = cache.stats
        assert stats.store_hits == 0
        assert stats.index_builds == 1  # rebuilt from scratch
        assert stats.store_errors >= 1
        # The rebuild overwrote the bad artifact: next process hits again.
        after = IndexCache(store=IndexStore(store.root))
        after.index(spec, SAFE_QUERY)
        assert after.stats.store_hits == 1

    def test_truncated_file(self, tmp_path, spec):
        store = _warmed_store(tmp_path, spec, queries=(SAFE_QUERY,))
        path = self._entry_file(store)
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
        self._assert_clean_rebuild(store, spec)

    def test_checksum_mismatch(self, tmp_path, spec):
        store = _warmed_store(tmp_path, spec, queries=(SAFE_QUERY,))
        path = self._entry_file(store)
        envelope = json.loads(path.read_text())
        # Flip a bit inside the payload (decode, mutate, re-encode) while
        # leaving the recorded checksum untouched.
        payload = store_module._decode_payload(envelope["payload64"])
        payload["report"]["dfa"]["start"] = 1 - int(payload["report"]["dfa"]["start"])
        envelope["payload64"] = store_module._encode_payload(payload)
        path.write_text(json.dumps(envelope))
        self._assert_clean_rebuild(store, spec)

    def test_format_version_mismatch(self, tmp_path, spec):
        store = _warmed_store(tmp_path, spec, queries=(SAFE_QUERY,))
        path = self._entry_file(store)
        envelope = json.loads(path.read_text())
        envelope["format"] = FORMAT_VERSION + 1
        path.write_text(json.dumps(envelope))
        self._assert_clean_rebuild(store, spec)

    def test_not_json_at_all(self, tmp_path, spec):
        store = _warmed_store(tmp_path, spec, queries=(SAFE_QUERY,))
        self._entry_file(store).write_text("not json {")
        self._assert_clean_rebuild(store, spec)

    def test_corrupt_run_file_cannot_block_the_others(self, tmp_path, spec, run):
        store = IndexStore(tmp_path / "store")
        store.save_run("good", run)
        store.run_path("bad").parent.mkdir(parents=True, exist_ok=True)
        store.run_path("bad").write_text("garbage")
        service = QueryService(store=IndexStore(store.root))
        assert service.get_run("good").edges == run.edges
        with pytest.raises(KeyError):
            service.get_run("bad")  # corruption surfaces as unknown-run
        assert service.run_ids() == ("good",)  # ...and drops out of the registry


class TestGc:
    def test_size_budget_evicts_lru(self, tmp_path, spec):
        store = _warmed_store(
            tmp_path, spec, queries=(SAFE_QUERY, "_*", "A+", "_* b _*", "_* c _*")
        )
        infos = store.entries()
        assert len(infos) == 5
        total = store.total_bytes()
        # Touch one entry so it is the most recently used.
        cache = IndexCache(store=store)
        cache.index(spec, SAFE_QUERY)
        result = store.gc(total // 2)
        assert result.removed > 0
        assert result.remaining_bytes <= total // 2
        assert store.total_bytes() == result.remaining_bytes
        surviving = {info.query for info in store.entries()}
        assert "_* . e . _*" in surviving  # the freshly touched entry survived
        assert store.counters.evictions == result.removed

    def test_auto_gc_on_write(self, tmp_path, spec):
        probe = _warmed_store(tmp_path, spec, queries=(SAFE_QUERY,))
        budget = probe.total_bytes() + 10
        store = IndexStore(tmp_path / "bounded", max_bytes=budget)
        cache = IndexCache(store=store)
        for query in (SAFE_QUERY, "_*", "A+"):
            cache.index(spec, query)
        assert store.total_bytes() <= budget
        assert store.counters.evictions > 0

    def test_runs_are_never_evicted(self, tmp_path, spec, run):
        store = _warmed_store(tmp_path, spec)
        store.save_run("r", run)
        store.gc(0)
        assert store.run_ids() == ["r"]
        assert len(store) == 0

    def test_invalid_budget_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="max_bytes must be positive"):
            IndexStore(tmp_path / "s", max_bytes=0)


class TestRunRegistry:
    def test_run_round_trip_preserves_labels(self, tmp_path, spec, run):
        store = IndexStore(tmp_path / "store")
        store.save_run("r1", run)
        loaded = store.load_runs()["r1"]
        assert loaded.spec.fingerprint == run.spec.fingerprint
        assert loaded.nodes == run.nodes  # labels included: no re-labeling
        assert loaded.edges == run.edges

    def test_run_written_under_format_2_is_not_decoded(self, tmp_path, spec, run):
        """Format 2 labels refer to hash-seed-dependent cycle numbers, so a
        run persisted under it is a counted miss, never a decode."""
        store = IndexStore(tmp_path / "store")
        store.save_run("r1", run)
        path = store.run_path("r1")
        envelope = json.loads(path.read_text())
        envelope["format"] = 2
        path.write_text(json.dumps(envelope))
        before = store.counters.errors
        assert store.load_run("r1") is None
        assert store.counters.errors == before + 1

    def test_awkward_run_ids_are_quoted(self, tmp_path, spec, run):
        store = IndexStore(tmp_path / "store")
        store.save_run("team/a run", run)
        assert store.run_ids() == ["team/a run"]


class TestOrphanGc:
    def test_orphaned_grammar_entries_are_dropped(self, tmp_path, spec, run):
        """Entries of grammars with no registered run are reclaimed; entries
        of registered grammars survive (the gc --orphans satellite)."""
        from repro.datasets.myexperiment import bioaid_specification

        store = IndexStore(tmp_path / "store")
        store.save_run("r1", run)  # registers the paper grammar
        cache = IndexCache(store=store)
        cache.index(spec, SAFE_QUERY)  # kept: fingerprint has a run
        orphan_spec = bioaid_specification()
        cache.index(orphan_spec, "_*")  # orphan: no bioaid run registered
        result = store.gc_orphans()
        assert result.removed == 1
        assert result.freed_bytes > 0
        surviving = {info.fingerprint for info in store.entries()}
        assert surviving == {spec.fingerprint}
        assert store.run_ids() == ["r1"]  # runs are never touched
        assert store.counters.evictions == 1

    def test_store_with_no_runs_is_all_orphans(self, tmp_path, spec):
        store = _warmed_store(tmp_path, spec)
        count = len(store.entries())
        result = store.gc_orphans()
        assert result.removed == count
        assert store.entries() == []

    def test_unreadable_entries_count_as_orphans(self, tmp_path, spec, run):
        store = IndexStore(tmp_path / "store")
        store.save_run("r1", run)
        cache = IndexCache(store=store)
        cache.index(spec, SAFE_QUERY)
        path = next(iter(store.entries())).path
        path.write_text("garbage {")
        result = store.gc_orphans()
        assert result.removed == 1
        assert store.entries() == []

    def test_registered_fingerprints_reads_envelopes_only(self, tmp_path, spec, run):
        store = IndexStore(tmp_path / "store")
        store.save_run("r1", run)
        assert store.registered_fingerprints() == frozenset({spec.fingerprint})


class TestWriterCoordination:
    def test_identical_save_is_skipped(self, tmp_path, spec):
        """Re-saving byte-identical content is a counted no-op (the shared-
        volume content-addressed skip)."""
        store = IndexStore(tmp_path / "store")
        cache = IndexCache(store=store)
        report = cache.safety(spec, SAFE_QUERY)
        index = cache.index(spec, SAFE_QUERY)
        writes = store.counters.writes
        assert store.save(spec.fingerprint, "_* . e . _*", report=report, index=index, plan=None)
        counters = store.counters
        assert counters.writes == writes  # elided
        assert counters.skipped_writes >= 1

    def test_corrupted_artifact_is_still_overwritten(self, tmp_path, spec):
        """A payload corrupted under an intact checksum field must not
        suppress the repairing overwrite."""
        store = IndexStore(tmp_path / "store")
        cache = IndexCache(store=store)
        report = cache.safety(spec, SAFE_QUERY)
        index = cache.index(spec, SAFE_QUERY)
        path = store.entry_path(spec.fingerprint, "_* . e . _*")
        envelope = json.loads(path.read_text())
        payload = store_module._decode_payload(envelope["payload64"])
        payload["report"]["dfa"]["start"] = 1 - int(payload["report"]["dfa"]["start"])
        envelope["payload64"] = store_module._encode_payload(payload)
        path.write_text(json.dumps(envelope))
        writes = store.counters.writes
        assert store.save(spec.fingerprint, "_* . e . _*", report=report, index=index, plan=None)
        assert store.counters.writes == writes + 1  # really rewritten
        restored = IndexStore(store.root).load(spec, "_* . e . _*")
        assert restored is not None

    def test_entry_lock_is_exclusive_and_degrades(self, tmp_path):
        store = IndexStore(tmp_path / "store")
        with store.entry_lock("f" * 64, "q") as acquired:
            assert acquired
            with store.entry_lock("f" * 64, "q", timeout=0.2) as second:
                assert not second  # held elsewhere: degrade, never deadlock
        with store.entry_lock("f" * 64, "q", timeout=0.2) as again:
            assert again  # released on exit

    def test_stale_lock_is_broken(self, tmp_path):
        import os
        import time

        store = IndexStore(tmp_path / "store")
        path = store.entry_path("f" * 64, "q")
        lock = path.with_name(path.name + ".lock")
        lock.parent.mkdir(parents=True, exist_ok=True)
        lock.touch()
        old = time.time() - 3600
        os.utime(lock, (old, old))  # a crashed writer from an hour ago
        with store.entry_lock("f" * 64, "q", timeout=1.0) as acquired:
            assert acquired

    def test_cross_process_build_waits_for_the_winner(self, tmp_path, spec):
        """A cache losing the entry lock re-checks the store afterwards and
        restores the winner's artifact instead of rebuilding."""
        store = IndexStore(tmp_path / "store")
        IndexCache(store=store).index(spec, SAFE_QUERY)  # the "winner"
        loser = IndexCache(store=IndexStore(store.root))
        loser.index(spec, SAFE_QUERY)
        stats = loser.stats
        assert stats.index_builds == 0
        assert stats.store_hits == 1

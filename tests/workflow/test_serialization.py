"""Tests for JSON persistence of specifications and runs."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.datasets.myexperiment import bioaid_specification
from repro.datasets.paper_example import paper_run, paper_specification
from repro.errors import ReproError
from repro.workflow.serialization import (
    load_run,
    load_specification,
    run_from_dict,
    run_to_dict,
    save_run,
    save_specification,
    specification_from_dict,
    specification_to_dict,
)


class TestSpecificationRoundTrip:
    def test_paper_example(self):
        spec = paper_specification()
        clone = specification_from_dict(specification_to_dict(spec))
        assert clone.start == spec.start
        assert clone.modules == spec.modules
        assert clone.size() == spec.size()
        assert [p.head for p in clone.productions] == [p.head for p in spec.productions]
        assert clone.production(0).body == spec.production(0).body

    def test_bioaid_through_files(self, tmp_path):
        spec = bioaid_specification()
        path = tmp_path / "bioaid.json"
        save_specification(spec, path)
        loaded = load_specification(path)
        assert loaded.size() == spec.size()
        assert loaded.production_graph.recursive_productions == (
            spec.production_graph.recursive_productions
        )

    def test_wrong_kind_rejected(self):
        with pytest.raises(ReproError):
            specification_from_dict({"kind": "something-else"})


class TestRunRoundTrip:
    def test_labels_survive(self, tmp_path):
        run = paper_run(recursion_depth=3)
        path = tmp_path / "run.json"
        save_run(run, path)
        loaded = load_run(path)
        assert set(loaded.node_ids()) == set(run.node_ids())
        assert loaded.edge_count == run.edge_count
        for node_id in run.node_ids():
            assert loaded.label_of(node_id) == run.label_of(node_id)

    def test_queries_work_on_reloaded_runs(self, tmp_path):
        from repro.core.engine import ProvenanceQueryEngine

        run = paper_run()
        payload = run_to_dict(run)
        reloaded = run_from_dict(payload)
        engine = ProvenanceQueryEngine(reloaded.spec)
        assert engine.pairwise(reloaded, "c:1", "b:1", "_* e _*")
        assert not engine.pairwise(reloaded, "c:1", "b:3", "_* e _*")

    def test_wrong_kind_rejected(self):
        with pytest.raises(ReproError):
            run_from_dict({"kind": "specification"})


_CROSS_SEED_PROBE = """
import random

from repro import ProvenanceQueryEngine, bioaid_specification
from repro.baselines.product_bfs import product_bfs_pairwise
from repro.datasets.queries import generate_ifq_along_path
from repro.datasets.runs import generate_run
from repro.workflow.serialization import (
    run_from_dict,
    run_to_dict,
    specification_from_dict,
    specification_to_dict,
)

spec = bioaid_specification()
clone = specification_from_dict(specification_to_dict(spec))
numbering = [c.modules for c in spec.production_graph.cycles]
assert numbering == [c.modules for c in clone.production_graph.cycles], "cycles renumbered"

run = generate_run(spec, 1500, seed=4)
loaded = run_from_dict(run_to_dict(run))
engine = ProvenanceQueryEngine(loaded.spec)
nodes = list(loaded.node_ids())
rng = random.Random(1)
checked = 0
for seed in range(2, 12):
    query = generate_ifq_along_path(run, 2 + seed % 4, seed=seed)
    if not engine.is_safe(query):
        continue
    for _ in range(100):
        source, target = rng.choice(nodes), rng.choice(nodes)
        expected = product_bfs_pairwise(loaded, source, target, query)
        assert engine.pairwise(loaded, source, target, query) == expected, (
            query, source, target
        )
        checked += 1
assert checked, "no safe query was generated"
print(checked)
"""


class TestCycleNumberingAcrossHashSeeds:
    """Cycle indices are baked into labels, so a specification read back
    from JSON must number its recursion cycles exactly like the one the run
    was derived with, whatever the interpreter's hash seed."""

    def test_bioaid_round_trip_decodes_under_hash_seed_23(self):
        src = str(Path(__file__).resolve().parents[2] / "src")
        env = dict(os.environ, PYTHONHASHSEED="23")
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])
        )
        completed = subprocess.run(
            [sys.executable, "-c", _CROSS_SEED_PROBE],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert completed.returncode == 0, completed.stderr[-2000:]

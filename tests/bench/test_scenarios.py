"""The generic scenario harness: checksums, determinism, document schema."""

import pytest

from repro.bench.catalog import get_scenario
from repro.bench.scenarios import (
    SCHEMA,
    ExecutorFactors,
    Scenario,
    ScenarioError,
    resolve_grammar,
    resolve_scale,
    result_checksum,
    run_scenario,
    run_suite,
    run_table,
)

#: A cheap catalog entry used wherever a real workload must execute.
CHEAP_ID = "fig13d-pairwise-qblast"


class TestChecksum:
    def test_sets_and_tuples_are_order_independent(self):
        assert result_checksum({("a", "b"), ("c", "d")}) == result_checksum(
            {("c", "d"), ("a", "b")}
        )

    def test_checksum_carries_the_result_size(self):
        assert result_checksum([1, 2, 3]).startswith("3:")
        assert result_checksum({}).startswith("0:")

    def test_different_answers_flip_the_checksum(self):
        assert result_checksum({("a", "b")}) != result_checksum({("a", "c")})


class TestResolvers:
    def test_unknown_scale_raises(self):
        with pytest.raises(ScenarioError, match="unknown scale"):
            resolve_scale("enormous")

    def test_unknown_grammar_family_raises(self):
        with pytest.raises(ScenarioError, match="grammar"):
            resolve_grammar("no-such-family:100")

    def test_synthetic_families_resolve(self):
        for token in ("deep-recursion:60", "wide-alternation:60", "dense-wildcard:60"):
            assert resolve_grammar(token) is not None

    def test_unknown_query_class_raises(self):
        bogus = Scenario(
            id="x", title="x", grammar="paper-example", query_class="nonsense",
            run_edges=50,
        )
        with pytest.raises(ScenarioError, match="query class"):
            run_scenario(bogus, "smoke")


class TestRunScenario:
    def test_smoke_run_is_deterministic(self):
        scenario = get_scenario(CHEAP_ID)
        first = run_scenario(scenario, "smoke", repetitions=2)
        second = run_scenario(scenario, "smoke", repetitions=2)
        assert first.checksum == second.checksum
        assert first.repetitions == 2
        assert len(first.times_s) == 2
        assert first.median_s >= 0.0
        assert first.p95_s >= first.median_s >= 0.0

    def test_result_row_shape(self):
        result = run_scenario(get_scenario(CHEAP_ID), "smoke", repetitions=1)
        row = result.as_dict()
        assert row["id"] == CHEAP_ID
        assert set(row) == {
            "id", "factors", "repetitions", "times_s", "median_s", "p95_s",
            "checksum", "detail",
        }
        assert row["factors"]["grammar"] == "qblast"
        assert row["factors"]["executor"] == ExecutorFactors().as_dict()


    def test_g1_baseline_answers_like_the_packed_join(self):
        packed = run_scenario(get_scenario("kernel-packed-join"), "smoke", repetitions=1)
        g1 = run_scenario(get_scenario("g1-join-baseline"), "smoke", repetitions=1)
        assert g1.checksum == packed.checksum
        assert not g1.checksum.startswith("0:")


class TestRunSuite:
    def test_document_schema_and_table(self):
        document = run_suite([get_scenario(CHEAP_ID)], "smoke", suite="ci", repetitions=1)
        assert document["schema"] == SCHEMA
        assert document["scale"] == "smoke"
        assert document["calibration_s"] > 0.0
        assert document["cpus"] >= 1
        [entry] = document["scenarios"]
        assert entry["id"] == CHEAP_ID
        [row] = run_table(document)
        assert row["scenario"] == CHEAP_ID
        assert 'median_ms' in row
        assert 'checksum' in row

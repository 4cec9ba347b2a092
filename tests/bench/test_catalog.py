"""The scenario catalog: unique ids, resolvable factors, sound invariants."""

import pytest

from repro.bench.catalog import CATALOG, INVARIANTS, check_catalog, get_scenario, select
from repro.bench.scenarios import ScenarioError, resolve_grammar


class TestCatalogShape:
    def test_ids_are_unique(self):
        ids = [scenario.id for scenario in CATALOG]
        assert len(ids) == len(set(ids))

    def test_static_check_is_clean(self):
        assert check_catalog(runnable=False) == []

    def test_invariants_reference_existing_scenarios(self):
        ids = {scenario.id for scenario in CATALOG}
        for invariant in INVARIANTS:
            assert invariant.fast in ids, invariant.id
            assert invariant.slow in ids, invariant.id

    def test_every_grammar_token_resolves(self):
        for scenario in CATALOG:
            assert resolve_grammar(scenario.grammar) is not None

    def test_ci_suite_is_nonempty_and_within_catalog(self):
        ci = select(suite="ci")
        assert ci
        assert {scenario.id for scenario in ci} <= {scenario.id for scenario in CATALOG}

    def test_g1_baseline_replays_the_packed_join_workload(self):
        packed = get_scenario("kernel-packed-join")
        g1 = get_scenario("g1-join-baseline")
        for factor in ("grammar", "query_class", "run_edges", "seed", "suites"):
            assert getattr(g1, factor) == getattr(packed, factor), factor
        assert g1.param("query") == packed.param("query")
        assert g1.param("evaluator") == "g1"
        [invariant] = [inv for inv in INVARIANTS if inv.id == "join-beats-g1-5x"]
        assert (invariant.fast, invariant.slow, invariant.factor) == (
            "kernel-packed-join", "g1-join-baseline", 5.0,
        )

    def test_synthetic_grammar_families_are_covered(self):
        families = {scenario.grammar.split(":")[0] for scenario in CATALOG}
        assert {"deep-recursion", "wide-alternation", "dense-wildcard"} <= families


class TestSelection:
    def test_get_scenario_unknown_id_raises(self):
        with pytest.raises(ScenarioError, match="unknown scenario"):
            get_scenario("no-such-scenario")

    def test_select_explicit_ids_preserves_argument_order(self):
        ids = [scenario.id for scenario in reversed(CATALOG[:3])]
        picked = select(ids=ids)
        assert [scenario.id for scenario in picked] == ids

    def test_select_unknown_suite_raises(self):
        with pytest.raises(ScenarioError, match="known suites"):
            select(suite="nightly")

    def test_select_all_suite_returns_everything(self):
        assert len(select(suite="all")) == len(CATALOG)

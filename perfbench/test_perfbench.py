"""Tests of the benchmark's own logic.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
for path in (HERE, HERE.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import inputs  # noqa: E402
from repro.automata.regex import canonical_query_text  # noqa: E402
import layers  # noqa: E402
import oracle  # noqa: E402
from speed import (  # noqa: E402
    REFERENCE_S,
    SpeedMeter,
    percentile,
    speed_factor,
    tail_percentile,
)


class TestPercentileRule:
    @pytest.mark.parametrize(
        ("count", "expected"),
        [(1_000, 99.0), (999, 95.0), (200, 95.0), (199, 90.0), (20, 50.0), (19, None)],
    )
    def test_tail_keeps_ten_samples_beyond(self, count, expected):
        assert tail_percentile(count) == expected

    def test_tail_never_exceeds_the_wanted_percentile(self):
        assert tail_percentile(1_000_000) == 99.0
        assert tail_percentile(10_000, wanted=99.9) == 99.9
        assert tail_percentile(9_999, wanted=99.9) == 99.0

    def test_nearest_rank(self):
        values = list(range(1, 1001))
        assert percentile(values, 99.0) == 990
        assert percentile(values, 50.0) == 500
        assert percentile([7.0], 99.0) == 7.0
        with pytest.raises(ValueError):
            percentile([], 50.0)


class TestSpeedAdjustment:
    def test_factor_is_reference_over_mean_kernel_time(self):
        assert speed_factor(0.004, 0.004, reference=0.002) == pytest.approx(0.5)
        assert speed_factor(0.001, 0.003, reference=0.002) == pytest.approx(1.0)
        with pytest.raises(ValueError):
            speed_factor(0.0, 0.002)

    def test_meter_scales_each_block_by_its_own_kernel_times(self):
        kernel_times = iter([0.002, 0.004, 0.001])
        meter = SpeedMeter(kernel=lambda: next(kernel_times))
        meter.close(1.0, 10, {"read": [0.1, 0.3]})
        meter.close(2.0, 30, {"read": [0.5]})
        # Block 1 ran between kernels of 2 and 4 ms (mean 3 ms), block 2
        # between 4 and 1 ms (mean 2.5 ms).
        first, second = REFERENCE_S / 0.003, REFERENCE_S / 0.0025
        assert meter.kernel_s == [0.002, 0.004, 0.001]
        assert meter.raw("read") == [0.1, 0.3, 0.5]
        assert meter.adjusted("read") == pytest.approx([0.1 * first, 0.3 * first, 0.5 * second])
        assert meter.ops == 40
        assert meter.raw_s == pytest.approx(3.0)
        assert meter.adjusted_s == pytest.approx(1.0 * first + 2.0 * second)

    def test_a_uniformly_slower_machine_reads_the_same(self):
        def run(slowdown):
            kernel_times = iter([0.002 * slowdown] * 3)
            meter = SpeedMeter(kernel=lambda: next(kernel_times))
            meter.close(0.5 * slowdown, 5, {"read": [0.1 * slowdown]})
            meter.close(0.7 * slowdown, 5, {"read": [0.2 * slowdown]})
            return meter.ops / meter.adjusted_s, meter.adjusted("read")

        fast, slow = run(1.0), run(1.6)
        assert slow[0] == pytest.approx(fast[0])
        assert slow[1] == pytest.approx(fast[1])


class TestInputs:
    def test_same_seed_same_inputs(self, tmp_path):
        first = inputs.make_inputs("compile-cold", 7, 0, tmp_path / "a")
        second = inputs.make_inputs("compile-cold", 7, 0, tmp_path / "b")
        other = inputs.make_inputs("compile-cold", 8, 0, tmp_path / "c")
        assert first.stream == second.stream
        assert inputs.digest(first) == inputs.digest(second)
        assert inputs.digest(first) != inputs.digest(other)

    def test_compile_cold_queries_are_distinct(self, tmp_path):
        generated = inputs.make_inputs("compile-cold", 3, 0, tmp_path)
        assert len(generated.stream) == inputs.MIN_HEADLINE
        keys = {
            (generated.runs[op.content].spec.fingerprint, canonical_query_text(op.query))
            for op in generated.stream
        }
        assert len(keys) == len(generated.stream)

    #: A hash seed under which the in-memory BioAID specification and its
    #: read-back number the recursion cycles differently.
    MISNUMBERING_HASH_SEED = "23"

    ROUND_TRIP = """
import sys
from pathlib import Path
sys.path[:0] = [{here!r}, {src!r}]
import inputs
from repro.workflow.serialization import load_run
generated = inputs.make_inputs("scan-ingest", 5, 0, Path({workdir!r}))
print(all(inputs.cycle_numbering_agrees().values()))
print(all(
    load_run(path).spec.production_graph.cycles
    == generated.runs[content].spec.production_graph.cycles
    for content, path in generated.files.items()
))
"""

    def test_run_files_read_back_with_the_cycles_they_were_labelled_with(self, tmp_path):
        import os
        import subprocess

        script = self.ROUND_TRIP.format(
            here=str(HERE), src=str(HERE.parent / "src"), workdir=str(tmp_path)
        )
        env = dict(os.environ, PYTHONHASHSEED=self.MISNUMBERING_HASH_SEED)
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
        )
        # The in-memory specification misnumbers under this hash seed, yet
        # every run file reads back with the cycles it was labelled with.
        assert done.stdout.split() == ["False", "True"]

    def test_stream_length_keeps_the_p99_sample_floor(self):
        assert inputs.stream_length("compile-cold", 1) == inputs.MIN_HEADLINE
        assert tail_percentile(inputs.stream_length("serve-hot", 1)) == 99.0


class TestOracle:
    @pytest.fixture(scope="class")
    def paper(self):
        from repro import paper_run

        run = paper_run()
        nodes = sorted(run.node_ids())
        ops = {
            0: inputs.Op("pairwise", "r", "r", "_* e _*", nodes[0], nodes[-1]),
            1: inputs.Op("reachability", "r", "r", None, nodes[0], nodes[1]),
            2: inputs.Op("allpairs", "r", "r", "_*", sources=tuple(nodes), targets=tuple(nodes)),
        }
        return {"r": run}, ops

    def test_agrees_with_itself_and_flags_a_planted_wrong_answer(self, paper):
        runs, ops = paper
        want = oracle.expected(runs, ops)
        assert oracle.mismatches(want, want) == []
        planted = dict(want)
        planted[0] = not want[0]
        assert oracle.mismatches(planted, want) == [0]
        dropped = dict(want)
        dropped[2] = frozenset(sorted(want[2])[1:])
        assert oracle.mismatches(dropped, want) == [2]
        missing = {position: answer for position, answer in want.items() if position != 1}
        assert oracle.mismatches(missing, want) == [1]

    def test_refuses_a_check_that_gates_nothing(self):
        with pytest.raises(oracle.GateError):
            oracle.require_informative("w", {0: False, 1: frozenset()})
        oracle.require_informative("w", {0: False, 1: True})

    def test_answers_digest_is_order_independent_and_content_sensitive(self):
        one = oracle.answers_digest([(1, True), (0, frozenset({("a", "b")}))])
        two = oracle.answers_digest([(0, frozenset({("a", "b")})), (1, True)])
        assert one == two
        assert one != oracle.answers_digest([(1, False), (0, frozenset({("a", "b")}))])


class TestLayers:
    def test_instrument_restores_every_patched_name(self):
        import importlib

        before = [getattr(importlib.import_module(m), a) for m, a, _ in layers.FUNCTIONS]
        with layers.instrument():
            during = [getattr(importlib.import_module(m), a) for m, a, _ in layers.FUNCTIONS]
        after = [getattr(importlib.import_module(m), a) for m, a, _ in layers.FUNCTIONS]
        assert after == before
        assert all(x is not y for x, y in zip(before, during))

    def test_nested_calls_are_subtracted_from_their_caller(self):
        clock = layers.LayerClock()
        clock.timed("outer", lambda: clock.timed("inner", lambda: sum(range(10_000))))
        samples = clock.take()
        assert set(samples) == {"outer", "inner"}
        assert clock.outer_s >= samples["outer"][0] + samples["inner"][0] - 1e-9
        assert samples["outer"][0] >= 0.0

"""Fast self-test of the benchmark harness (tiny shapes, a few seconds).

    python3 benchmarks/selftest.py
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
import unittest
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import corpusgen  # noqa: E402
import exactcheck  # noqa: E402
import run  # noqa: E402
import wisebe.cli  # noqa: E402
import wisebe.model  # noqa: E402
import wisebe.report  # noqa: E402
from layertrace import Span, Tracer, covered, self_times, summarize  # noqa: E402


def _tree(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


class Scratch(unittest.TestCase):
    def setUp(self):
        run.OUT.mkdir(exist_ok=True)
        self._tmp = tempfile.TemporaryDirectory(dir=run.OUT)
        self.tmp = Path(self._tmp.name)

    def tearDown(self):
        self._tmp.cleanup()

    def cli(self, *argv: str) -> bytes:
        out = self.tmp / "report.out"
        with contextlib.redirect_stderr(io.StringIO()) as err:
            code = wisebe.cli.main([*argv, "--output", str(out)])
        self.assertEqual((code, err.getvalue()), (0, ""))
        return out.read_bytes()


class GeneratorTest(Scratch):
    def corpus(self, seed: int, name: str) -> dict[str, bytes]:
        specs = corpusgen.make_documents(seed, "t", 3, 300, 3, 2, token_jitter=20)
        corpusgen.write_text_corpus(self.tmp / name / "text", specs, seed)
        corpusgen.write_json_corpus(self.tmp / name / "json", specs)
        return _tree(self.tmp / name)

    def test_same_seed_gives_identical_bytes(self):
        first = self.corpus(7, "a")
        self.assertEqual(len(first), 3 * 5 + 3)
        self.assertEqual(first, self.corpus(7, "b"))
        self.assertNotEqual(first, self.corpus(8, "c"))

    def test_text_normalizes_to_generated_positions(self):
        for seed in range(5):
            spec = corpusgen.make_documents(seed, "n", 1, 400, 2, 2)[0]
            for i, (_, positions) in enumerate(spec.references + spec.systems):
                rng = corpusgen.random.Random(f"{seed}:{i}")
                text = corpusgen.render_text(rng, spec.tokens, positions)
                transcript, vector = wisebe.model.parse_segmented_text(text)
                self.assertEqual(transcript.tokens, spec.tokens)
                self.assertEqual(vector.positions, positions)


class CheckerTest(Scratch):
    def setUp(self):
        super().setUp()
        self.specs = corpusgen.make_documents(3, "c", 4, 200, 3, 2, token_jitter=30)
        corpusgen.write_text_corpus(self.tmp / "corpus", self.specs, 3)
        self.root = str(self.tmp / "corpus")

    def test_json_report_passes_and_corruption_is_flagged(self):
        data = self.cli("eval", self.root, "--format", "json", "--baselines", "--threshold", "2")
        want = exactcheck.eval_rows(self.specs, 2, True, 2)
        rows = exactcheck.parse_json_rows(data)
        self.assertEqual(exactcheck.compare_rows(want, rows), [])
        rows[1]["lenient_recall"] = round(rows[1]["lenient_recall"] - 0.002, 3)
        self.assertEqual(len(exactcheck.compare_rows(want, rows)), 1)
        self.assertTrue(exactcheck.compare_rows(want, rows[:-1]))

    def test_csv_report_passes_and_corruption_is_flagged(self):
        data = self.cli("eval", self.root, "--format", "csv", "--window-limit", "0")
        want = exactcheck.eval_rows(self.specs, 0)
        self.assertEqual(exactcheck.compare_rows(want, exactcheck.parse_csv_rows(data)), [])
        lines = data.decode().splitlines()
        cells = lines[2].split(",")
        cells[6] = f"{float(cells[6]) + 0.002:.3f}"          # f1_rw
        lines[2] = ",".join(cells)
        corrupted = ("\n".join(lines) + "\n").encode()
        self.assertTrue(exactcheck.compare_rows(want, exactcheck.parse_csv_rows(corrupted)))

    def test_agreement_table_and_pearson(self):
        data = self.cli("agreement", self.root, "--format", "table")
        want, pcc = exactcheck.agreement_rows(self.specs)
        rows, shown = exactcheck.parse_agreement_table(data)
        self.assertEqual(exactcheck.compare_rows(want, rows), [])
        self.assertEqual(exactcheck.compare_pearson(pcc, shown), [])
        self.assertTrue(exactcheck.compare_pearson(pcc, shown + 0.002))
        self.assertTrue(exactcheck.compare_pearson(pcc, None))


class InvariantTest(Scratch):
    def test_skipped_work_fails_the_invocation(self):
        tiny = run.Workload("text", 3, 200, 0, 3, 2, "eval", "json", baselines=True)
        with mock.patch.dict(run.WORKLOADS, {"tiny": tiny}):
            runner = run.Runner("tiny", 5, self.tmp, wisebe.cli)
        tracer = Tracer()
        _, spans = runner.invoke(tracer)
        self.assertEqual((runner.attempted, runner.failures), (1, []))
        self.assertEqual(runner.invariants(spans, []), [])
        cached = [s for s in spans if s.name != "model.parse_segmented_text"]
        self.assertEqual([p.split(" =")[0] for p in runner.invariants(cached, [])],
                         ["model.parse_calls", "model.tokens_parsed"])
        self.assertEqual(runner.invariants(cached, ["model.parse_segmented_text"]), [])
        no_windows = [s for s in spans if s.name != "aggregation.build_window_reference"]
        self.assertEqual(len(runner.invariants(no_windows, [])), 1)


class TracerTest(unittest.TestCase):
    def test_self_time_on_synthetic_tree(self):
        spans = [Span(0, "root", 0.0, 10.0, None, 1),
                 Span(1, "a", 1.0, 4.0, 0, 1),
                 Span(2, "leaf", 2.0, 3.0, 1, 1),
                 Span(3, "b", 5.0, 6.5, 0, 1),
                 Span(4, "a", 7.0, 8.0, 0, 1)]
        self.assertEqual(self_times(spans), {0: 4.5, 1: 2.0, 2: 1.0, 3: 1.5, 4: 1.0})
        summary = summarize(spans)
        self.assertEqual(summary.calls["a"], 2)
        self.assertEqual(summary.inclusive["a"], 4.0)
        self.assertEqual(summary.self_time["a"], 3.0)
        self.assertEqual(covered([(0, 2), (1, 3), (5, 6)]), 4)
        self.assertEqual(covered([(0, 2), (1, 3), (5, 6)], 1.5, 5.5), 2.0)

    def test_missing_targets_are_absent_and_bindings_restored(self):
        original = wisebe.model.parse_segmented_text
        targets = (("model", "parse_segmented_text"), ("model", "no_such_function"),
                   ("no_such_module", "main"), ("model", "NoSuchClass.method"),
                   ("baselines", "strict_prf"))
        tracer = Tracer(targets=targets)
        with tracer:
            self.assertIsNot(wisebe.model.parse_segmented_text, original)
            self.assertIs(wisebe.report.strict_prf, wisebe.baselines.strict_prf)
            tracer.request()
            wisebe.model.parse_segmented_text("a b. c", "d")
        self.assertEqual(tracer.absent, ["model.no_such_function", "no_such_module.main",
                                         "model.method"])
        self.assertIs(wisebe.model.parse_segmented_text, original)
        self.assertIs(wisebe.parse_segmented_text, original)
        (span,) = tracer.take()
        self.assertEqual((span.name, span.counts), ("model.parse_segmented_text", {"tokens": 3}))

    def test_private_helpers_are_refused(self):
        with self.assertRaises(ValueError):
            Tracer(targets=(("model", "_scan"),))

    def test_imported_bindings_are_traced(self):
        def bindings():
            return (wisebe.report.strict_prf, wisebe.cli.load_corpus,
                    wisebe.model.BoundaryVector.from_positions)

        tracer = Tracer()
        with tracer:
            self.assertTrue(all(hasattr(b, "__wrapped__") for b in bindings()))
        self.assertEqual(tracer.absent, [])
        self.assertFalse(any(hasattr(b, "__wrapped__") for b in bindings()))


class BenchmarkSpecTest(unittest.TestCase):
    def test_benchmark_json_matches_the_harness(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]],
                         list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]],
                         list(run.PER_LAYER))
        self.assertEqual(spec["run_seconds"], run.RUN_SECONDS)


if __name__ == "__main__":
    unittest.main()

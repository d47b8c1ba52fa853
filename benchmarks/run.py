"""Benchmark for the wisebe CLI: end-to-end timings and per-layer traces.

    python3 benchmarks/run.py --workload text_eval --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py --seed 1                    # every workload in turn

Each run generates a seeded synthetic corpus inside benchmarks/out/, runs
`wisebe.cli.main(argv)` in-process on it with `--output` to a file, and
checks every report against an exact recomputation from the generator's
boundary positions (exactcheck.py) and the demo-corpus goldens
(goldens.py).  `--trace 0` times the untraced CLI and prints the
end-to-end metrics; `--trace 1` alternates untraced and traced
invocations and prints the per-layer metrics.  The last line of stdout
is one JSON object: {"correct", "attempted", "failed", "metrics"}.

Every layer is single-threaded and has no queue, so no metric reports
time spent waiting.  See README.md for the workloads and what each
metric is expected to move.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import corpusgen
import exactcheck
import goldens
import yardstick
from layertrace import Tracer, summarize

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
ENV_WINDOW_LIMIT = "WISEBE_WINDOW_LIMIT"
MIN_SAMPLES = 3
RUN_SECONDS = 30.0          # BENCHMARK.json "run_seconds"; the baseline in README.md uses it
SETUP_RUNS = 9
# Nominal start-up of a bare interpreter: setup_s is expressed at this speed.
INTERPRETER_REFERENCE_S = 0.05


@dataclass(frozen=True)
class Workload:
    layout: str                 # "text" (directory documents) or "json" (pre-tokenized)
    docs: int
    tokens: int
    token_jitter: int
    m: int
    k: int
    command: str                # "eval" or "agreement"
    fmt: str
    baselines: bool = False
    threshold: int | None = None

    def argv(self, corpus: Path, output: Path) -> list[str]:
        argv = [self.command, str(corpus), "--format", self.fmt, "--output", str(output)]
        if self.baselines:
            argv.append("--baselines")
        if self.threshold is not None:
            argv += ["--threshold", str(self.threshold)]
        return argv


# Why these three: see README.md.  Parsing dominates text_eval, json_long
# skips the parser and puts the time in vote fusion and scoring, and
# tiny_agreement is dominated by per-document and per-call fixed costs.
WORKLOADS = {
    "text_eval": Workload("text", 5, 10_000, 0, 3, 4, "eval", "json",
                          baselines=True, threshold=2),
    "json_long": Workload("json", 2, 25_000, 0, 5, 4, "eval", "csv",
                          baselines=True, threshold=3),
    "tiny_agreement": Workload("text", 1500, 40, 10, 3, 0, "agreement", "table"),
}

END_TO_END = (("run_s", "s"), ("positions_per_s", "positions/s"),
              ("peak_rss_mb", "MB"), ("setup_s", "s"))

PER_LAYER = (
    ("model.parse_s", "s"), ("model.parse_calls", "count"),
    ("model.tokens_parsed", "count"), ("model.parse_mtok_per_s", "Mtok/s"),
    ("model.align_s", "s"), ("model.align_calls", "count"),
    ("model.from_positions_s", "s"),
    ("corpus.load_document_self_s", "s"), ("corpus.bytes_read", "bytes"),
    ("corpus.load_corpus_s", "s"), ("corpus.documents", "count"),
    ("aggregation.general_s", "s"), ("aggregation.general_calls", "count"),
    ("aggregation.window_s", "s"), ("aggregation.window_calls", "count"),
    ("aggregation.windows", "count"), ("aggregation.consensus_s", "s"),
    ("aggregation.vote_builds_per_doc", "ratio"),
    ("scoring.wisebe_score_self_s", "s"), ("scoring.precision_s", "s"),
    ("scoring.recall_s", "s"),
    ("baselines.strict_prf_s", "s"), ("baselines.strict_prf_calls", "count"),
    ("baselines.strict_calls_per_pair", "ratio"), ("baselines.mean_prf_s", "s"),
    ("baselines.mean_ser_s", "s"), ("baselines.lenient_s", "s"),
    ("agreement.kappa_s", "s"), ("agreement.kappa_calls", "count"),
    ("agreement.pearson_s", "s"),
    ("report.evaluate_document_self_s", "s"), ("report.render_s", "s"),
    ("report.output_bytes", "bytes"), ("report.doc_errors", "count"),
    ("cli.self_s", "s"), ("trace.overhead_ratio", "ratio"),
)
# Per-layer metrics that are exact counts: they must repeat across invocations.
COUNT_METRICS = frozenset(name for name, unit in PER_LAYER if unit in ("count", "bytes")) | {
    "aggregation.vote_builds_per_doc", "baselines.strict_calls_per_pair"}

SETUP_CODE = "import sys; sys.path.insert(0, sys.argv[1]); import wisebe.cli; wisebe.cli.build_parser()"
RSS_CODE = """\
import json, resource, sys
sys.path.insert(0, sys.argv[1])
import wisebe.cli
code = wisebe.cli.main(sys.argv[2:])
print(json.dumps({"code": code, "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}))
"""


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def layer_metrics(summary, docs: int, pairs: int, scale: float) -> dict[str, float]:
    """Per-layer metrics of one traced invocation (trace.overhead_ratio excluded).

    Times are multiplied by `scale`, the invocation's host-speed factor.
    """
    calls = summary.calls.get

    def inc(name, default):
        return summary.inclusive.get(name, default) * scale

    def own(name, default):
        return summary.self_time.get(name, default) * scale

    def count(key):
        value = summary.counts.get(key, 0)
        return -1 if value is None else value      # -1 flags an unreadable counter

    parse_s = inc("model.parse_segmented_text", 0.0)
    tokens = count("model.parse_segmented_text.tokens")
    vote_builds = sum(calls(f, 0) for f in (
        "aggregation.build_general_reference", "aggregation.consensus_reference",
        "agreement.fleiss_kappa", "baselines.lenient_prf"))
    return {
        "model.parse_s": parse_s,
        "model.parse_calls": calls("model.parse_segmented_text", 0),
        "model.tokens_parsed": tokens,
        "model.parse_mtok_per_s": tokens / parse_s / 1e6 if parse_s else 0.0,
        "model.align_s": inc("model.align", 0.0),
        "model.align_calls": calls("model.align", 0),
        "model.from_positions_s": inc("model.from_positions", 0.0),
        "corpus.load_document_self_s": own("corpus.load_document", 0.0),
        "corpus.bytes_read": count("corpus.load_document.bytes"),
        "corpus.load_corpus_s": inc("corpus.load_corpus", 0.0),
        "corpus.documents": count("corpus.load_corpus.documents"),
        "aggregation.general_s": inc("aggregation.build_general_reference", 0.0),
        "aggregation.general_calls": calls("aggregation.build_general_reference", 0),
        "aggregation.window_s": inc("aggregation.build_window_reference", 0.0),
        "aggregation.window_calls": calls("aggregation.build_window_reference", 0),
        "aggregation.windows": count("aggregation.build_window_reference.windows"),
        "aggregation.consensus_s": inc("aggregation.consensus_reference", 0.0),
        "aggregation.vote_builds_per_doc": vote_builds / docs,
        "scoring.wisebe_score_self_s": own("scoring.wisebe_score", 0.0),
        "scoring.precision_s": inc("scoring.windowed_precision", 0.0),
        "scoring.recall_s": inc("scoring.windowed_recall", 0.0),
        "baselines.strict_prf_s": inc("baselines.strict_prf", 0.0),
        "baselines.strict_prf_calls": calls("baselines.strict_prf", 0),
        "baselines.strict_calls_per_pair":
            calls("baselines.strict_prf", 0) / pairs if pairs else 0.0,
        "baselines.mean_prf_s": inc("baselines.mean_prf", 0.0),
        "baselines.mean_ser_s": inc("baselines.mean_ser", 0.0),
        "baselines.lenient_s": inc("baselines.lenient_prf", 0.0),
        "agreement.kappa_s": inc("agreement.fleiss_kappa", 0.0),
        "agreement.kappa_calls": calls("agreement.fleiss_kappa", 0),
        "agreement.pearson_s": inc("agreement.pearson", 0.0),
        "report.evaluate_document_self_s": own("report.evaluate_document", 0.0),
        "report.render_s": inc("report.render_report", 0.0) + inc("report.render_agreement", 0.0),
        "report.output_bytes": count("report.render_report.bytes")
                               + count("report.render_agreement.bytes"),
        "report.doc_errors": count("report.evaluate_corpus.errors")
                             + count("report.evaluate_agreement.errors"),
        "cli.self_s": own("cli.main", 0.0),
    }


class Runner:
    """One workload at one seed: corpus, checks, and the measured invocations."""

    def __init__(self, name: str, seed: int, work: Path, cli):
        self.name = name
        self.shape = WORKLOADS[name]
        self.work = work
        self.cli = cli
        self.lines: list[str] = []
        self.attempted = 0
        self.failures: list[str] = []
        self._verdicts: dict[bytes, list[str]] = {}
        self.metrics: dict[str, tuple[float, str]] = {}
        shape = self.shape
        t0 = time.perf_counter()
        self.specs = corpusgen.make_documents(seed, name, shape.docs, shape.tokens,
                                              shape.m, shape.k, shape.token_jitter)
        self.corpus = work / "corpus"
        if shape.layout == "json":
            self.corpus_bytes = corpusgen.write_json_corpus(self.corpus, self.specs)
        else:
            self.corpus_bytes = corpusgen.write_text_corpus(self.corpus, self.specs, seed)
        self.positions = sum(s.n for s in self.specs) * (shape.m + shape.k)
        self.window_counts = {
            len(exactcheck.windows(sorted(set().union(*(p for _, p in s.references))), 2))
            for s in self.specs}
        self.output = work / "report.out"
        self.argv = shape.argv(self.corpus, self.output)
        self.lines.append(
            f"# workload {name} seed {seed}: {shape.docs} docs, {self.positions / (shape.m + shape.k):.0f} "
            f"tokens, m={shape.m} k={shape.k}, {self.corpus_bytes} bytes, generated in "
            f"{time.perf_counter() - t0:.2f} s")
        self.lines.append("# command: wisebe " + " ".join(
            a if not a.startswith(str(work)) else "<" + Path(a).name + ">" for a in self.argv))

    # -- correctness ---------------------------------------------------------

    def verdict(self, data: bytes) -> list[str]:
        """Problems the independent check finds in one report (cached per distinct output)."""
        if data not in self._verdicts:
            shape = self.shape
            try:
                if shape.command == "agreement":
                    want, want_pcc = exactcheck.agreement_rows(self.specs)
                    rows, pcc = exactcheck.parse_agreement_table(data)
                    problems = exactcheck.compare_rows(want, rows) + \
                        exactcheck.compare_pearson(want_pcc, pcc)
                else:
                    want = exactcheck.eval_rows(self.specs, 2, shape.baselines, shape.threshold)
                    parse = exactcheck.parse_json_rows if shape.fmt == "json" \
                        else exactcheck.parse_csv_rows
                    problems = exactcheck.compare_rows(want, parse(data))
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                problems = [f"report unreadable: {type(exc).__name__}: {exc}"]
            self._verdicts[data] = problems
        return self._verdicts[data]

    def record(self, code: int | str, data: bytes, stderr: str, problems=()):
        """Count one invocation.

        It fails on a non-zero exit, on a report failing the check, or on
        any of `problems` the caller found.
        """
        self.attempted += 1
        if code != 0:
            self.failures.append(f"exit {code}: {stderr.strip()[:300]}")
        elif problems := [*problems, *("report check: " + p for p in self.verdict(data))]:
            self.failures.append("; ".join(problems))

    def invariants(self, spans, absent) -> list[str]:
        """Exact counts one traced invocation must show, for every target still present.

        Each file is parsed once, each document loaded, and each window
        set built from its document, in every invocation.  A count below
        these means work was skipped, for example by caching across
        invocations, which would make run_s meaningless.  A target a
        refactor deletes or renames is absent and its check is skipped.
        """
        shape = self.shape

        def per_call(name, key):
            if name in absent:
                return None
            values = [s.counts.get(key) for s in spans if s.name == name]
            return None if None in values else values

        checks = []
        tokens = per_call("model.parse_segmented_text", "tokens")
        if shape.layout == "text" and tokens is not None:
            checks += [("model.parse_calls", len(tokens), len(self.specs) * (shape.m + shape.k)),
                       ("model.tokens_parsed", sum(tokens), self.positions)]
        if (documents := per_call("corpus.load_corpus", "documents")) is not None:
            checks.append(("corpus.documents", sum(documents), len(self.specs)))
        if shape.command == "eval" and \
                (windows := per_call("aggregation.build_window_reference", "windows")) is not None:
            checks.append(("window counts per document", set(windows), self.window_counts))
        return [f"{name} = {got}, expected {want}" for name, got, want in checks if got != want]

    def check_goldens(self):
        attempted, failures = goldens.check(self.cli.main, ROOT, self.work)
        self.attempted += attempted
        self.failures += failures

    # -- invocations ---------------------------------------------------------

    def invoke(self, tracer: Tracer | None = None) -> tuple[float, list]:
        """One in-process CLI invocation; returns its wall seconds and its spans.

        Besides the report check, the invocation must read at least the
        corpus's bytes from files (skipped where /proc/self/io is missing),
        and a traced one must show the exact counts of `invariants`.
        """
        self.output.unlink(missing_ok=True)
        gc.collect()
        err = io.StringIO()
        read_before = bytes_read()
        with contextlib.redirect_stderr(err), (tracer or contextlib.nullcontext()):
            if tracer is not None:
                tracer.request()
            t0 = time.perf_counter()
            try:
                code = self.cli.main(self.argv)
            except Exception as exc:       # a traceback is a failed invocation, not a crash
                code = f"exception {type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - t0
        problems = []
        if read_before is not None and (read := bytes_read() - read_before) < self.corpus_bytes:
            problems.append(f"read {read} bytes of a {self.corpus_bytes}-byte corpus")
        spans = []
        if tracer is not None:
            spans = tracer.take()
            problems += self.invariants(spans, tracer.absent)
        data = self.output.read_bytes() if self.output.exists() else b""
        self.record(code, data, err.getvalue(), problems)
        return elapsed, spans

    def _subprocess(self, code: str, *args: str) -> tuple[float, subprocess.CompletedProcess]:
        env = {k: v for k, v in os.environ.items() if k != ENV_WINDOW_LIMIT}
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code, str(SRC), *args], env=env,
                              capture_output=True, text=True, timeout=120)
        return time.perf_counter() - t0, proc

    def setup_seconds(self) -> tuple[list[float], list[float]]:
        """(normalized, wall) seconds of fresh interpreters importing wisebe.cli.

        Each launch alternates with a bare interpreter start, and is
        scaled by INTERPRETER_REFERENCE_S over the mean of its two
        neighbours, which cancels the host's speed at that moment.
        """
        self._subprocess(SETUP_CODE)                   # warm the bytecode cache
        bare = [self._subprocess("pass")[0]]
        normalized, wall = [], []
        for _ in range(SETUP_RUNS):
            elapsed, proc = self._subprocess(SETUP_CODE)
            bare.append(self._subprocess("pass")[0])
            self.attempted += 1
            if proc.returncode != 0:
                self.failures.append(f"setup exit {proc.returncode}: {proc.stderr.strip()[:300]}")
            wall.append(elapsed)
            normalized.append(elapsed * 2 * INTERPRETER_REFERENCE_S / (bare[-2] + bare[-1]))
        self.lines.append(f"# bare interpreter start: {statistics.median(bare):.4f} s wall "
                          f"(median of {len(bare)})")
        return normalized, wall

    def peak_rss_mb(self) -> float:
        """ru_maxrss of a fresh process doing one invocation (it varies by <1%)."""
        self.output.unlink(missing_ok=True)
        _, proc = self._subprocess(RSS_CODE, *self.argv)
        try:
            result = json.loads(proc.stdout.strip().splitlines()[-1])
        except (json.JSONDecodeError, IndexError):
            self.attempted += 1
            self.failures.append(f"rss run exit {proc.returncode}: {proc.stderr.strip()[:300]}")
            return 0.0
        data = self.output.read_bytes() if self.output.exists() else b""
        self.record(result["code"], data, proc.stderr)
        return result["maxrss_kb"] / 1024

    @staticmethod
    def _yardstick() -> float:
        gc.collect()
        return yardstick.timed()

    def timed_loop(self, seconds: float, traced: bool):
        """Untraced samples, plus traced ones interleaved when `traced`.

        A yardstick run follows every invocation.  Invocation i sits
        between yardstick runs i and i + 1; its host-speed scale is
        yardstick.REFERENCE_S over the median of the two runs before it
        and the two after it, and its normalized seconds are its wall
        seconds times that scale.  Returns (plain normalized, plain wall,
        traced normalized, per-layer metrics of each traced invocation,
        spans of the first traced invocation, tracer).
        """
        tracer = Tracer() if traced else None
        samples = []                                   # (traced, wall seconds, LayerSummary)
        first_spans = None
        self.invoke()                                  # warm-up, checked but not timed
        yards = [self._yardstick()]
        deadline = time.perf_counter() + seconds
        while len(samples) < MIN_SAMPLES * (1 + traced) or time.perf_counter() < deadline:
            for active in (None, tracer) if traced else (None,):
                elapsed, spans = self.invoke(active)
                summary = None
                if active is not None:
                    first_spans = first_spans or spans
                    summary = summarize(spans)
                yards.append(self._yardstick())
                samples.append((active is not None, elapsed, summary))
        scales = [yardstick.REFERENCE_S / statistics.median(yards[max(0, i - 1):i + 3])
                  for i in range(len(samples))]
        pairs = sum(len(s.references) * len(s.systems) for s in self.specs)
        plain = [e * k for (t, e, _), k in zip(samples, scales) if not t]
        wall = [e for t, e, _ in samples if not t]
        with_trace = [e * k for (t, e, _), k in zip(samples, scales) if t]
        layers = [layer_metrics(summary, len(self.specs), pairs, k)
                  for (t, _, summary), k in zip(samples, scales) if t]
        return plain, wall, with_trace, layers, first_spans, tracer

    # -- the two kinds of run ------------------------------------------------

    def end_to_end(self, seconds: float) -> dict[str, tuple[float, str]]:
        self.check_goldens()
        setup, setup_wall = self.setup_seconds()
        rss = self.peak_rss_mb()
        plain, wall, *_ = self.timed_loop(seconds, traced=False)
        q1, run_s, q3 = quartiles(plain)
        s1, setup_s, s3 = quartiles(setup)
        self.lines.append(f"run_s            {run_s:.6f} s  (q1 {q1:.6f}, q3 {q3:.6f}, "
                          f"n={len(plain)} invocations; wall median {statistics.median(wall):.6f} s)")
        self.lines.append(f"positions_per_s  {self.positions / run_s:.1f} positions/s  "
                          f"({self.positions} positions per invocation)")
        self.lines.append(f"peak_rss_mb      {rss:.3f} MB  (one fresh process)")
        self.lines.append(f"setup_s          {setup_s:.6f} s  (q1 {s1:.6f}, q3 {s3:.6f}, "
                          f"n={len(setup)} fresh interpreters; wall median "
                          f"{statistics.median(setup_wall):.6f} s)")
        self.lines.append("# run_s and setup_s are normalized seconds: wall time scaled to a "
                          "fixed host speed (README.md)")
        values = {"run_s": run_s, "positions_per_s": self.positions / run_s,
                  "peak_rss_mb": rss, "setup_s": setup_s}
        return {name: (values[name], unit) for name, unit in END_TO_END}

    def per_layer(self, seconds: float, seed: int) -> dict[str, tuple[float, str]]:
        self.check_goldens()
        plain, _, with_trace, layers, spans, tracer = self.timed_loop(seconds, traced=True)
        metrics = {}
        for name, unit in PER_LAYER:
            if name == "trace.overhead_ratio":
                value = statistics.median(with_trace) / statistics.median(plain)
            else:
                values = [layer[name] for layer in layers]
                value = statistics.median(values)
                if name in COUNT_METRICS and len(set(values)) > 1:
                    self.lines.append(f"# warning: count {name} varied across invocations: "
                                      f"{sorted(set(values))}")
            metrics[name] = (value, unit)
            self.lines.append(f"{name:34s} {value:.6g} {unit}")
        self.lines.append(f"# {len(with_trace)} traced and {len(plain)} untraced invocations; "
                          "single-threaded layers with no queues, so no wait time applies")
        if tracer.absent:
            self.lines.append("# absent (reported as 0): " + ", ".join(tracer.absent))
        OUT.mkdir(exist_ok=True)
        trace_file = OUT / f"spans-{self.name}-seed{seed}.json"
        t0 = spans[0].start if spans else 0.0
        trace_file.write_text(json.dumps({
            "workload": self.name, "seed": seed, "absent": tracer.absent,
            "spans": [{"id": s.id, "name": s.name, "start": s.start - t0, "end": s.end - t0,
                       "parent": s.parent, "request": s.request, "counts": s.counts}
                      for s in spans],
        }) + "\n")
        self.lines.append(f"# spans of one traced invocation: {trace_file.relative_to(ROOT)}")
        return metrics


def bytes_read() -> int | None:
    """Bytes this process has read through system calls so far, or None where unknown."""
    try:
        with open("/proc/self/io") as f:
            return next(int(line.split()[1]) for line in f if line.startswith("rchar:"))
    except (OSError, StopIteration, ValueError, IndexError):
        return None


def _import_cli():
    """Import wisebe from this checkout's src/, never from anywhere else."""
    if not (SRC / "wisebe" / "__init__.py").is_file():
        raise SystemExit(f"error: no wisebe package under {SRC}")
    sys.path.insert(0, str(SRC))
    import wisebe.cli
    if Path(wisebe.cli.__file__).resolve().parent != SRC / "wisebe":
        raise SystemExit(f"error: imported wisebe from {wisebe.cli.__file__}, not {SRC}")
    return wisebe.cli


def run(name: str, seed: int, seconds: float, trace: bool, cli) -> Runner:
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
    try:
        runner = Runner(name, seed, work, cli)
        runner.metrics = runner.per_layer(seconds, seed) if trace else runner.end_to_end(seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failed = len(runner.failures)
    runner.lines.append(f"fail_ratio       {failed / runner.attempted:.6f}  "
                        f"({failed} failed of {runner.attempted} attempted)")
    runner.lines += [f"# failure: {f}" for f in runner.failures[:10]]
    return runner


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark the wisebe CLI.")
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help="length of the timed loop per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: end-to-end metrics, 1: per-layer metrics from traced runs")
    args = parser.parse_args(argv)
    # On SIGTERM, unwind normally so the generated corpus is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    os.environ.pop(ENV_WINDOW_LIMIT, None)
    cli = _import_cli()
    print(f"# python {platform.python_version()}, nproc {os.cpu_count()}, seed {args.seed}, "
          f"{args.seconds:g} s per workload, trace {args.trace}")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics = {}
    for name in names:
        runner = run(name, args.seed, args.seconds, bool(args.trace), cli)
        print("\n".join(runner.lines), flush=True)
        attempted += runner.attempted
        failed += len(runner.failures)
        prefix = "" if len(names) == 1 else f"{name}."
        metrics.update({prefix + k: {"value": v, "unit": u} for k, (v, u) in runner.metrics.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

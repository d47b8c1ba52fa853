"""Command line front end; `score` is `eval` over the one document its files make up.

Exit codes: 0 on success, 1 when some documents failed to evaluate, 2 on a
usage error (a bad command line is a ValueError) or a corpus-level error; the
options are checked before the corpus is read.  Each stderr line is one JSON
object: {"warnings": [...]} for ignored corpus entries, before any document is
evaluated, and {"errors": [{"doc_id", "kind", "message"}, ...]} after the report.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from functools import partial
from pathlib import Path

from .aggregation import DEFAULT_WINDOW_LIMIT
from .corpus import load_corpus, named_files
from .errors import USER_ERRORS
from .report import (REPORT_FORMATS, DocumentError, EvalConfig,
                     evaluate_agreement, evaluate_corpus, render_agreement,
                     render_report)


def _stderr(key: str, items):
    """Write {key: [items]} as one JSON line, if there are any items."""
    if items:
        print(json.dumps({key: list(items)}), file=sys.stderr)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


def _write(data: bytes, output: Path | None):
    if output is None:
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()
    else:
        output.write_bytes(data)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="wisebe",
        description="Evaluate sentence boundary detection against several "
                    "references at once.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=REPORT_FORMATS, default="table",
                        help="report format (default: table)")
    common.add_argument("--output", type=Path, default=None, metavar="PATH",
                        help="write the report to PATH instead of stdout")

    scoring = argparse.ArgumentParser(add_help=False)
    scoring.add_argument("--window-limit", type=int, default=DEFAULT_WINDOW_LIMIT, metavar="N",
                         help="max non-boundary tokens between members of one "
                              f"window (default: {DEFAULT_WINDOW_LIMIT})")
    scoring.add_argument("--baselines", action="store_true",
                         help="also report mean SER and lenient scores")
    scoring.add_argument("--threshold", type=int, default=None, metavar="K",
                         help="also score against the boundaries at least K "
                              "references voted for")

    p_eval = sub.add_parser("eval", parents=[common, scoring],
                            help="evaluate every document under a corpus root")
    p_eval.add_argument("root", type=Path, help="corpus root directory")

    p_agree = sub.add_parser("agreement", parents=[common],
                             help="reference agreement measures only")
    p_agree.add_argument("root", type=Path, help="corpus root directory")

    p_score = sub.add_parser("score", parents=[common, scoring],
                             help="score one document given explicit files")
    p_score.add_argument("--ref", dest="ref_files", action="append", type=Path,
                         required=True, metavar="PATH",
                         help="reference transcript (repeat, at least twice)")
    p_score.add_argument("--sys", dest="system_files", action="append", type=Path,
                         metavar="PATH", help="system output (repeatable)")
    p_score.add_argument("--doc-id", default="doc", help="document id for the report")

    return parser


def main(argv=None) -> int:
    # Every record is an acyclic tuple that reference counting frees; the
    # only cyclic garbage of a run is the parser's, whatever the corpus
    # size, so the cyclic collector is paused for the run.
    collecting = gc.isenabled()
    gc.disable()
    try:
        args = build_parser().parse_args(argv)
        if args.command == "agreement":
            evaluate, render = evaluate_agreement, render_agreement
        else:
            config = EvalConfig(args.window_limit, args.baselines, args.threshold)
            evaluate, render = partial(evaluate_corpus, config=config), render_report
        layout = (named_files(args.doc_id, args.ref_files, args.system_files or ())
                  if args.command == "score" else load_corpus(args.root))
        _stderr("warnings", layout.warnings)
        report = evaluate(layout)
        _write(render(report, args.format), args.output)
        _stderr("errors", [e._asdict() for e in report.errors])
        return 1 if report.errors else 0
    except USER_ERRORS as exc:
        _stderr("errors", [DocumentError(None, type(exc).__name__, str(exc))._asdict()])
        return 2
    finally:
        if collecting:
            gc.enable()

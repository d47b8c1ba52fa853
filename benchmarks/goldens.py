"""Golden report bytes for the demo corpus under data/synthetic_corpus.

The benchmark byte-compares every variant on every run, so a change to
any output byte shows up as a failure.  To compare them alone, or to
record them again after a deliberate output change (which CHANGES.md
must state):

    python3 benchmarks/goldens.py            # compare; exit 1 on a difference
    python3 benchmarks/goldens.py --update   # rewrite every golden file
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import sys
import tempfile
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
REPO_ROOT = Path(__file__).resolve().parent.parent
DEMO_CORPUS = Path("data") / "synthetic_corpus"

EVAL_OPTIONS = {"plain": [], "baselines": ["--baselines"],
                "threshold2": ["--threshold", "2"], "limit0": ["--window-limit", "0"]}
FORMATS = ("table", "json", "csv")


def variants() -> list[tuple[str, list[str]]]:
    """(golden file name, argv after the corpus root) for every captured report."""
    out = [(f"eval-{opt}.{fmt}", ["eval", "--format", fmt, *extra])
           for opt, extra in EVAL_OPTIONS.items() for fmt in FORMATS]
    out += [(f"agreement.{fmt}", ["agreement", "--format", fmt]) for fmt in FORMATS]
    return out


def render(main, name: str, argv: list[str], root: Path, scratch: Path) -> tuple[int, bytes, str]:
    """Run one variant in-process; returns (exit code, report bytes, stderr)."""
    target = scratch / f"golden-{name}"
    target.unlink(missing_ok=True)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main([argv[0], str(root / DEMO_CORPUS), *argv[1:], "--output", str(target)])
    data = target.read_bytes() if target.exists() else b""
    return code, data, err.getvalue()


def check(main, root: Path, scratch: Path) -> tuple[int, list[str]]:
    """Byte-compare every variant; returns (variants attempted, failure messages)."""
    failures = []
    attempted = 0
    for name, argv in variants():
        attempted += 1
        golden = GOLDEN_DIR / name
        code, data, err = render(main, name, argv, root, scratch)
        if code != 0 or err:
            failures.append(f"golden {name}: exit {code}, stderr {err.strip()!r}")
        elif not golden.is_file():
            failures.append(f"golden {name}: no golden file")
        elif data != golden.read_bytes():
            failures.append(f"golden {name}: report bytes differ from the golden")
    return attempted, failures


def _import_main():
    os.environ.pop("WISEBE_WINDOW_LIMIT", None)
    sys.path.insert(0, str(REPO_ROOT / "src"))
    from wisebe.cli import main
    return main


def _update(main):
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, argv in variants():
        code, data, err = render(main, name, argv, REPO_ROOT, GOLDEN_DIR)
        (GOLDEN_DIR / f"golden-{name}").unlink()
        if code != 0 or err:
            raise SystemExit(f"{name}: exit {code}: {err}")
        (GOLDEN_DIR / name).write_bytes(data)
        print(f"wrote {GOLDEN_DIR / name} ({len(data)} bytes)")


def _check(main) -> int:
    with tempfile.TemporaryDirectory() as scratch:
        attempted, failures = check(main, REPO_ROOT, Path(scratch))
    for failure in failures:
        print(failure)
    print(f"{attempted - len(failures)} of {attempted} goldens match")
    return 1 if failures else 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--update", action="store_true",
                        help="rewrite every golden file from the current code instead of comparing")
    args = parser.parse_args()
    cli_main = _import_main()
    sys.exit(_update(cli_main) if args.update else _check(cli_main))

"""The goldens, the benchmark self-test and the path-printing parity
check under each given CPython.

    python3 tests/interpreters.py python3.11 python3.12 python3.13

pytest and Hypothesis need not be installed for an interpreter, so this
runs only `benchmarks/goldens.py`, `benchmarks/selftest.py` and
`tests/pathparity.py` under each one, which need the standard library
alone.  An interpreter is a
command name or a path.  A pyenv shim that does not run on its own, as
for a version other than the selected one, is run with PYENV_VERSION
set to the newest installed version of its `pythonX.Y` name.  One line
is printed per interpreter, and the exit code is 1 if any of them cannot
be run or fails either check.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
CHECKS = (("goldens", "benchmarks/goldens.py"), ("selftest", "benchmarks/selftest.py"),
          ("pathparity", "tests/pathparity.py"))


def _version(python: str, env: dict) -> str | None:
    """The interpreter's `platform.python_version()`, or None if it does not run."""
    try:
        proc = subprocess.run([python, "-c", "import platform; print(platform.python_version())"],
                              capture_output=True, text=True, env=env)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _environment(python: str) -> tuple[dict, str | None]:
    """The environment to run `python` in, and its version (None if it does not run)."""
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    version = _version(python, env)
    minor = re.fullmatch(r"python(\d+\.\d+)", Path(python).name)
    if version is None and minor and (pyenv := shutil.which("pyenv")):
        latest = subprocess.run([pyenv, "latest", minor[1]], capture_output=True, text=True)
        if latest.returncode == 0:
            env["PYENV_VERSION"] = latest.stdout.strip()
            version = _version(python, env)
    return env, version


def check(python: str) -> bool:
    """Run every check under `python`, print its line, and say whether all passed."""
    env, version = _environment(python)
    if version is None:
        print(f"{python}: does not run")
        return False
    results = []
    for name, script in CHECKS:
        proc = subprocess.run([python, script], cwd=REPO_ROOT, env=env,
                              capture_output=True, text=True)
        last = (proc.stdout + proc.stderr).strip().splitlines()[-1:] or [""]
        results.append(f"{name} ok" if proc.returncode == 0
                       else f"{name} FAILED (exit {proc.returncode}: {last[0]})")
    print(f"{python} ({version}): {', '.join(results)}", flush=True)
    return all(result.endswith(" ok") for result in results)


def main(argv: list[str]) -> int:
    if not argv:
        print(f"usage: {__doc__.strip().splitlines()[2].strip()}", file=sys.stderr)
        return 2
    return 0 if all([check(python) for python in argv]) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

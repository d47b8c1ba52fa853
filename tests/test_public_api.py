"""The exported names: every error type, a sorted and small `__all__`,
every name that code outside the package imports from `wisebe`, and
every name, count and command line that the README gives."""

import ast
import inspect
import os
import pkgutil
import re
import shlex
import shutil
import subprocess
import sys

import pytest

import wisebe
from conftest import REPO_ROOT
from mutants import MUTANTS
from wisebe import errors
from wisebe.cli import build_parser

MAX_EXPORTS = 36


def _names_imported_from_wisebe(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "wisebe"
            for alias in node.names}


def test_every_error_type_is_exported():
    types = {name for name, obj in vars(errors).items()
             if inspect.isclass(obj) and issubclass(obj, errors.WisebeError)}
    assert "DuplicateLabel" in types
    assert types <= set(wisebe.__all__)


def test_star_import_gives_exactly_all():
    namespace = {}
    exec("from wisebe import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(wisebe.__all__)


def test_all_is_sorted_unique_and_small():
    names = wisebe.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    assert len(names) <= MAX_EXPORTS


@pytest.mark.parametrize("path", ["tests/test_acceptance.py", "benchmarks/reanchor.py"])
def test_names_imported_from_outside_resolve(path):
    names = _names_imported_from_wisebe(REPO_ROOT / path)
    assert names
    assert [name for name in names if not hasattr(wisebe, name)] == []


README = (REPO_ROOT / "README.md").read_text(encoding="utf-8")


@pytest.mark.parametrize("dotted", sorted(set(re.findall(r"`(wisebe(?:\.\w+)+)", README))))
def test_names_in_the_readme_resolve(dotted):
    pkgutil.resolve_name(dotted)


def test_readme_counts_the_exported_names():
    assert re.findall(r"`wisebe\.__all__` holds (\d+) names", README) == [
        str(len(wisebe.__all__))]


def test_readme_counts_the_mutants():
    assert re.findall(r"applies\s+each\s+of\s+(\d+)\s+hand-made\s+mutants", README) == [
        str(len(MUTANTS))]


def test_readme_lists_exactly_the_exported_names():
    [listing] = re.findall(r"^## Library API\n(.*?)^The exact-position baselines", README,
                           re.S | re.M)
    assert set(re.findall(r"`(\w+)`", listing)) == set(wisebe.__all__)


def test_readme_command_lines_parse():
    [block] = re.findall(r"^## CLI\n\n```sh\n(.*?)```", README, re.S | re.M)
    lines = block.splitlines()
    assert lines
    for line in lines:
        words = shlex.split(line, comments=True)
        assert words[0] == "wisebe", line
        build_parser().parse_args(words[1:])


def _runs(python, env):
    return subprocess.run([python, "-c", "pass"], capture_output=True, env=env).returncode == 0


def test_goldens_match_on_the_oldest_supported_python():
    """pyproject.toml promises Python >= 3.11; skipped where no working
    `python3.11` is on PATH.  A pyenv shim that fails on its own is run
    with PYENV_VERSION set to the newest installed 3.11."""
    python, env, pyenv = shutil.which("python3.11"), dict(os.environ), shutil.which("pyenv")
    if python and pyenv and not _runs(python, env):
        latest = subprocess.run([pyenv, "latest", "3.11"], capture_output=True, text=True)
        if latest.returncode == 0:
            env["PYENV_VERSION"] = latest.stdout.strip()
    if python is None or not _runs(python, env):
        pytest.skip("python3.11 is not available")
    run = subprocess.run([python, str(REPO_ROOT / "benchmarks" / "goldens.py")],
                         capture_output=True, text=True, cwd=REPO_ROOT, env=env)
    assert run.returncode == 0, run.stdout + run.stderr
    assert "15 of 15 goldens match" in run.stdout

"""The committed mutant list stays applicable; no mutant is run here."""

import ast

from mutants import MUTANTS, REPO_ROOT


def test_every_mutant_applies_once_and_names_defined_tests():
    assert len({mutant.name for mutant in MUTANTS}) == len(MUTANTS)
    for mutant in MUTANTS:
        text = (REPO_ROOT / mutant.path).read_text(encoding="utf-8")
        assert text.count(mutant.old) == 1, mutant.name
        assert mutant.new != mutant.old and mutant.tests, mutant.name
        for test in mutant.tests:
            path, name = test.split("::")
            tree = ast.parse((REPO_ROOT / path).read_text(encoding="utf-8"))
            assert name in {node.name for node in tree.body
                            if isinstance(node, ast.FunctionDef)}, test

"""The mutation probe's mutant generator on a small module.  The probe
itself runs pytest once per mutant, so it is not part of this suite."""

import ast

from tools.mutants import mutants

SOURCE = '''
LIMIT = 2 - 1


def f(x, y):
    """Docstring."""
    if x < y:
        x = -x
    x *= 3
    return x / y


class C:
    def g(self):
        return self.n
'''


def test_generator_counts_and_parses():
    """Five operator flips (one of them module level) and three statement
    deletions; docstrings, `def`, `class` and `return` are kept.  Every
    mutant parses, and no two are alike or equal to the module."""
    found = list(mutants(SOURCE))
    assert sorted((line, label) for line, label, _ in found) == [
        (2, "col 9: Sub -> Add"), (7, "col 8: Lt -> LtE"),
        (7, "delete if x < y:"), (8, "col 13: USub -> UAdd"),
        (8, "delete x = -x"), (9, "col 5: Mult -> Div"),
        (9, "delete x *= 3"), (10, "col 12: Div -> Mult")]
    sources = {source for *_, source in found}
    assert len(sources) == len(found)
    assert ast.unparse(ast.parse(SOURCE)) not in sources
    for source in sources:
        ast.parse(source)

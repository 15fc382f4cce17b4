"""Every module of the package, the tests and the tools uses each name
it imports: deleted code takes its imports with it."""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "aam_cgd"
TOOLS = TESTS.parent / "tools"


def unused_imports(source):
    """Names bound by an import in `source` and never read."""
    tree = ast.parse(source)
    imported = {(alias.asname or alias.name).split(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_checker_finds_unused_import():
    source = "import os.path\nimport sys as s\nfrom re import I, M\ns.exit(M)"
    assert unused_imports(source) == ["I", "os"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py"))
                         + sorted(TESTS.glob("*.py"))
                         + sorted(TOOLS.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []

"""Mutation probe: print the mutants of one module that no test kills.

    python3 tools/mutants.py src/aam_cgd/warp.py tests/test_warp.py \
        tests/test_fit.py

Two kinds of mutant: an operator flip changes one `+ - * /` (augmented
assignments included), one comparison or one unary minus; a statement
deletion replaces one statement of a function body by `pass`
(docstrings, `def`, `class` and `return` are kept).  Each mutant runs in
a temporary copy of `src/`, `tests/`, `perfbench/`, `tools/` and
`pyproject.toml`, whose `pythonpath` puts the copy's `src` first, so the
working tree is never written, with BLAS on one thread.  Stage 1 runs
the given pytest selection with `-x`; its survivors run again against
the whole fast suite (`-m "not slow"`), and those that survive both are
printed.
"""

import ast
import os
import shutil
import subprocess
import sys
import tempfile
from functools import partial
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "perfbench", "tools", "pyproject.toml")
FLIPS = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div,
         ast.Div: ast.Mult, ast.Lt: ast.LtE, ast.LtE: ast.Lt,
         ast.Gt: ast.GtE, ast.GtE: ast.Gt, ast.Eq: ast.NotEq,
         ast.NotEq: ast.Eq, ast.USub: ast.UAdd}
KEPT = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Return,
        ast.Pass)
TIMEOUT_S = 600        # a mutant that runs longer counts as killed


def _sites(tree):
    """Each mutation as (node, put, old, new): put(new) makes the mutant
    and put(old) restores the tree."""
    for node in ast.walk(tree):
        if type(getattr(node, "op", None)) in FLIPS:
            yield (node, partial(setattr, node, "op"), node.op,
                   FLIPS[type(node.op)]())
        for i, op in enumerate(getattr(node, "ops", ())):
            if type(op) in FLIPS:
                yield (node, partial(node.ops.__setitem__, i), op,
                       FLIPS[type(op)]())
    seen = set()                  # a nested def is walked twice
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            for field in ("body", "orelse", "finalbody"):
                body = getattr(node, field, None)
                for i, stmt in enumerate(body if isinstance(body, list)
                                         else ()):
                    if not (isinstance(stmt, KEPT) or id(stmt) in seen
                            or isinstance(stmt, ast.Expr)
                            and isinstance(stmt.value, ast.Constant)):
                        seen.add(id(stmt))
                        yield stmt, partial(body.__setitem__, i), stmt, \
                            ast.Pass()


def mutants(source):
    """(line, label, mutated source) of every mutant of a module."""
    tree = ast.parse(source)
    for node, put, old, new in list(_sites(tree)):
        label = ("delete " + ast.unparse(old).splitlines()[0][:60]
                 if isinstance(new, ast.Pass) else
                 f"col {node.col_offset + 1}: {type(old).__name__} -> "
                 f"{type(new).__name__}")
        put(new)
        yield node.lineno, label, ast.unparse(tree)
        put(old)


def main(module, *selection):
    module = Path(module).resolve().relative_to(ROOT)
    original = (ROOT / module).read_text()
    found = list(mutants(original))
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copytree(ROOT, tmp, dirs_exist_ok=True,
                        ignore=lambda d, names: [
                            n for n in names if n == "__pycache__"
                            or Path(d) == ROOT and n not in COPIED])

        def passes(source, args):
            Path(tmp, module).write_text(source)
            try:
                return subprocess.run(
                    [sys.executable, "-m", "pytest", "-x", "-q", "-p",
                     "no:cacheprovider", *args], cwd=tmp, env=env,
                    capture_output=True, timeout=TIMEOUT_S).returncode == 0
            except subprocess.TimeoutExpired:
                return False

        fast = ["-m", "not slow"]
        if not (passes(original, selection) and passes(original, fast)):
            sys.exit(f"the tests fail on the unmutated {module}")
        stage1 = [m for m in found if passes(m[2], selection)]
        stage2 = [m for m in stage1 if passes(m[2], fast)]
    print(f"{module}: {len(found)} mutants, {len(stage1)} survive the "
          f"selection, {len(stage2)} the fast suite")
    for line, label, _ in stage2:
        print(f"{module}:{line}: {label}")


if __name__ == "__main__":
    main(*sys.argv[1:])

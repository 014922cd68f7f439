"""The package holds only what its commands and the benchmark run.

Every top-level function and class in ``src/finvariant`` must be read by
other code in the package (its own body and the ``__init__`` re-export do
not count) or by ``perfbench/``, which drives the package through the CLI
and hooks some functions by name.  A definition that only tests use belongs
in ``tests/paper_objects.py``.
"""

import ast
import pathlib
import re
from collections import Counter

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "finvariant"
BENCH = ROOT / "perfbench"


def _names_read(tree: ast.AST) -> Counter:
    """How often each name or attribute name is read in ``tree``."""
    return Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    )


def zero_caller_definitions(package: pathlib.Path = PACKAGE) -> list:
    modules = {
        path.name: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(package.glob("*.py"))
        if path.name != "__init__.py"
    }
    reads = sum((_names_read(tree) for tree in modules.values()), Counter())
    bench = "\n".join(p.read_text(encoding="utf-8") for p in sorted(BENCH.glob("*.py")))
    unused = []
    for name, tree in modules.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if reads[node.name] > _names_read(node)[node.name]:
                continue
            if not re.search(rf"\b{re.escape(node.name)}\b", bench):
                unused.append(f"{name}:{node.name}")
    return unused


def test_every_definition_has_a_caller():
    assert zero_caller_definitions() == []


def test_the_check_sees_a_zero_caller_definition(tmp_path):
    # a copy of the package with one self-recursive orphan must report it
    for path in PACKAGE.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text(encoding="utf-8"), encoding="utf-8")
    with open(tmp_path / "shift.py", "a", encoding="utf-8") as fh:
        fh.write("\n\ndef orphan(x):\n    return orphan(x - 1) if x else 0\n")
    assert zero_caller_definitions(tmp_path) == ["shift.py:orphan"]

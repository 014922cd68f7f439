"""The package holds only what its commands and the benchmark run.

Every top-level function and class in ``src/finvariant``, and every method,
property and classmethod of those classes other than dunders, must be read
by other code in the package (its own body and the ``__init__`` re-export
do not count) or by ``perfbench/``, which drives the package through the CLI
and hooks some functions by name.  A definition that only tests use belongs
in ``tests/paper_objects.py``.  A member is matched by name alone, so one
that shares its name with a used member passes.  The same holds for every
module-level constant (a name in capitals bound at the top of a module), so
that a merged or retired tolerance cannot linger.

Every name a module imports must also be read in that module, so that a
deletion leaves no import behind, and every parameter of a package function
must be read in its body, so that a caller never passes what nothing uses.
No package code assigns an underscore attribute of an object other than
``self``, and no parameter's name starts with an underscore: a private value
is set by the object that owns it, not passed in or written from outside.
The JSON keys ``"num"`` and ``"den"`` of an exact probability appear in one
module only, the one that holds its reader and writer.  Importing the CLI in
a fresh interpreter loads none of the process-pool, pickling or socket
modules: every import adds to each command's start-up.  The functions
``perfbench/spans.py`` wraps by name must stay where it looks for them, and
README's library table may name only modules and attributes that exist.
Every ``FinvariantError`` subclass derives from ``InputError``,
``VerificationError`` or ``ResourceCapError``, the three that ``cli.main``
maps to exits 2, 1 and 3; it catches no other.
"""

import ast
import importlib
import importlib.util
import os
import pathlib
import re
import subprocess
import sys
from collections import Counter
from fractions import Fraction

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "finvariant"
BENCH = ROOT / "perfbench"
README = ROOT / "README.md"


def _names_read(tree: ast.AST) -> Counter:
    """How often each name or attribute name is read in ``tree``."""
    return Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    )


def _modules(package: pathlib.Path) -> dict:
    return {
        path.name: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(package.glob("*.py"))
        if path.name != "__init__.py"
    }


def _definitions(tree: ast.Module):
    """(qualified name, name, node) of each top-level definition, of each
    non-dunder member of a top-level class and of each module-level
    constant."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name, node
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, ast.FunctionDef) and not (
                    member.name.startswith("__") and member.name.endswith("__")
                ):
                    yield f"{node.name}.{member.name}", member.name, member
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                if isinstance(target, ast.Name) and target.id.isupper():
                    yield target.id, target.id, node


def zero_caller_definitions(package: pathlib.Path = PACKAGE) -> list:
    modules = _modules(package)
    reads = sum((_names_read(tree) for tree in modules.values()), Counter())
    bench = "\n".join(p.read_text(encoding="utf-8") for p in sorted(BENCH.glob("*.py")))
    unused = []
    for name, tree in modules.items():
        for qualified, defined, node in _definitions(tree):
            # a definition's own body, or a constant's binding, does not count
            if reads[defined] > _names_read(node)[defined]:
                continue
            if not re.search(rf"\b{re.escape(defined)}\b", bench):
                unused.append(f"{name}:{qualified}")
    return unused


def unused_imports(package: pathlib.Path = PACKAGE) -> list:
    unused = []
    for name, tree in _modules(package).items():
        loaded = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in loaded:
                        unused.append(f"{name}:{bound}")
    return unused


def unread_parameters(package: pathlib.Path = PACKAGE) -> list:
    """``module:function:parameter`` for each parameter its function's body
    never reads.  ``self`` and ``cls`` are exempt, and so are the parameters
    of a dunder, whose signature its protocol fixes."""
    unread = []
    for name, tree in _modules(package).items():
        for node in ast.walk(tree):
            if not isinstance(node, ast.FunctionDef) or node.name.startswith("__") and node.name.endswith("__"):
                continue
            args = node.args
            params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg] if a]
            read = {
                n.id
                for stmt in node.body
                for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
            }
            unread += [f"{name}:{node.name}:{p}" for p in params if p not in read and p not in ("self", "cls")]
    return unread


def private_back_doors(package: pathlib.Path = PACKAGE) -> list:
    """``module:function:parameter`` for each parameter whose name starts
    with an underscore, and ``module:target`` for each assignment to an
    underscore attribute of an object other than ``self``."""
    found = []
    for name, tree in _modules(package).items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.Lambda)):
                args = node.args
                params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg] if a]
                found += [f"{name}:{getattr(node, 'name', 'lambda')}:{p}" for p in params if p.startswith("_")]
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.ctx, (ast.Store, ast.Del))
                and node.attr.startswith("_")
                and not (isinstance(node.value, ast.Name) and node.value.id == "self")
            ):
                found.append(f"{name}:{ast.unparse(node)}")
    return found


def modules_naming_rational_keys(package: pathlib.Path = PACKAGE) -> list:
    """The modules holding the string constant "num" or "den"."""
    return [
        name
        for name, tree in _modules(package).items()
        if any(isinstance(node, ast.Constant) and node.value in ("num", "den") for node in ast.walk(tree))
    ]


EXIT_ERRORS = {"InputError", "VerificationError", "ResourceCapError"}


def errors_without_an_exit(package: pathlib.Path = PACKAGE) -> list:
    """The classes defined in ``package`` that derive from
    ``FinvariantError`` but from none of the ``EXIT_ERRORS``, matched by the
    names of their bases."""
    bases = {
        node.name: [base.id if isinstance(base, ast.Name) else getattr(base, "attr", None) for base in node.bases]
        for tree in _modules(package).values()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
    }

    def ancestors(name):
        seen, todo = set(), [name]
        while todo:
            for base in bases.get(todo.pop(), ()):
                if base not in seen:
                    seen.add(base)
                    todo.append(base)
        return seen

    return sorted(
        name for name in bases
        if "FinvariantError" in ancestors(name) and name not in EXIT_ERRORS and not ancestors(name) & EXIT_ERRORS
    )


HEAVY_MODULES = ("multiprocessing", "concurrent", "subprocess", "pickle", "socket")


def heavy_imports(src: pathlib.Path = PACKAGE.parent) -> list:
    """The ``HEAVY_MODULES`` (and their submodules) that ``import
    finvariant.cli`` loads in a fresh interpreter with ``src`` on its path."""
    code = (
        "import sys\n"
        "import finvariant.cli\n"
        f"print(sorted(m for m in sys.modules if m.split('.')[0] in {HEAVY_MODULES!r}))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return ast.literal_eval(proc.stdout)


def stale_readme_names(text: str) -> list:
    """The backticked names in the "Library layout" table of a README text
    that name nothing: a ``finvariant`` or ``finvariant.x`` token must be the
    package or one of its modules, any other Python identifier an attribute
    of one of them, and a dotted ``Name.member`` a member of such an
    attribute.  Tokens that are not (dotted) identifiers pass."""
    table = text[text.index("## Library layout") :].split("\n## ")[0]
    names = {"finvariant": importlib.import_module("finvariant")}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem != "__init__":
            names[f"finvariant.{path.stem}"] = importlib.import_module(f"finvariant.{path.stem}")
    stale = []
    for line in table.splitlines():
        for token in re.findall(r"`([^`]+)`", line) if line.startswith("|") else ():
            if token.split(".")[0] == "finvariant":
                if token not in names:
                    stale.append(token)
            elif all(part.isidentifier() for part in token.split(".")) and not any(
                _resolves(module, token.split(".")) for module in names.values()
            ):
                stale.append(token)
    return stale


def _resolves(obj, parts: list) -> bool:
    for part in parts:
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True


def _copy_package(tmp_path: pathlib.Path) -> None:
    for path in PACKAGE.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text(encoding="utf-8"), encoding="utf-8")


def _plant(path: pathlib.Path, anchor: str, text: str) -> None:
    source = path.read_text(encoding="utf-8")
    assert source.count(anchor) == 1
    path.write_text(source.replace(anchor, anchor + text), encoding="utf-8")


def test_every_definition_has_a_caller():
    assert zero_caller_definitions() == []


def test_the_check_sees_a_zero_caller_definition(tmp_path):
    # a copy of the package with one self-recursive orphan must report it
    _copy_package(tmp_path)
    with open(tmp_path / "shift.py", "a", encoding="utf-8") as fh:
        fh.write("\n\ndef orphan(x):\n    return orphan(x - 1) if x else 0\n")
    assert zero_caller_definitions(tmp_path) == ["shift.py:orphan"]


def test_the_check_sees_a_zero_caller_method(tmp_path):
    _copy_package(tmp_path)
    _plant(
        tmp_path / "shift.py",
        '    __slots__ = ("domain", "values", "_index")\n',
        "\n    def orphan_method(self, x):\n        return self.orphan_method(x - 1) if x else 0\n",
    )
    assert zero_caller_definitions(tmp_path) == ["shift.py:Pattern.orphan_method"]


def test_the_check_sees_an_unread_constant(tmp_path):
    _copy_package(tmp_path)
    _plant(tmp_path / "shift.py", "PROB_TOL = 1e-12\n", "ORPHAN_TOL = PROB_TOL * 1000\n")
    assert zero_caller_definitions(tmp_path) == ["shift.py:ORPHAN_TOL"]


def test_every_import_is_read():
    assert unused_imports() == []


def test_the_check_sees_an_unused_import(tmp_path):
    _copy_package(tmp_path)
    _plant(tmp_path / "shift.py", "from __future__ import annotations\n", "\nimport os\n")
    assert unused_imports(tmp_path) == ["shift.py:os"]


def test_every_parameter_is_read():
    assert unread_parameters() == []


def test_the_check_sees_an_unread_parameter(tmp_path):
    # a parameter only written to is not read, nor one named only by a default
    _copy_package(tmp_path)
    _plant(
        tmp_path / "shift.py",
        "PROB_TOL = 1e-12\n",
        "\n\ndef orphan(x, y, *rest, z=PROB_TOL):\n    y = x\n    return x, rest\n",
    )
    assert unread_parameters(tmp_path) == ["shift.py:orphan:y", "shift.py:orphan:z"]


def test_no_private_back_door():
    assert private_back_doors() == []


def test_the_check_sees_a_private_back_door(tmp_path):
    # one function both takes an underscore parameter and writes another
    # object's underscore attribute; writing its own is fine
    _copy_package(tmp_path)
    _plant(
        tmp_path / "shift.py",
        "PROB_TOL = 1e-12\n",
        "\n\ndef orphan(dist, _cache=None):\n    dist._probs = _cache\n    return dist\n",
    )
    assert private_back_doors(tmp_path) == ["shift.py:orphan:_cache", "shift.py:dist._probs"]


def test_one_module_reads_and_writes_rationals():
    assert modules_naming_rational_keys() == ["shift.py"]


def test_the_check_sees_a_second_rational_reader(tmp_path):
    _copy_package(tmp_path)
    with open(tmp_path / "weights.py", "a", encoding="utf-8") as fh:
        fh.write('\n\ndef orphan(p):\n    return p["num"]\n')
    assert modules_naming_rational_keys(tmp_path) == ["shift.py", "weights.py"]


def test_every_error_has_an_exit_code():
    assert errors_without_an_exit() == []


def test_the_check_sees_an_error_without_an_exit_code(tmp_path):
    # one class derives from the base directly and one through it; a class
    # under an exit error, however deep, passes
    _copy_package(tmp_path)
    _plant(
        tmp_path / "errors.py",
        '    """A configured size cap would be exceeded."""\n',
        "\n\nclass OrphanError(FinvariantError):\n    pass\n\n\nclass DeepError(OrphanError):\n    pass\n"
        "\n\nclass FineError(WindowError, ValueError):\n    pass\n",
    )
    assert errors_without_an_exit(tmp_path) == ["DeepError", "OrphanError"]


def test_the_benchmark_hooks_find_what_they_wrap():
    # spans.py wraps its TRACED names in place and reads len(result.probs)
    # of marginal_distribution as the pattern count: a name moved, a
    # classmethod made a function or a probs gone would zero a per-layer metric
    import finvariant
    from finvariant import FreeGroupCtx, Weight

    spec = importlib.util.spec_from_file_location("perfbench_spans", BENCH / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for module_name, attr, kind, _ in spans.TRACED:
        home = importlib.import_module(f"finvariant.{module_name}")
        if kind in ("method", "classmethod"):
            cls_name, name = attr.split(".")
            assert isinstance(vars(getattr(home, cls_name))[name], classmethod) == (kind == "classmethod"), attr
        else:
            assert callable(getattr(home, attr)), attr

    # an exact golden-mean weight: no "1" next to "1" along either generator
    edge = {(a, b, i): Fraction(p, 5) for i in (1, 2) for a, b, p in (("0", "0", 1), ("0", "1", 2), ("1", "0", 2))}
    w = Weight.from_tables(2, ("0", "1"), {"0": Fraction(3, 5), "1": Fraction(2, 5)}, edge)
    ctx = FreeGroupCtx(2)
    tracer = spans.Tracer()
    undo = spans.install(tracer, finvariant)
    try:
        dist = finvariant.weights.marginal_distribution(w, ctx.ball(1))
        back = finvariant.shift.PatternDistribution.from_json(ctx, dist.to_json(ctx))
        finvariant.weights.markovize(ctx, back)
    finally:
        spans.uninstall(undo)
    # "1" at e leaves one pattern, "0" at e sixteen
    assert len(dist.probs) == len(dist.masses) == 17
    assert tracer.counts["weights.patterns"] == 17
    metrics = spans.layer_metrics(tracer)
    for name in ("shift.PatternDistribution.from_json.s", "shift.PatternDistribution.to_json.s",
                 "weights.marginal_distribution.patterns_per_s", "weights.markovize.s"):
        assert metrics[name] > 0, name


def test_the_readme_table_names_what_exists():
    assert stale_readme_names(README.read_text(encoding="utf-8")) == []


def test_the_readme_check_sees_a_stale_name():
    text = README.read_text(encoding="utf-8")
    row = "| `finvariant.cli`         | the `finvariant` command |"
    assert text.count(row) == 1
    planted = text.replace(row, "| `finvariant.clu` | the `finvariant` command and `constancy_check` |")
    assert stale_readme_names(planted) == ["finvariant.clu", "constancy_check"]


def test_the_readme_check_sees_a_stale_member():
    text = README.read_text(encoding="utf-8")
    cell = "`LocalBijection` (a window table"
    assert text.count(cell) == 1
    planted = text.replace(cell, "`LocalBijection.inverse_table`, `LocalBijection.inverse` (a window table")
    assert stale_readme_names(planted) == ["LocalBijection.inverse_table"]


def test_importing_the_cli_loads_no_heavy_module():
    assert heavy_imports() == []


def test_the_import_check_sees_a_heavy_import(tmp_path):
    (tmp_path / "finvariant").mkdir()
    _copy_package(tmp_path / "finvariant")
    _plant(tmp_path / "finvariant" / "counting.py", "import math\n", "import concurrent.futures\n")
    assert "concurrent.futures" in heavy_imports(tmp_path)

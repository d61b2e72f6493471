"""The package depends on numpy alone: every import in ``src/swmlab`` is
relative, from the standard library, or numpy.  scipy serves the tests
only, and sympy nothing.  Oracle internals stay in ``oracles.py``: no
other module reads an attribute named ``_table`` or ``_values``.  Every
choice among agents goes through ``core.greedy_steps``: outside
``core.py``, only ``gain._item_gains`` uses ``marginal_gains``.  Every
choice of an assignment goes through ``core._best_assignments``: outside
``core.py``, only ``GainContext.__init__`` and ``build_A_prime`` call
``optimal``, and only ``_expected_A_prime_margin`` and
``verify_second_half`` call the search.  Every name a module imports is
used there (``__init__.py`` re-exports).  Every module-level function
serves a command or the public API: other code in the package reads it,
``__init__.py`` exports it, or it is the ``cmd_<name>`` of a subcommand
that ``build_parser`` adds (``main`` looks handlers up in ``globals()``)."""
import ast
import sys
from collections import Counter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "swmlab"
ALLOWED = set(sys.stdlib_module_names) | {"numpy"}
ORACLE_INTERNALS = {"_table", "_values"}
MARGINAL_GAINS_USERS = {"gain.py": ["_item_gains"]}   # and all of core.py
ASSIGNMENT_CALLERS = {                                 # and all of core.py
    "optimal": {"gain.py": ["GainContext.__init__", "build_A_prime"]},
    "_best_assignments": {"gain.py": ["_expected_A_prime_margin",
                                      "verify_second_half"]}}


def imported_roots(path: Path) -> list[str]:
    """The top-level module of every absolute import in ``path``."""
    roots = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            roots += [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.append(node.module.split(".")[0])
    return roots


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_imports_only_stdlib_numpy_and_the_package(path):
    outside = [root for root in imported_roots(path) if root not in ALLOWED]
    assert outside == [], f"{path.name} imports {outside}"


def test_the_check_sees_a_third_party_import(tmp_path):
    module = tmp_path / "module.py"
    module.write_text("import numpy as np\nfrom . import core\n"
                      "from scipy.optimize import linprog\n"
                      "def f():\n    import sympy\n")
    assert [r for r in imported_roots(module) if r not in ALLOWED] == \
        ["scipy", "sympy"]


def internal_reads(path: Path) -> list[str]:
    """The name of every access in ``path`` to an attribute named in
    ``ORACLE_INTERNALS``, sorted."""
    tree = ast.parse(path.read_text(), str(path))
    return sorted(node.attr for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute)
                  and node.attr in ORACLE_INTERNALS)


@pytest.mark.parametrize(
    "path", sorted(p for p in SRC.glob("*.py") if p.name != "oracles.py"),
    ids=lambda p: p.name)
def test_oracle_internals_are_read_only_in_oracles(path):
    assert internal_reads(path) == [], f"{path.name} reads oracle internals"


def test_the_check_sees_an_internal_read(tmp_path):
    module = tmp_path / "module.py"
    module.write_text("def f(o):\n    t = o._table\n"
                      "    return o._values(t), o.value_masks(t), _table\n")
    assert internal_reads(module) == ["_table", "_values"]


def named(node, name: str) -> bool:
    """``node`` is the name ``name`` or an attribute ``.name``."""
    return (isinstance(node, ast.Name) and node.id == name
            or isinstance(node, ast.Attribute) and node.attr == name)


def owners(path: Path, hit) -> list[str]:
    """The innermost enclosing function ("<module>" outside any, "Class."
    before a method's name) of every node in ``path`` that ``hit``
    accepts, sorted."""
    found = []

    def visit(node, owner, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, owner, child.name + ".")
                continue
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, cls + child.name, "")
                continue
            if hit(child):
                found.append(owner)
            visit(child, owner, cls)

    visit(ast.parse(path.read_text(), str(path)), "<module>", "")
    return sorted(found)


def marginal_gains_users(path: Path) -> list[str]:
    """The owner of every use in ``path`` of a name or attribute
    ``marginal_gains``."""
    return owners(path, lambda node: named(node, "marginal_gains"))


def callers(path: Path, name: str) -> list[str]:
    """The owner of every call in ``path`` to a name or attribute
    ``name``."""
    return owners(path, lambda node: isinstance(node, ast.Call)
                  and named(node.func, name))


@pytest.mark.parametrize(
    "path", sorted(p for p in SRC.glob("*.py") if p.name != "core.py"),
    ids=lambda p: p.name)
def test_agent_choice_only_in_greedy_steps(path):
    allowed = MARGINAL_GAINS_USERS.get(path.name, [])
    stray = [u for u in marginal_gains_users(path) if u not in allowed]
    assert stray == [], f"{path.name} uses marginal_gains in {stray}"


def test_the_check_sees_another_marginal_gains_user(tmp_path):
    module = tmp_path / "module.py"
    module.write_text("from .core import marginal_gains\n"
                      "def _item_gains(o):\n"
                      "    return marginal_gains(o, 0, 1)\n"
                      "def pick(o):\n"
                      "    g = core.marginal_gains(o, 0, 1)\n"
                      "    def inner():\n"
                      "        return marginal_gains\n"
                      "    return g\n"
                      "best = max(marginal_gains(o, 0, 1) for o in ())\n")
    assert marginal_gains_users(module) == \
        ["<module>", "_item_gains", "inner", "pick"]


@pytest.mark.parametrize(
    "path", sorted(p for p in SRC.glob("*.py") if p.name != "core.py"),
    ids=lambda p: p.name)
def test_assignment_choice_only_in_core(path):
    for name, allowed in ASSIGNMENT_CALLERS.items():
        stray = [u for u in callers(path, name)
                 if u not in allowed.get(path.name, [])]
        assert stray == [], f"{path.name} calls {name} in {stray}"


def test_the_check_sees_another_assignment_search(tmp_path):
    module = tmp_path / "module.py"
    module.write_text("from .core import _best_assignments, optimal\n"
                      "class GainContext:\n"
                      "    def __init__(self, inst):\n"
                      "        self.opt = optimal(inst)\n"
                      "def build_A_prime(inst):\n"
                      "    optimal = core.optimal(inst)\n"
                      "    return optimal\n"
                      "def verify_eq1(inst):\n"
                      "    return _best_assignments(2, bits, score)\n"
                      "best = optimal(inst)\n")
    assert callers(module, "optimal") == \
        ["<module>", "GainContext.__init__", "build_A_prime"]
    assert callers(module, "_best_assignments") == ["verify_eq1"]


def unused_imports(path: Path) -> list[str]:
    """The names that imports in ``path`` bind, ``from __future__`` aside,
    and that no name in it reads, sorted."""
    tree = ast.parse(path.read_text(), str(path))
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound |= {alias.asname or alias.name.split(".")[0]
                      for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {alias.asname or alias.name for alias in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - read)


@pytest.mark.parametrize(
    "path", sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"),
    ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path) == [], f"{path.name} imports unused names"


def test_the_check_sees_an_unused_import(tmp_path):
    module = tmp_path / "module.py"
    module.write_text("from __future__ import annotations\n"
                      "import os.path\nimport numpy as np\n"
                      "from dataclasses import dataclass, field\n"
                      "from .core import greedy as run, optimal\n"
                      "@dataclass\nclass A:\n    x: np.ndarray\n"
                      "def f():\n    return run\n")
    assert unused_imports(module) == ["field", "optimal", "os"]


def unserved_functions(package: Path) -> list[str]:
    """``module.function`` for every module-level function in ``package``
    that no code there outside its own body reads by name or attribute,
    that ``__init__.py`` does not export, and that is not the
    ``cmd_<name>`` of a subcommand ``build_parser`` adds, sorted."""
    trees = {path.stem: ast.parse(path.read_text(), str(path))
             for path in sorted(package.glob("*.py"))}

    def reads(tree) -> Counter:
        return Counter(node.id if isinstance(node, ast.Name) else node.attr
                       for node in ast.walk(tree)
                       if isinstance(node, ast.Name)
                       and isinstance(node.ctx, ast.Load)
                       or isinstance(node, ast.Attribute))

    exported = {alias.asname or alias.name
                for node in ast.walk(trees["__init__"])
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    commands = {f"cmd_{call.args[0].value}"
                for tree in trees.values() for node in tree.body
                if isinstance(node, ast.FunctionDef)
                and node.name == "build_parser"
                for call in ast.walk(node) if isinstance(call, ast.Call)
                and named(call.func, "add_parser") and call.args
                and isinstance(call.args[0], ast.Constant)}
    total = sum((reads(tree) for tree in trees.values()), Counter())
    return sorted(f"{module}.{node.name}"
                  for module, tree in trees.items() for node in tree.body
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                  and total[node.name] == reads(node)[node.name]
                  and node.name not in exported | commands)


def test_every_function_serves_a_command_or_the_api():
    assert unserved_functions(SRC) == []


def test_the_check_sees_an_unserved_function(tmp_path):
    (tmp_path / "__init__.py").write_text("from .cli import public\n")
    (tmp_path / "cli.py").write_text(
        "def public():\n    return _helper()\n"
        "def _helper():\n    return 1\n"
        "def _recursive(n):\n    return _recursive(n - 1)\n"
        "def _shadowed():\n    _shadowed = 1\n    return 2\n"
        "def _by_attribute():\n    return 3\n"
        "def _in_a_table():\n    return 4\n"
        "TABLE = {'a': _in_a_table}\n"
        "class A:\n    def method(self):\n        return cli._by_attribute\n"
        "def cmd_run(args):\n    return 0\n"
        "def cmd_gone(args):\n    return 0\n"
        "def build_parser():\n    sub.add_parser('run')\n"
        "def main(args):\n"
        "    return globals()[f'cmd_{args.subcommand}'](build_parser())\n"
        "if __name__ == '__main__':\n    main(None)\n")
    assert unserved_functions(tmp_path) == \
        ["cli._recursive", "cli._shadowed", "cli.cmd_gone"]

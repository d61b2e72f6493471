"""The package depends on numpy alone: every import in ``src/swmlab`` is
relative, from the standard library, or numpy.  scipy serves the tests
only, and sympy nothing.  Oracle internals stay in ``oracles.py``: no
other module reads an attribute named ``_table`` or ``_values``.  Every
choice among agents goes through ``core.greedy_steps``: outside
``core.py``, only ``gain._item_gains`` uses ``marginal_gains``."""
import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "swmlab"
ALLOWED = set(sys.stdlib_module_names) | {"numpy"}
ORACLE_INTERNALS = {"_table", "_values"}
MARGINAL_GAINS_USERS = {"gain.py": ["_item_gains"]}   # and all of core.py


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


def marginal_gains_users(path: Path) -> list[str]:
    """The innermost enclosing function ("<module>" outside any) of every
    use in ``path`` of a name or attribute ``marginal_gains``, sorted."""
    users = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if (isinstance(child, ast.Name) and child.id == "marginal_gains"
                    or isinstance(child, ast.Attribute)
                    and child.attr == "marginal_gains"):
                users.append(owner)
            visit(child, owner)

    visit(ast.parse(path.read_text(), str(path)), "<module>")
    return sorted(users)


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

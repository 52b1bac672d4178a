"""No module of the package reaches into another module's private names.

A private name (one leading underscore, not a dunder) belongs to the module
that defines it.  Two ways of reaching it from elsewhere are refused:
``from .x import _name``, and ``Name._attr`` where ``Name`` was imported from
another schurdet module (for example ``AlgebraElement._from_ints`` outside
``perm_algebra``).

The package's public surface is pinned too: ``schurdet.__all__`` is sorted,
unique, and lists exactly the public names ``__init__`` imports.
"""

import ast
from pathlib import Path

import pytest

import schurdet

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "schurdet"


def is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_reaches(source: str) -> list[str]:
    """Every private name the source takes from another schurdet module."""
    tree = ast.parse(source)
    imported: set[str] = set()
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
            node.level > 0 or (node.module or "").split(".")[0] == "schurdet"
        ):
            for alias in node.names:
                if is_private(alias.name):
                    found.append(f"from {node.module} import {alias.name}")
                imported.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in imported
            and is_private(node.attr)
        ):
            found.append(f"{node.value.id}.{node.attr}")
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_private_names_cross_modules(path):
    assert private_reaches(path.read_text()) == []


@pytest.mark.parametrize(
    "source, expected",
    [
        ("from .tensor_space import _perm_table\n", ["from tensor_space import _perm_table"]),
        (
            "from .perm_algebra import AlgebraElement\nAlgebraElement._from_ints(2, {}, 1)\n",
            ["AlgebraElement._from_ints"],
        ),
        ("from . import linalg\nlinalg._eliminate([])\n", ["linalg._eliminate"]),
        ("from schurdet.rng import SplitMix64 as R\nR._step\n", ["R._step"]),
    ],
)
def test_the_check_catches_private_reaches(source, expected):
    assert private_reaches(source) == expected


@pytest.mark.parametrize(
    "source",
    [
        "class Tensor:\n    pass\nTensor._from_ints\n",  # defined here, not imported
        "from .perm_algebra import AlgebraElement\nAlgebraElement.__init__\n",
        "from fractions import Fraction\nFraction._private\n",  # not a schurdet module
    ],
)
def test_the_check_allows_own_names_dunders_and_other_packages(source):
    assert private_reaches(source) == []


def test_all_lists_exactly_the_imported_public_names():
    names = schurdet.__all__
    assert names == sorted(set(names))
    namespace: dict = {}
    exec("from schurdet import *", namespace)  # every entry resolves
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert {name for name in imported if not is_private(name)} == set(names)

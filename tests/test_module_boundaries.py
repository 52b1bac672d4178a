"""No module of the package reaches into another module's private names.

A private name (one leading underscore, not a dunder) belongs to the module
that defines it.  Two ways of reaching it from elsewhere are refused:
``from .x import _name``, and ``Name._attr`` where ``Name`` was imported from
another schurdet module (for example ``AlgebraElement._from_ints`` outside
``perm_algebra``).

Scalars enter through one intake: only ``rational`` calls ``common_denominator``;
every other module goes through ``rational.integer_values``.

Every name a module imports is used in it (``__init__`` re-exports, so it is
exempt).

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


def common_denominator_uses(source: str) -> list[int]:
    """Lines that import common_denominator or call it, by bare name or as an attribute."""
    name = "common_denominator"
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if (isinstance(node, ast.ImportFrom) and any(a.name == name for a in node.names))
        or (
            isinstance(node, ast.Call)
            and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
        )
    )


@pytest.mark.parametrize(
    "path",
    sorted(p for p in PACKAGE.glob("*.py") if p.name != "rational.py"),
    ids=lambda p: p.name,
)
def test_only_rational_calls_common_denominator(path):
    assert common_denominator_uses(path.read_text()) == []


def test_the_intake_check_catches_imports_and_both_call_spellings():
    source = (
        "from . import rational\nfrom .rational import common_denominator as cd\n"
        "common_denominator([])\nrational.common_denominator([], 8)\ninteger_values([])\n"
    )
    assert common_denominator_uses(source) == [2, 3, 4]
    assert common_denominator_uses((PACKAGE / "rational.py").read_text()) != []


def unused_imports(source: str) -> list[str]:
    """Names the source imports and never reads; `from __future__` imports are directives."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


@pytest.mark.parametrize(
    "path",
    sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"),
    ids=lambda p: p.name,
)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_the_import_check_catches_unused_names_and_reads_attributes_and_annotations():
    source = (
        "from __future__ import annotations\nimport os.path\nimport re as regex\n"
        "from fractions import Fraction\nfrom typing import Iterable, Sequence\n"
        "from .tensor_space import Vector, make_vector\n"
        "def f(v: Sequence) -> Fraction:\n    return regex.compile(v)\n"
    )
    assert unused_imports(source) == ["Iterable", "Vector", "make_vector", "os"]


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

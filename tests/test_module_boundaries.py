"""No module of the package reaches into another module's private names.

A private name (one leading underscore, not a dunder) belongs to the module
that defines it.  Two ways of reaching it from elsewhere are refused:
``from .x import _name``, and ``Name._attr`` where ``Name`` was imported from
another schurdet module (for example ``AlgebraElement._from_ints`` outside
``perm_algebra``).

Scalars enter through one intake: only ``rational`` calls ``common_denominator`` or
``as_fraction`` (``__init__`` re-exports the latter); every other module goes through
``rational.integer_values``.

Every name a module imports is used in it (``__init__`` re-exports, so it is
exempt).

The package's public surface is pinned too: ``schurdet.__all__`` is sorted,
unique, and lists exactly the public names ``__init__`` imports.  Every public
top-level function and every public method of a public class has a caller
outside its own body, in the package or in ``perfbench/``, unless ``KEPT`` gives
the reason it stays; ``__init__`` only re-exports, so its imports are not calls.
A method name that several public classes define cannot be matched to one class
by its name, so each such ``Class.method`` needs a ``SHARED`` entry naming the
function whose body calls it, and that body must refer to the name.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

import schurdet

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "schurdet"
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# Public functions and methods that nothing in the package or perfbench/ calls, and why
# each stays.
KEPT = {
    "young_symmetrizer": "the paper's construction; acceptance criterion 6 checks z_λ against it",
    "Tensor.entry": "a data type's reader: the oracles read a tensor one index at a time",
    "AlgebraElement.unit": "a data type's constructor: the identity of the group algebra",
    "AlgebraElement.coefficient": "a data type's reader: the coefficient of one permutation",
    "Permutation.from_cycles": "a data type's constructor: a permutation in cycle notation",
    "Tensor.to_json_obj": "a data type's JSON form: the inverse of `from_json_obj`",
    "SetPartition.to_json_obj": "a data type's JSON form: a set partition's sorted blocks",
}

# For each public method whose name another public class also defines, the function
# ("file stem.qualified name") whose body calls it on that class.
SHARED = {
    "SuiteConfig.to_json_obj": "cli.cmd_verify",
    "CheckFailure.to_json_obj": "degeneracy.DegeneracyReport.to_json_obj",
    "DegeneracyReport.to_json_obj": "workloads.Sweep.answer",
    "Partition.to_json_obj": "degeneracy.DegeneracyReport.to_json_obj",
    "Tensor.is_zero": "degeneracy.critical_equation_failures",
    "AlgebraElement.is_zero": "workloads.Algebra.run",
    "Tensor.scale": "tensor_space.Tensor.__sub__",
    "AlgebraElement.scale": "perm_algebra.AlgebraElement.__neg__",
}


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
        ("from .tensor_space import _orbit_layout\n", ["from tensor_space import _orbit_layout"]),
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


def intake_uses(source: str, name: str = "common_denominator", imports: bool = True) -> list[int]:
    """Lines that import the name (when imports is true) or call it, by bare name or as an
    attribute."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if (imports and isinstance(node, ast.ImportFrom) and any(a.name == name for a in node.names))
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
    assert intake_uses(path.read_text()) == []


@pytest.mark.parametrize(
    "path",
    sorted(p for p in PACKAGE.glob("*.py") if p.name != "rational.py"),
    ids=lambda p: p.name,
)
def test_only_rational_calls_as_fraction(path):
    # __init__ imports it to re-export it, and must not call it
    assert intake_uses(path.read_text(), "as_fraction", path.name != "__init__.py") == []


def test_the_intake_check_catches_imports_and_both_call_spellings():
    source = (
        "from . import rational\nfrom .rational import common_denominator as cd\n"
        "common_denominator([])\nrational.common_denominator([], 8)\ninteger_values([])\n"
    )
    assert intake_uses(source) == [2, 3, 4]
    assert intake_uses(source, imports=False) == [3, 4]
    assert intake_uses((PACKAGE / "rational.py").read_text()) != []
    assert intake_uses((PACKAGE / "rational.py").read_text(), "as_fraction") != []


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


def public_definitions(tree: ast.Module):
    """(definition, qualified name, reference kinds that count) for each public top-level
    function and each public method of a public class."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node, node.name, {"name", "import", "attribute"}
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for member in node.body:
                if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                    yield member, f"{node.name}.{member.name}", {"attribute"}


def functions(trees: dict[str, ast.Module]) -> dict[str, ast.FunctionDef]:
    """Every top-level function and method of the parsed files, by "file stem.qualified name"."""
    found = {}
    for file, tree in trees.items():
        stem = Path(file).stem
        for node in tree.body:
            members = node.body if isinstance(node, ast.ClassDef) else [node]
            prefix = f"{stem}.{node.name}." if isinstance(node, ast.ClassDef) else f"{stem}."
            found.update((prefix + m.name, m) for m in members if isinstance(m, ast.FunctionDef))
    return found


def unreferenced(package: dict[str, str], others: dict[str, str], shared: dict[str, str]) -> list[str]:
    """The public functions and methods the package sources define that no code in package
    or others refers to outside the definition's own body: a method by attribute access,
    a function by name, import or attribute.  A method whose name several public classes
    define counts only through its `shared` entry, whose named body refers to the name; an
    entry for any other name is returned too, as stale."""
    parsed = {file: ast.parse(source) for file, source in [*package.items(), *others.items()]}
    trees = list(parsed.values())
    references = []
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                references.append((node, "attribute", node.attr))
            elif isinstance(node, ast.Name):
                references.append((node, "name", node.id))
            elif isinstance(node, ast.ImportFrom):
                references += [(node, "import", alias.name) for alias in node.names]
    definitions = [d for tree in trees[: len(package)] for d in public_definitions(tree)]
    methods = Counter(definition.name for definition, qualified, _ in definitions if "." in qualified)
    bodies = functions(parsed)
    found = sorted(set(shared) - {q for d, q, _ in definitions if "." in q and methods[d.name] > 1})
    for definition, qualified, kinds in definitions:
        own = set(ast.walk(definition))
        if "." in qualified and methods[definition.name] > 1:
            body = bodies.get(shared.get(qualified), definition)
            references_it = any(
                isinstance(node, ast.Attribute) and node.attr == definition.name
                for node in ast.walk(body)
                if node not in own
            )
        else:
            references_it = any(
                name == definition.name and kind in kinds and node not in own
                for node, kind, name in references
            )
        if not references_it:
            found.append(qualified)
    return sorted(found)


def test_every_public_function_and_method_has_a_caller_or_a_reason():
    package = {p.name: p.read_text() for p in PACKAGE.glob("*.py") if p.name != "__init__.py"}
    benchmark = {p.name: p.read_text() for p in PERFBENCH.glob("*.py")}
    assert unreferenced(package, benchmark, SHARED) == sorted(KEPT)
    assert set(SHARED).isdisjoint(KEPT)


def test_the_surface_check_matches_methods_by_attribute_and_functions_by_any_reference():
    package = {
        "a.py": (
            "class C:\n"
            "    def called(self): pass\n"
            "    def named(self): pass\n"
            "    def loops(self): return self.loops()\n"
            "    def _private(self): pass\n"
            "class _Hidden:\n"
            "    def method(self): pass\n"
            "def imported(): pass\n"
            "def read(): pass\n"
            "def recursive(): return recursive()\n"
            "def benchmarked(): pass\n"
        ),
        "b.py": "from .a import imported\nc.called()\nnamed\nmodule.read\n",
    }
    others = {"run.py": "from schurdet.a import benchmarked\n"}
    assert unreferenced(package, others, {}) == ["C.loops", "C.named", "recursive"]
    assert unreferenced(package, {}, {}) == ["C.loops", "C.named", "benchmarked", "recursive"]


def test_the_surface_check_matches_a_shared_method_name_only_in_its_named_body():
    package = {
        "a.py": (
            "class A:\n"
            "    def dump(self): pass\n"
            "    def only(self): pass\n"
            "class B:\n"
            "    def dump(self): return self.dump()\n"
            "class C:\n"
            "    def dump(self): pass\n"
            "class D:\n"
            "    def dump(self): pass\n"
            "def _writes(a): return a.dump()\n"
            "def _reads(a): return a.only()\n"
        ),
    }
    others = {"run.py": "class Runner:\n    def go(self, b): return b.dump()\n"}
    # A's entry names a body that calls it, and so does B's, in another file; B's own
    # recursion does not count, C's named body calls another name, and D has no entry
    shared = {"A.dump": "a._writes", "B.dump": "run.Runner.go", "C.dump": "a._reads"}
    assert unreferenced(package, others, shared) == ["C.dump", "D.dump"]
    assert unreferenced(package, others, {"B.dump": "a.B.dump"}) == ["A.dump", "B.dump", "C.dump", "D.dump"]
    # a name one public class defines still matches any attribute access, and needs no entry
    assert "A.only" not in unreferenced(package, others, {})
    assert unreferenced(package, others, {**shared, "A.only": "a._reads"}) == ["A.only", "C.dump", "D.dump"]

"""No module of idemkit forks on the representation of a real function.
One class, RealFunction, stores every function; Probe and UnitFunction are
names for its vector constructor and its [0, 1] range, so a reader that
tells them apart with isinstance would bring back a second code path.
Densities build from label dicts, vectors and blocks with the same
constructors as real functions, and normalize reads its weights with the
same label-dict constructor, so those are defined once, and the size
rule ARRAY_MIN_POINTS is read only where a body forks on it."""

import ast
import inspect
from pathlib import Path

import pytest

from idemkit import measures
from idemkit.capacities import PossibilityProfile
from idemkit.measures import MaxPlusDensity, MaxTimesDensity
from idemkit.spaces import PointValues, Probe, RealFunction, UnitFunction

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "idemkit"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py"))
SUBCLASSES = {"Probe", "UnitFunction"}
# the modules whose bodies fork on the size rule: the constructor choice
# (spaces), the compute forks (measures) and the drawers (generate)
SIZE_RULE_READERS = {"spaces.py", "measures.py", "generate.py"}


def representation_forks(source: str) -> list[str]:
    """Each isinstance call whose class argument names Probe or UnitFunction,
    alone, in a tuple, or as a module attribute."""
    forks = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)):
            continue
        if node.func.id != "isinstance" or len(node.args) != 2:
            continue
        for sub in ast.walk(node.args[1]):
            name = sub.id if isinstance(sub, ast.Name) else getattr(sub, "attr", None)
            if name in SUBCLASSES:
                forks.append(f"{name} (line {node.lineno})")
    return forks


def test_every_module_is_checked():
    assert {"spaces.py", "measures.py", "capacities.py", "generate.py"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_module_has_no_representation_fork(module):
    assert representation_forks((PACKAGE / module).read_text(encoding="utf-8")) == []


def test_the_check_sees_a_fork():
    source = (
        "if isinstance(phi, Probe):\n    pass\n"
        "ok = isinstance(phi, (RealFunction, spaces.UnitFunction))\n"
        "fine = isinstance(phi, RealFunction)\n"
    )
    assert representation_forks(source) == ["Probe (line 1)", "UnitFunction (line 3)"]


@pytest.mark.parametrize(
    "cls", [MaxPlusDensity, MaxTimesDensity, PossibilityProfile, Probe, UnitFunction]
)
def test_every_per_point_type_builds_from_vectors_through_one_layer(cls):
    # a density's own vector and block constructors cannot come back
    assert cls.from_vector.__func__ is RealFunction.from_vector.__func__
    assert cls.rows.__func__ is RealFunction.rows.__func__
    assert not hasattr(cls, "_checked")


@pytest.mark.parametrize(
    "cls",
    [
        RealFunction,
        UnitFunction,
        MaxPlusDensity,
        MaxTimesDensity,
        PossibilityProfile,
        # the weights normalize reads, one type per side
        *measures._UNNORMALIZED.values(),
    ],
)
def test_every_dict_built_type_has_one_constructor(cls):
    assert cls.__init__ is PointValues.__init__
    # one store: the label dict under the type's public name and the vector
    field = "values" if issubclass(cls, RealFunction) else "weights"
    assert inspect.getattr_static(cls, field).make is PointValues._by_label
    for name in ("__repr__", "__call__", "vector", "check_range", "_built"):
        assert inspect.getattr_static(cls, name) is vars(PointValues)[name], name


def builders_past_the_constructor(source: str) -> set[str]:
    """The functions, by qualified name, that make an object with
    `__new__` and so skip its constructor's checks."""
    found = set()

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                name = prefix + child.name
                if isinstance(child, ast.FunctionDef) and any(
                    isinstance(sub, ast.Attribute) and sub.attr == "__new__"
                    for sub in ast.walk(child)
                ):
                    found.add(name)
                visit(child, name + ".")

    visit(ast.parse(source), "")
    return found


def test_the_builders_past_the_constructors_are_named():
    # the vector and block layer of spaces, which check_range checks, and
    # the two trusted builders of the shrinker and of multiply:
    # Density._from_checked stores a label dict of weights its callers
    # keep in range and checks only the peak, the one label-dict builder
    # beside PointValues.__init__; Meta._from_checked stores a subsequence
    # of one merged support through the constructor's peak check; and
    # Capacity._from_checked keeps a table its callers made a capacity
    builders = {
        m: found
        for m in MODULES
        if (found := builders_past_the_constructor((PACKAGE / m).read_text(encoding="utf-8")))
    }
    assert builders == {
        "spaces.py": {"PointValues.from_vector", "row_views"},
        "measures.py": {"Density._from_checked", "Meta._from_checked"},
        "capacities.py": {"Capacity._from_checked"},
    }
    trusted = vars(measures.Density)["_from_checked"]
    for cls in (MaxPlusDensity, MaxTimesDensity, PossibilityProfile):
        assert inspect.getattr_static(cls, "_from_checked") is trusted
    for cls in (RealFunction, UnitFunction, Probe, *measures._UNNORMALIZED.values()):
        assert not hasattr(cls, "_from_checked")


def size_rule_reads(source: str) -> list[str]:
    """Each name, attribute or import that reads ARRAY_MIN_POINTS."""
    reads = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.alias):
            name = node.name
        else:
            continue
        if name == "ARRAY_MIN_POINTS":
            reads.append(f"line {node.lineno}")
    return reads


def test_only_the_forking_modules_read_the_size_rule():
    readers = {m for m in MODULES if size_rule_reads((PACKAGE / m).read_text(encoding="utf-8"))}
    assert readers <= SIZE_RULE_READERS
    assert "spaces.py" in readers  # PointValues._built, the one constructor choice


def test_the_check_sees_a_size_rule_read():
    source = (
        "from .measures import ARRAY_MIN_POINTS\n"
        "if n < measures.ARRAY_MIN_POINTS:\n    pass\n"
        "MIN_POINTS = 64\n"
    )
    assert size_rule_reads(source) == ["line 1", "line 2"]


def unchecked_builds(source: str) -> list[str]:
    """The enclosing function, by qualified name, of each call of a
    `_from_checked` builder, in the order of the AST walk; `<module>` for a
    call outside every function."""
    calls = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = scope + (child.name,)
            elif (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Attribute)
                and child.func.attr == "_from_checked"
            ):
                calls.append(".".join(scope) or "<module>")
            visit(child, inner)

    visit(ast.parse(source), ())
    return calls


def test_the_unchecked_builds_are_named():
    # every call that skips a constructor's range checks, by the function it
    # sits in; each caller keeps its weights in range, or its entries apart,
    # by how it makes them (tests/test_checked_parts.py, test_shrink_builders.py)
    calls = {
        m: found
        for m in MODULES
        if (found := unchecked_builds((PACKAGE / m).read_text(encoding="utf-8")))
    }
    assert calls == {
        "capacities.py": ["capacity_from_profile"],
        "generate.py": ["_drawn", "random_capacity"],
        "laws.py": ["drop_weight.corrupted", "_meta_shrinks"],
        "measures.py": ["Density._divided", "dirac", "pushforward", "multiply"],
    }


def test_the_check_sees_an_unchecked_build():
    source = (
        "x = Meta._from_checked(pairs)\n"
        "class A:\n"
        "    def f(self):\n"
        "        def g():\n"
        "            return type(self)._from_checked(s, w)\n"
        "        return g\n"
        "def h(cls):\n"
        "    cls(s, w)\n"
        "    return [cls._from_checked(s, w), cls._from_checked(t, v)]\n"
        "def _from_checked(cls):\n"
        "    return _from_checked\n"
    )
    assert unchecked_builds(source) == ["<module>", "A.f.g", "h", "h"]

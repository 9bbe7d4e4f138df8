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

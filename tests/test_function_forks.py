"""No module of idemkit forks on the representation of a real function.
One class, RealFunction, stores every function; Probe and UnitFunction are
names for its vector constructor and its [0, 1] range, so a reader that
tells them apart with isinstance would bring back a second code path.
Densities build from vectors and blocks with the same constructors as real
functions, so those are defined once."""

import ast
from pathlib import Path

import pytest

from idemkit.capacities import PossibilityProfile
from idemkit.measures import MaxPlusDensity, MaxTimesDensity
from idemkit.spaces import Probe, RealFunction, UnitFunction

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "idemkit"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py"))
SUBCLASSES = {"Probe", "UnitFunction"}


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

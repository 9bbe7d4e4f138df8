"""Every knob of idemkit.generate is set by some caller.  generate draws the
instances of the law suites and tests, so a defaulted parameter that no
call outside it ever sets is a constant with a name: the check reads every
call in src/, tests/, perfbench/ and demos/ and asks that each defaulted
parameter of a public function of generate be set by at least one of them,
by position or by keyword."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GENERATE = ROOT / "src" / "idemkit" / "generate.py"
CALLER_DIRS = ("src", "tests", "perfbench", "demos")


def knobs(source: str) -> dict[str, dict[str, int | None]]:
    """The defaulted parameters of each public top-level function, by name,
    mapped to their position (None for a keyword-only one)."""
    found = {}
    for node in ast.parse(source).body:
        if not isinstance(node, ast.FunctionDef) or node.name.startswith("_"):
            continue
        args = node.args
        positional = args.posonlyargs + args.args
        first = len(positional) - len(args.defaults)
        defaulted = {a.arg: i for i, a in enumerate(positional) if i >= first}
        defaulted |= {a.arg: None for a, d in zip(args.kwonlyargs, args.kw_defaults) if d}
        if defaulted:
            found[node.name] = defaulted
    return found


def knobs_set(source: str, functions: dict[str, dict[str, int | None]]) -> set[tuple[str, str]]:
    """The (function, parameter) pairs that some call in `source` sets: a
    call names the function alone or as an attribute, and sets a parameter
    by keyword or by a positional argument at or past its position."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
        if name not in functions:
            continue
        given = 0
        while given < len(node.args) and not isinstance(node.args[given], ast.Starred):
            given += 1
        keywords = {k.arg for k in node.keywords}
        for param, at in functions[name].items():
            if param in keywords or (at is not None and at < given):
                found.add((name, param))
    return found


def unset_knobs() -> list[str]:
    functions = knobs(GENERATE.read_text(encoding="utf-8"))
    callers = [
        path
        for folder in CALLER_DIRS
        for path in sorted((ROOT / folder).rglob("*.py"))
        if path != GENERATE
    ]
    used = set().union(*(knobs_set(p.read_text(encoding="utf-8"), functions) for p in callers))
    return [
        f"{name}.{param}"
        for name, params in functions.items()
        for param in params
        if (name, param) not in used
    ]


def test_every_knob_of_generate_is_set_by_a_caller():
    assert unset_knobs() == []


def test_the_knobs_that_remain():
    # by position too: perfbench/probes.py passes random_meta's max_support
    # as the third argument
    assert knobs(GENERATE.read_text(encoding="utf-8")) == {
        "random_space": {"max_points": 1, "min_points": 2},
        "random_maxplus_density": {"min_weight": 2, "bottom_rate": 3},
        "random_maxtimes_density": {"zero_rate": 2},
        "random_meta": {"max_support": 2},
        "random_possibility_profile": {"zero_rate": 2, "quantum": 3},
        "random_meta_possibility": {"quantum": 2},
        "random_weight_vector": {"min_weight": 2, "bottom_rate": 3},
    }


def test_the_check_sees_an_unset_knob():
    source = (
        "def draw(rng, n, lo=-5.0, hi=5.0, *, rate=0.2):\n    pass\n"
        "def _private(rng, k=4):\n    pass\n"
        "def plain(rng):\n    pass\n"
    )
    functions = knobs(source)
    assert functions == {"draw": {"lo": 2, "hi": 3, "rate": None}}
    calls = (
        "draw(rng, 3)\n"
        "generate.draw(rng, 3, -1.0)\n"  # lo by position
        "draw(rng, *args, 2.0)\n"  # past a starred argument nothing counts
        "draw(rng, 3, rate=0.5)\n"
        "other(rng, 3, 1.0, 2.0)\n"
    )
    assert knobs_set(calls, functions) == {("draw", "lo"), ("draw", "rate")}

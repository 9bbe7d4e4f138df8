import contextlib
import functools
import io
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idemkit import cli, laws
from idemkit.cli import main


@pytest.fixture
def docs(tmp_path):
    paths = {}

    def write(name, doc):
        p = tmp_path / name
        p.write_text(json.dumps(doc))
        paths[name] = str(p)
        return str(p)

    write("space.json", {"points": ["a", "b", "c"]})
    write("poss.json", {"kind": "possibility", "singletons": {"a": 1.0, "b": 0.5, "c": 0.1}})
    write("fn.json", {"values": {"a": 0, "b": 1, "c": 2}})
    write("gens.json", {"dim": 2, "points": [[0, 3], [2, 0]]})
    paths["tmp"] = str(tmp_path)
    return paths


def test_integrate_prints_nine_significant_digits(docs, capsys):
    rc = main(
        ["integrate", "--space", docs["space.json"], "--capacity", docs["poss.json"],
         "--function", docs["fn.json"]]
    )
    assert rc == 0
    assert capsys.readouterr().out.strip() == "0.306852819"


def test_integrate_both(docs, capsys):
    rc = main(
        ["integrate", "--space", docs["space.json"], "--capacity", docs["poss.json"],
         "--function", docs["fn.json"], "--both"]
    )
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "0.306852819"
    assert lines[1] == "pointwise 0.306852819"
    assert lines[2] == "diff 0"


def test_integrate_constant_function(docs, capsys):
    rc = main(
        ["integrate", "--space", docs["space.json"], "--capacity", docs["poss.json"],
         "--function", '{"values": {"a": 2.5, "b": 2.5, "c": 2.5}}']
    )
    assert rc == 0
    assert capsys.readouterr().out.strip() == "2.5"


def test_integrate_with_full_capacity_document(docs, capsys):
    cap = {
        "kind": "capacity",
        "sets": {"": 0.0, "a": 1.0, "b": 0.5, "c": 0.1,
                 "a|b": 1.0, "a|c": 1.0, "b|c": 0.5, "a|b|c": 1.0},
    }
    rc = main(
        ["integrate", "--space", docs["space.json"], "--capacity", json.dumps(cap),
         "--function", docs["fn.json"]]
    )
    assert rc == 0
    assert capsys.readouterr().out.strip() == "0.306852819"


def test_integrate_rejects_unnormalized_capacity(docs, capsys):
    cap = {
        "kind": "capacity",
        "sets": {"": 0.0, "a": 0.5, "b": 0.5, "c": 0.1,
                 "a|b": 0.9, "a|c": 0.5, "b|c": 0.5, "a|b|c": 0.9},
    }
    rc = main(
        ["integrate", "--space", docs["space.json"], "--capacity", json.dumps(cap),
         "--function", docs["fn.json"]]
    )
    assert rc == 2
    assert "expected 1" in capsys.readouterr().err


def test_integrate_both_requires_possibility(docs, capsys):
    cap = {
        "kind": "capacity",
        "sets": {"": 0.0, "a": 1.0, "b": 0.5, "c": 0.1,
                 "a|b": 1.0, "a|c": 1.0, "b|c": 0.5, "a|b|c": 1.0},
    }
    rc = main(
        ["integrate", "--space", docs["space.json"], "--capacity", json.dumps(cap),
         "--function", docs["fn.json"], "--both"]
    )
    assert rc == 2
    out, err = capsys.readouterr()
    assert out == ""  # refused before the integral is printed
    assert "--both applies to possibility documents only" in err


def test_hull_member(docs, capsys):
    assert main(["hull", "member", "--generators", docs["gens.json"], "--point", "[1,3]"]) == 0
    assert main(["hull", "member", "--generators", docs["gens.json"], "--point", "[3,0]"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out == ["true", "false"]


def test_hull_member_explains_a_point_that_is_in(docs, capsys):
    argv = ["hull", "member", "--generators", docs["gens.json"], "--point", "[1,3]", "--explain"]
    assert main(argv) == 0
    assert capsys.readouterr().out.splitlines() == ["true", "weights [0,-1]"]


def test_hull_member_explains_a_point_that_is_out(docs, capsys):
    argv = ["hull", "member", "--generators", docs["gens.json"], "--explain", "--point"]
    assert main(argv + ["[3,0]"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "false", "rho 0", "q [2,0]", "broken at coordinate 0: p - q = 1",
    ]
    # below both generators, the constant term -rho is what excludes it
    assert main(argv + ["[-5,-5]"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "false", "rho -7", "q [-5,-5]", "broken at constant term: -rho = 7",
    ]


def test_hull_member_output_without_explain_is_one_word(docs, capsys):
    for point, verdict in (("[1,3]", "true"), ("[3,0]", "false"), ("[-5,-5]", "false")):
        assert main(["hull", "member", "--generators", docs["gens.json"], "--point", point]) == 0
        assert capsys.readouterr().out == verdict + "\n"


def test_hull_combine(docs, capsys):
    rc = main(["hull", "combine", "--generators", docs["gens.json"], "--weights", "[0,-2]"])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "[0,3]"


def test_hull_combine_rejects_bad_weights(docs, capsys):
    rc = main(["hull", "combine", "--generators", docs["gens.json"], "--weights", "[0,-2,0]"])
    assert rc == 2


def test_barycenter(docs, capsys):
    rc = main(
        ["barycenter", "--generators", '{"dim": 2, "points": [[0, 0], [2, 1]]}',
         "--density", '{"weights": [0, -1]}']
    )
    assert rc == 0
    assert capsys.readouterr().out.strip() == "[1,0]"


def test_barycenter_dirac_selects_the_generator(docs, capsys):
    rc = main(
        ["barycenter", "--generators", docs["gens.json"], "--density", '[0, "-inf"]']
    )
    assert rc == 0
    assert capsys.readouterr().out.strip() == "[0,3]"


def test_barycenter_rejects_unnormalized_density(docs, capsys):
    rc = main(["barycenter", "--generators", docs["gens.json"], "--density", "[-0.5,-1]"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "peak weight is -0.5 at point 'g0'" in err and "expected 0" in err
    assert "np.float64" not in err


def test_convert_maxplus_to_maxtimes(capsys):
    rc = main(
        ["convert", "--from", "maxplus", "--to", "maxtimes", "--input",
         '{"kind": "maxplus", "values": {"a": 0, "b": "-inf"}}']
    )
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"kind": "maxtimes", "values": {"a": 1.0, "b": 0.0}}


def test_convert_maxtimes_to_maxplus(capsys):
    rc = main(
        ["convert", "--from", "maxtimes", "--to", "maxplus", "--input",
         '{"kind": "maxtimes", "values": {"a": 1.0, "b": 0.5}}']
    )
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["values"]["a"] == 0.0
    assert doc["values"]["b"] == pytest.approx(-0.6931471805599453)


def test_convert_possibility_round_trip(tmp_path, capsys):
    src = {"kind": "possibility", "singletons": {"a": 1.0, "b": 0.5}}
    mid = str(tmp_path / "mid.json")
    out = str(tmp_path / "out.json")
    assert main(["convert", "--from", "possibility", "--to", "maxtimes",
                 "--input", json.dumps(src), "--output", mid]) == 0
    assert main(["convert", "--from", "maxtimes", "--to", "possibility",
                 "--input", mid, "--output", out]) == 0
    assert json.loads(Path(out).read_text()) == src


def test_convert_maxplus_round_trip(tmp_path):
    src = {"kind": "maxplus", "values": {"a": 0.0, "b": -1.25, "c": "-inf"}}
    mid = str(tmp_path / "mid.json")
    out = str(tmp_path / "out.json")
    assert main(["convert", "--from", "maxplus", "--to", "maxtimes",
                 "--input", json.dumps(src), "--output", mid]) == 0
    assert main(["convert", "--from", "maxtimes", "--to", "maxplus",
                 "--input", mid, "--output", out]) == 0
    back = json.loads(Path(out).read_text())
    assert back["kind"] == "maxplus"
    assert back["values"]["a"] == 0.0
    assert back["values"]["b"] == pytest.approx(-1.25, abs=1e-9)
    assert back["values"]["c"] == "-inf"


def test_convert_rejects_mismatched_kind(capsys):
    rc = main(
        ["convert", "--from", "maxplus", "--to", "maxtimes", "--input",
         '{"kind": "maxtimes", "values": {"a": 1.0}}']
    )
    assert rc == 2


def test_laws_list_names_every_suite(capsys):
    assert main(["laws", "--list"]) == 0
    out = capsys.readouterr().out
    for name in ("unit", "assoc", "roundtrip", "functor", "s-iso", "l-iso",
                 "repr", "charac", "shilkret", "possmult", "convexity"):
        assert f"{name}:" in out


def test_laws_single_trial_passes(capsys):
    assert main(["laws", "--suite", "unit", "--trials", "1", "--seed", "0"]) == 0


def test_laws_mutation_fails_with_witness(tmp_path, capsys):
    report_path = str(tmp_path / "report.json")
    rc = main(
        ["laws", "--suite", "unit", "--trials", "30", "--seed", "0",
         "--mutate", "drop-weight", "--json", report_path]
    )
    assert rc == 1
    doc = json.loads(Path(report_path).read_text())
    failures = doc["reports"][0]["failures"]
    assert failures and failures[0]["witness"]


def test_laws_json_reports_are_byte_identical(tmp_path):
    p1, p2 = str(tmp_path / "r1.json"), str(tmp_path / "r2.json")
    assert main(["laws", "--suite", "repr", "--trials", "25", "--seed", "9", "--json", p1]) == 0
    assert main(["laws", "--suite", "repr", "--trials", "25", "--seed", "9", "--json", p2]) == 0
    assert Path(p1).read_bytes() == Path(p2).read_bytes()


def test_bad_tolerance_env_is_an_input_error(monkeypatch, capsys):
    monkeypatch.setenv("IDEMKIT_TOLERANCE", "-1")
    assert main(["laws", "--suite", "convexity", "--trials", "3"]) == 2
    assert "IDEMKIT_TOLERANCE" in capsys.readouterr().err


@pytest.mark.parametrize("tol", [True, 10**400], ids=["True", "10**400"])
def test_bad_explicit_tolerance_is_an_input_error(monkeypatch, capsys, tol):
    # no flag sets tol, so the suite runner is handed one: the error must
    # reach exit 2 before any trial, not run as 1.0 or exit 1 on an overflow
    monkeypatch.setattr(cli, "run_suite", functools.partial(laws.run_suite, tol=tol))
    assert main(["laws", "--suite", "unit", "--trials", "2"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "tol must be" in err


def test_laws_max_space_beyond_capacity_tables_is_an_input_error(capsys):
    assert main(["laws", "--suite", "repr", "--trials", "2", "--max-space", "21"]) == 2
    out, err = capsys.readouterr()
    assert out == ""  # no trial ran
    assert "max-space must be at most 20" in err


def test_missing_file_is_an_input_error(capsys):
    rc = main(["integrate", "--space", "/does/not/exist.json",
               "--capacity", "{}", "--function", "{}"])
    assert rc == 2


HUGE = "1" + "0" * 400  # a JSON integer beyond the range of a double


@pytest.mark.parametrize(
    "argv",
    [
        ["integrate", "--space", "space.json", "--capacity", "poss.json",
         "--function", '{"values": {"a": 0, "b": %s, "c": 2}}' % HUGE],
        ["hull", "combine", "--generators", "gens.json", "--weights", "[0, -%s]" % HUGE],
        ["hull", "combine", "--generators", "gens.json", "--weights", "[0, %s]" % HUGE],
        ["barycenter", "--generators", "gens.json", "--density", "[0, -%s]" % HUGE],
        ["hull", "member", "--generators", "gens.json", "--point", "[%s, 0]" % HUGE],
        ["hull", "member", "--generators", "line.json", "--point", "[true]"],
        ["hull", "member", "--generators", "line.json", "--point", '["0.5"]'],
        ["hull", "member", "--generators", "line.json", "--point", '{"point": [0.5]}'],
        ["hull", "member", "--generators", '{"dim": true, "points": [[0.5]]}', "--point", "[0.5]"],
    ],
)
def test_numbers_out_of_range_or_of_the_wrong_type_are_input_errors(docs, capsys, argv):
    docs["line.json"] = json.dumps({"dim": 1, "points": [[0.0], [2.0]]})
    argv = [docs.get(arg, arg) for arg in argv]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_hull_member_reads_a_point_of_numbers(docs, capsys):
    line = json.dumps({"dim": 1, "points": [[0.0], [2.0]]})
    assert main(["hull", "member", "--generators", line, "--point", "[0.5]"]) == 0
    assert main(["hull", "member", "--generators", line, "--point", "[1]"]) == 0
    assert capsys.readouterr().out.split() == ["true", "true"]


# any JSON value: scalars of every kind (NaN, +-inf and integers beyond a
# double among them, as Python's json module writes and reads them), the
# bottom token, and lists and objects of them, plus number lists near the
# valid inputs (pairs holding a peak 0 among them) so the success paths are
# reached too
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
    | st.just("-inf"),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["weights", "point", "dim"]) | st.text(max_size=4), inner,
                      max_size=3),
    max_leaves=10,
)
NEAR_VALID = st.lists(
    st.floats(max_value=0.0) | st.just("-inf") | st.integers(-5, 5), max_size=4
) | st.tuples(st.floats(-5.0, 0.0) | st.just("-inf"), st.just(0)).flatmap(st.permutations)
FUZZED_FLAGS = [
    ["hull", "combine", "--weights"],
    ["barycenter", "--density"],
    ["hull", "member", "--point"],
    ["hull", "member", "--explain", "--point"],
]


def test_hull_flags_take_any_json_value_without_an_internal_error(tmp_path, monkeypatch):
    # a value that is not an object or an array is read as a path, in an
    # empty directory; the value is attached with "=", since argparse takes
    # a separate argument such as -Infinity for an option
    monkeypatch.chdir(tmp_path)
    gens = json.dumps({"dim": 2, "points": [[0, 3], [2, 0]]})

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(FUZZED_FLAGS), JSON_VALUES | NEAR_VALID)
    def run(flag, value):
        *command, option = flag
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main([*command, "--generators", gens, f"{option}={json.dumps(value)}"])
        assert rc in (0, 2), err.getvalue()
        assert (rc == 2) == err.getvalue().startswith("error: ")

    run()


def test_json_nested_too_deeply_is_an_input_error(tmp_path, capsys):
    # the decoder's RecursionError, inline or from a file, exits 2 and not 1
    deep = "[" * 100_000
    path = tmp_path / "deep.json"
    path.write_text(deep)
    gens = json.dumps({"dim": 2, "points": [[0, 3], [2, 0]]})
    runs = [
        ["hull", "member", "--generators", gens, "--point", deep],
        ["convert", "--from", "maxplus", "--to", "maxtimes", "--input", str(path)],
        ["convert", "--from", "maxplus", "--to", "maxtimes", "--input", deep],
    ]
    for argv in runs:
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: JSON document nested too deeply to decode\n"

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from idemkit.semiring import (
    BOTTOM,
    default_tolerance,
    exp_bridge,
    format_score,
    is_bottom,
    log_bridge,
    oplus,
    otimes,
    resolve_tolerance,
    score_eq,
)

finite = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)
scores = st.one_of(st.just(BOTTOM), finite)
nonpositive = st.one_of(st.just(BOTTOM), st.floats(min_value=-50.0, max_value=0.0))
units = st.floats(min_value=0.0, max_value=1.0)


def test_oplus_bottom_is_neutral():
    assert oplus(BOTTOM, 3.0) == 3.0
    assert oplus(3.0, BOTTOM) == 3.0
    assert is_bottom(oplus(BOTTOM, BOTTOM))


def test_oplus_examples():
    assert oplus(2.0, 5.0) == 5.0
    assert oplus(-1.0, -1.0) == -1.0


def test_otimes_bottom_absorbs():
    assert is_bottom(otimes(BOTTOM, 3.0))
    assert is_bottom(otimes(3.0, BOTTOM))
    assert is_bottom(otimes(BOTTOM, BOTTOM))


def test_otimes_examples():
    assert otimes(2.0, 3.0) == 5.0
    assert otimes(0.0, 7.25) == 7.25


@given(scores, scores)
def test_oplus_commutative(a, b):
    assert oplus(a, b) == oplus(b, a)


@given(scores, scores, scores)
def test_oplus_associative(a, b, c):
    assert oplus(oplus(a, b), c) == oplus(a, oplus(b, c))


@given(scores)
def test_oplus_idempotent(a):
    assert oplus(a, a) == a


@given(scores, scores)
def test_otimes_commutative(a, b):
    assert otimes(a, b) == otimes(b, a)


@given(scores, scores, scores)
def test_otimes_distributes_over_oplus(a, b, c):
    left = otimes(a, oplus(b, c))
    right = oplus(otimes(a, b), otimes(a, c))
    if is_bottom(left) or is_bottom(right):
        assert is_bottom(left) and is_bottom(right)
    else:
        assert abs(left - right) <= 1e-12


def test_exp_bridge_endpoints():
    assert exp_bridge(BOTTOM) == 0.0
    assert exp_bridge(0.0) == 1.0


def test_exp_bridge_rejects_positive():
    with pytest.raises(ValueError):
        exp_bridge(0.5)


def test_log_bridge_endpoints():
    assert is_bottom(log_bridge(0.0))
    assert log_bridge(1.0) == 0.0
    assert log_bridge(0.5) == -0.6931471805599453


@given(nonpositive)
def test_log_after_exp_is_identity(a):
    back = log_bridge(exp_bridge(a))
    if is_bottom(a):
        assert is_bottom(back)
    elif a == 0.0:
        assert back == 0.0
    else:
        assert abs(back - a) <= 1e-12 * max(1.0, abs(a))


@given(units)
def test_exp_after_log_is_identity(u):
    assert abs(exp_bridge(log_bridge(u)) - u) <= 1e-12


@given(nonpositive, nonpositive)
def test_bridge_turns_max_into_max(a, b):
    assert exp_bridge(oplus(a, b)) == max(exp_bridge(a), exp_bridge(b))


@given(nonpositive, nonpositive)
def test_bridge_turns_plus_into_times(a, b):
    assert abs(exp_bridge(otimes(a, b)) - exp_bridge(a) * exp_bridge(b)) <= 1e-12


def test_score_eq_bottom_never_matches_finite():
    assert score_eq(BOTTOM, BOTTOM)
    assert not score_eq(BOTTOM, -1e300)
    assert not score_eq(-1e300, BOTTOM)
    assert score_eq(1.0, 1.0 + 1e-12)
    assert not score_eq(1.0, 1.1)


def test_format_score():
    assert format_score(BOTTOM) == "-inf"
    assert format_score(0.3068528194400547) == "0.306852819"
    assert format_score(0.0) == "0"


def test_tolerance_env_override(monkeypatch):
    monkeypatch.setenv("IDEMKIT_TOLERANCE", "0.5")
    assert default_tolerance() == 0.5
    assert score_eq(1.0, 1.4)
    monkeypatch.delenv("IDEMKIT_TOLERANCE")
    assert default_tolerance() == 1e-9


@pytest.mark.parametrize("raw", ["-1", "nan", "inf", "abc"])
def test_tolerance_env_rejects_bad_values(monkeypatch, raw):
    monkeypatch.setenv("IDEMKIT_TOLERANCE", raw)
    with pytest.raises(ValueError, match="IDEMKIT_TOLERANCE"):
        default_tolerance()
    with pytest.raises(ValueError, match="IDEMKIT_TOLERANCE"):
        score_eq(1.0, 1.0)


# True would run as 1.0, numpy's bools too, and 10**400 overflows a double
@pytest.mark.parametrize(
    "tol", [-1, -1e-12, float("nan"), float("inf"), float("-inf"), "abc", True, False,
     pytest.param(np.True_, id="np.True_"), pytest.param(np.array(False), id="array(False)"),
     pytest.param(10**400, id="10**400")]
)
def test_explicit_tolerance_rejects_bad_values(tol):
    with pytest.raises(ValueError, match="tol"):
        resolve_tolerance(tol)
    with pytest.raises(ValueError, match="tol"):
        score_eq(1.0, 1.0, tol=tol)
    with pytest.raises(ValueError, match="tol"):
        score_eq(BOTTOM, BOTTOM, tol=tol)


def test_explicit_tolerance_is_used_as_given():
    assert resolve_tolerance(0) == 0.0
    assert resolve_tolerance(0.5) == 0.5
    # numpy numbers that are not bools pass as their float
    assert resolve_tolerance(np.float64(0.25)) == 0.25
    assert resolve_tolerance(np.int64(2)) == 2.0
    assert resolve_tolerance(np.array(1e-3)) == 1e-3
    assert score_eq(1.0, 1.4, tol=0.5)
    assert not score_eq(1.0, 1.0 + 1e-12, tol=0.0)

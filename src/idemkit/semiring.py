"""Max-plus and max-times scalar arithmetic with an explicit bottom element.

Scores live in R extended by a bottom element (written ``-inf``); weights on
the multiplicative side live in [0, 1].  The exp/log bridge converts between
the two sides, sending bottom to 0 and 0 to 1.

Bottom is represented by IEEE ``-inf``: it is a distinguished non-finite
value (never a very negative float), ``max`` treats it as neutral and ``+``
as absorbing, exactly as required.  The named operations below avoid every
arithmetic path that could turn it into a NaN.
"""

from __future__ import annotations

import math
import numbers
import os

BOTTOM = float("-inf")

DEFAULT_TOLERANCE = 1e-9

# environment override consulted by default_tolerance()
TOLERANCE_ENV_VAR = "IDEMKIT_TOLERANCE"


def default_tolerance() -> float:
    """Library-wide comparison tolerance, overridable via IDEMKIT_TOLERANCE.

    The variable is read on every call, so a change at run time takes effect;
    a value that is not a finite non-negative number raises ValueError."""
    raw = os.environ.get(TOLERANCE_ENV_VAR)
    if not raw:
        return DEFAULT_TOLERANCE
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(f"{TOLERANCE_ENV_VAR} must be a number, got {raw!r}") from None
    if not math.isfinite(value) or value < 0.0:
        raise ValueError(f"{TOLERANCE_ENV_VAR} must be finite and non-negative, got {raw!r}")
    return value


def resolve_tolerance(tol: float | None) -> float:
    """The tolerance to compare with: the library default for None, else
    `tol` itself, which must be a finite non-negative number and not a
    bool."""
    if tol is None:
        return default_tolerance()
    # float(True) is 1.0: refuse a bool, Python's or numpy's, behind one class
    # test on the common path, the resolved float that law suites pass on
    if tol.__class__ is not float and (
        isinstance(tol, bool) or getattr(tol, "dtype", None) == bool
    ):
        raise ValueError(f"tol must be a number, got {tol!r}")
    try:
        value = float(tol)
    except (TypeError, ValueError):
        raise ValueError(f"tol must be a number, got {tol!r}") from None
    except OverflowError:  # an int beyond the range of a double
        raise ValueError(f"tol must be finite and non-negative, got {tol!r}") from None
    if not math.isfinite(value) or value < 0.0:
        raise ValueError(f"tol must be finite and non-negative, got {tol!r}")
    return value


def check_integer(field: str, value) -> int:
    """value as an int; a bool, or any value that is not an integer (a
    float or a str among them), raises ValueError naming the field."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{field} must be an integer, got {value!r}")
    return int(value)


def is_bottom(a: float) -> bool:
    return a == BOTTOM


def oplus(a: float, b: float) -> float:
    """Semiring addition: maximum, with bottom as the neutral element."""
    return a if a >= b else b


def otimes(a: float, b: float) -> float:
    """Semiring multiplication: addition, with bottom absorbing and 0 neutral."""
    return a + b


def exp_bridge(a: float) -> float:
    """Map a score in [-inf, 0] to [0, 1] via exp; bottom goes to exactly 0."""
    if a > 0.0:
        raise ValueError(f"score {a!r} is positive; the bridge covers [-inf, 0] only")
    return math.exp(a)


def log_bridge(u: float) -> float:
    """Inverse of exp_bridge: [0, 1] to [-inf, 0], sending 0 to bottom."""
    if u == 0.0:
        return BOTTOM
    return math.log(u)


def score_eq(a: float, b: float, tol: float | None = None) -> bool:
    """Equality up to tolerance; bottom only ever equals bottom."""
    tol = resolve_tolerance(tol)
    if is_bottom(a) or is_bottom(b):
        return is_bottom(a) and is_bottom(b)
    return abs(a - b) <= tol


def format_score(a: float) -> str:
    """Textual encoding: decimal literal with 9 significant digits, or the
    exact token ``-inf`` for bottom."""
    if is_bottom(a):
        return "-inf"
    return "%.9g" % a

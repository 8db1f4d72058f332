"""The exact moment engine of tests/oracles.py: its readers checked
against each other, the depth growth of E x1_n^2 in the three log-factor
cases, and oracles that load with the test extra alone."""
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import trisre as t
from trisre import (Constant, EqualDiagonal, IndependentEntries,
                    IndependentOffDiagonal, Lognormal, Normal,
                    ProportionalToDiagonal)

from oracles import (chain_map, distinct_diag_constant, equal_diag_constant,
                     goldie_increment, law_pair, moments, scalar_map,
                     stationary)

TESTS = Path(__file__).resolve().parent


def test_goldie_increment_at_three_is_the_limit_of_the_growth_from_zero():
    # A = LN(-0.54, 0.6) has E A^3 = 1, and B = 1. Goldie's increment
    # E[(AX + B)^3 - (AX)^3] = 3 E[A^2] E X^2 + 3 E[A] E X + 1 over the
    # stationary moments, and the per-step growth of E X_k^3 from zero at
    # k = 400, agree to the rounding of E X_k^3
    T = scalar_map(law_pair(Lognormal(-0.54, 0.6), Constant(1.0)), 3)
    assert T[-1, -1] == pytest.approx(1.0, rel=1e-15)
    increment = goldie_increment(T, stationary(T))
    assert increment == pytest.approx(46.7995197087, abs=1e-10)
    top = moments(T, 400)[:, -1]
    assert top[-1] - top[-2] == pytest.approx(increment, rel=1e-11)


# The depth growth of the three log-factor cases at alpha = 2. E x1_n^2
# of the chain from zero grows like K n^(beta + 1), and K gives c by one
# rule per case:
# - distinct diagonals with a shared index: c+ = K / (rho1 rho2);
# - equal diagonals, zero drift: c+ + c- = K / rho1^2;
# - equal diagonals, nonzero drift: c+ = 3 K / (2 rho1^3).
# These rules are identities checked here against the closed forms, not
# derived. They hold to the precision of K over every law tried.

def depth_coefficient(model, degree: int, n: int = 200) -> float:
    """K of E x1_n^2 ~ K n^degree: the degree-th difference of the exact
    moments at depth n, over degree!. That is exact for a polynomial of
    the degree. At n = 200 the geometric remainder of these laws is below
    1e-11 relative, and the rounding of moments of size K n^degree leaves
    about eps 2^degree n^degree / degree!: 2e-11 relative at degree 2 and
    2e-9 at degree 3."""
    top = moments(chain_map(model, 2), n)[:, -1]
    return float(np.diff(top, degree)[-1]) / math.factorial(degree)


def critical(rho: float) -> Lognormal:
    """LN(-rho, sqrt rho): E a^2 = 1 and E[a^2 log a] = rho."""
    return Lognormal(-rho, math.sqrt(rho))


@pytest.mark.parametrize("rho", [0.5, 0.75, 1.0, 1.5, 2.0])
def test_distinct_diagonal_constant_is_the_depth_growth_over_both_rhos(rho):
    # rho1 = 1 and rho2 = rho; at rho = 2 this is
    # distinct_diag_equal_index. K / rho1^2 alone would be off by the
    # factor rho2 / rho1
    m = IndependentEntries(a11=critical(1.0), a12=Lognormal(-1, 0.5),
                           a22=critical(rho), b1=Constant(1.0),
                           b2=Constant(1.0))
    rho1, rho2 = (t.abs_moment_derivative(a, 2.0) for a in (m.a11, m.a22))
    assert depth_coefficient(m, 2) / (rho1 * rho2) == pytest.approx(
        distinct_diag_constant(m), rel=1e-8)


@pytest.mark.parametrize("a12_mode", [
    ProportionalToDiagonal(Normal(0, 1)),
    IndependentOffDiagonal(Normal(0, 1.5))], ids=["proportional",
                                                  "independent"])
@pytest.mark.parametrize("rho", [1.0, 0.25])
def test_zero_drift_constants_are_the_depth_growth_over_rho1_squared(
        rho, a12_mode):
    # at rho = 1 with the proportional N(0, 1) this is
    # equal_diag_zero_drift, whose K reads 2.0414941
    m = EqualDiagonal(d=critical(rho), a12_mode=a12_mode, b1=Constant(1.0),
                      b2=Constant(1.0))
    rho1 = t.abs_moment_derivative(m.d, 2.0)
    assert depth_coefficient(m, 2) / rho1 ** 2 == pytest.approx(
        2 * equal_diag_constant(m), rel=1e-8)


@pytest.mark.parametrize("a12_mode", [
    ProportionalToDiagonal(Constant(0.5)),
    ProportionalToDiagonal(Normal(0.5, 1)),
    IndependentOffDiagonal(Lognormal(-1, 0.5))], ids=[
        "proportional_constant", "proportional_normal", "independent"])
@pytest.mark.parametrize("rho", [1.0, 0.25])
def test_drift_constant_is_three_halves_of_the_depth_growth_over_rho1_cubed(
        rho, a12_mode):
    # at rho = 1 with the proportional 0.5 this is
    # equal_diag_nonzero_drift
    m = EqualDiagonal(d=critical(rho), a12_mode=a12_mode, b1=Constant(1.0),
                      b2=Constant(1.0))
    rho1 = t.abs_moment_derivative(m.d, 2.0)
    assert 3 * depth_coefficient(m, 3) / (2 * rho1 ** 3) == pytest.approx(
        equal_diag_constant(m), rel=1e-8)


_BLOCKED = """
import sys
sys.modules["mpmath"] = None
sys.modules["sympy"] = None
import oracles
import trisre as t
models = {c.name: c.model for c in t.builtin_scenarios(quick=True)}
oracles.coord1_goldie_sum(models["coord1_dominant_kg"])
oracles.coord1_window_bias(models["coord1_dominant_kg"], 24)
oracles.coord2_kg_constant(models["coord2_dominant_kg"])
oracles.coord2_grey_weight_sum(models["coord2_dominant_grey"])
oracles.distinct_diag_constant(models["distinct_diag_equal_index"])
oracles.equal_diag_constant(models["equal_diag_zero_drift"])
"""


def test_oracles_need_neither_mpmath_nor_sympy():
    # the test extra has neither: an oracle that imports one fails here,
    # where they may be installed, as it would in CI
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(TESTS.parent / "src"), str(TESTS),
         *filter(None, [env.get("PYTHONPATH")])])
    out = subprocess.run([sys.executable, "-c", _BLOCKED], env=env,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr

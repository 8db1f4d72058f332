"""Test oracles: slow or brute-force references the library does not use."""
import math

import numpy as np

from trisre.distributions import abs_moment


def cross_sum_scan(a11: np.ndarray, a12: np.ndarray, a22: np.ndarray) -> np.ndarray:
    """Cross sum from draws of shape (n, m): term i carries i-1 first-
    diagonal factors, the off-diagonal entry, then n-i second-diagonal
    factors. The scan keeps a running first-diagonal prefix and folds
    each new step into the accumulator."""
    n, m = a11.shape
    s = np.zeros(m)
    p1 = np.ones(m)
    for k in range(n):
        s = s * a22[k] + p1 * a12[k]
        p1 = p1 * a11[k]
    return s


def cross_sum_brute(a11: np.ndarray, a12: np.ndarray, a22: np.ndarray) -> np.ndarray:
    """Direct triple-product evaluation from given draws of shape (n, m);
    oracle for the scan recursion."""
    n, m = a11.shape
    total = np.zeros(m)
    for i in range(1, n + 1):
        term = np.ones(m)
        for p in range(0, i - 1):
            term = term * a11[p]
        term = term * a12[i - 1]
        for p in range(i, n):
            term = term * a22[p]
        total += term
    return total


def log_moment_curvature(spec, alpha: float, eps0: float,
                         grid: int = 41) -> float:
    """Half the sup of (log E|X|^beta)'' over [alpha-eps0, alpha+eps0].

    With rho = derivative at alpha this gives the quadratic envelope
    E|X|^{alpha +- eps} <= exp(+-eps rho + C eps^2) for 0 <= eps <= eps0,
    valid when E|X|^alpha = 1.
    """
    h = 1e-4
    betas = np.linspace(max(alpha - eps0, h), alpha + eps0, grid)
    worst = 0.0
    for b in betas:
        g = lambda x: math.log(abs_moment(spec, x))
        second = (g(b + h) - 2.0 * g(b) + g(b - h)) / (h * h)
        worst = max(worst, second)
    return worst / 2.0

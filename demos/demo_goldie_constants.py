"""Two independent routes to the tail constant of X = A X' + B.

Route 1 (one-step difference): c_+ = E[((AX+B)^+)^a - ((AX)^+)^a]/(a rho)
with X stationary and independent of (A, B).
Route 2 (perpetuity limit): c_+ = lim (a rho n)^{-1} E[(X_n^+)^a] for the
partial sums X_n of the perpetuity series, scanned over a step source of
(A, B) (here t.law_steps for independent laws).

Route 2 pairs its paths: law_steps, like coord1_steps, runs antithetic
pairs, path i + m/2 mirroring the normals behind path i's lognormal draws,
and the scan takes its SE from the pair means. Route 1 does not: its SE
treats the m stationary draws as independent, so its sampler draws each
step's laws independently with t.sample.

The naive sample mean of the alpha-moment in route 2 misses the
exponentially rare paths that carry it, so the estimator accumulates
per-step moment increments instead, and reads the growth over the late
window (n/2, n] of a horizon n it sizes from the laws; this demo shows
both routes, the naive mean and the exact constant.
At alpha = 2 the variance of route 1 diverges (logarithmically), which is
why predict uses route 2 for every Kesten-Goldie constant: the second
coordinate's over law_steps, the first coordinate's over coord1_steps,
which runs the bivariate chain. Route 1 stays as the reference.
"""
import numpy as np

import trisre as t
from trisre import Constant, IndependentEntries, Lognormal

a_law, b_law = Lognormal(-1, 1), Constant(1.0)
alpha, rho = 2.0, 1.0
rng = t.RngStream(99)
# the series depth certified for X = A X' + B as the first coordinate of
# a bivariate model with nothing off the diagonal
depth, _ = t.truncation_depth(
    IndependentEntries(a11=a_law, a12=Constant(0.0), a22=Constant(0.0),
                       b1=b_law, b2=Constant(0.0)), 1e-8)


def sampler(m, r):
    # x stationary (truncated series) from independent draws, not the
    # paired law_steps; (a, b) one fresh independent step
    x = np.zeros(m)
    series = r.substream(0)
    for _ in range(depth):
        x = t.sample(a_law, series, m) * x + t.sample(b_law, series, m)
    step = r.substream(1)
    return t.sample(a_law, step, m), t.sample(b_law, step, m), x


cp, cm = t.goldie_constant_direct(sampler, alpha, rho, 300_000,
                                  rng.substream(1), a_signed=False)
print(f"direct formula:      c+ = {cp.value:.4f} +- {cp.se:.4f}")

res = t.goldie_constant_perpetuity(a_law, t.law_steps(a_law, b_law), alpha,
                                   rho, 300_000, rng.substream(2))
print(f"perpetuity windowed: c+ = {res.plus.value:.4f} +- {res.plus.se:.4f}"
      f", c- = {res.minus.value:.4f}")
print(f"  over (n/2, n] at the horizon it derives from the laws, n = {res.k}")

# show the failure mode of the naive mean: it saturates at the scales a
# finite sample can see
g = rng.substream(3).gen
m, n = 200_000, 400
x = np.zeros(m)
for _ in range(n):
    x = g.lognormal(-1, 1, size=m) * x + 1.0
naive = np.mean(np.maximum(x, 0.0) ** alpha) / (alpha * rho * n)
print(f"naive sample mean at n=400: {naive:.4f}   <- biased low: the "
      "alpha-moment lives on paths of probability ~ x^{-alpha} up to "
      "x ~ e^{rho n}")

# closed form for this benchmark (alpha = 2 makes everything first-order)
ea = np.exp(-0.5)
print(f"exact constant:      c+ = {ea / (1 - ea) + 0.5:.4f}")

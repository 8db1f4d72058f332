"""Two independent routes to the tail constant of X = A X' + B.

Route 1 (one-step difference): c_+ = E[((AX+B)^+)^a - ((AX)^+)^a]/(a rho)
with X stationary and independent of (A, B).
Route 2 (perpetuity limit): c_+ = lim (a rho n)^{-1} E[(X_n^+)^a] for the
partial sums X_n of the perpetuity series, scanned over a step source of
(A, B) (here t.law_steps for independent laws).

The naive sample mean of the alpha-moment in route 2 misses the
exponentially rare paths that carry it, so the estimator accumulates
per-step moment increments instead; this demo shows all three numbers.
At alpha = 2 the variance of route 1 diverges (logarithmically), which is
why predict uses route 2 for every Kesten-Goldie constant: the second
coordinate's over law_steps, the first coordinate's over coord1_steps,
which runs the bivariate chain. Route 1 stays as the reference.
"""
import numpy as np

import trisre as t
from trisre import Constant, Lognormal

a_law, b_law = Lognormal(-1, 1), Constant(1.0)
alpha, rho = 2.0, 1.0
rng = t.RngStream(99)


def sampler(m, r):
    # x stationary (truncated series), (a, b) one fresh independent step
    x = t.sample_perpetuity_batch(a_law, b_law, 1e-8, m, r.substream(0),
                                  workers=1)
    step = r.substream(1)
    return t.sample(a_law, step, m), t.sample(b_law, step, m), x


cp, cm = t.goldie_constant_direct(sampler, alpha, rho, 300_000,
                                  rng.substream(1), a_signed=False)
print(f"direct formula:      c+ = {cp.value:.4f} +- {cp.se:.4f}")

res = t.goldie_constant_perpetuity(a_law, t.law_steps(a_law, b_law), alpha,
                                   rho, 400, 300_000, rng.substream(2))
print(f"perpetuity windowed: c+ = {res.c_plus.value:.4f} +- {res.c_plus.se:.4f}")
print(f"  full average at n:   {res.rate_at_n.plus.value:.4f}")
print(f"  full average at n/2: {res.rate_at_half.plus.value:.4f}")

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

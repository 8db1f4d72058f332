"""Distinct diagonals at a shared critical index: the per-step rate.

Here E|M_n|^a grows linearly and the tail of the first coordinate picks
up a single log factor. The rate c_R = lim (a n)^{-1} E|M_n|^a is
estimated through the reweighted ratio recursion, and cross-checked
against the tail of that recursion's stationary law:
c_R = drift * lim x^a P(|X0| > x).
"""
import math

import numpy as np

import trisre as t
from trisre import Constant, IndependentEntries, Lognormal

model = IndependentEntries(a11=Lognormal(-1, 1), a12=Lognormal(-1, 0.5),
                           a22=Lognormal(-2, math.sqrt(2)),
                           b1=Constant(1.0), b2=Constant(1.0))
alpha = 2.0
rng = t.RngStream(77)

report = t.classify(model)
print("case:", report.theorem_case,
      "(both indices", report.alpha1, ")")

# one study at n/2 and n gives the full averages and the late-window rate
study = t.coupling_sum_moments(model, alpha, [200, 400], 100_000,
                               rng.substream(1))
for snap in reversed(study.snapshots):
    rate_k = snap.scaled(1.0 / (alpha * snap.k)).absolute
    print(f"rate at n={snap.k}: {rate_k.value:.4f}")
rate = study.rate(alpha).absolute
print(f"late-window rate: {rate.value:.4f} +- {rate.se:.4f}")

# the drift E|V|^a log|V| under the a-tilt of a22, in closed form: there
# V = a11/a22 is lognormal with log-mean mu11 - mu22' and log-sd
# sqrt(sigma11^2 + sigma22^2)
a22 = t.tilted(model.a22, alpha)
v_law = Lognormal(model.a11.mu - a22.mu, math.hypot(model.a11.sigma, a22.sigma))
drift = t.abs_moment_derivative(v_law, alpha)
print(f"ratio drift: {drift:.4f}")
# depth-80 partial sums of the ratio perpetuity X = V X' + U under the tilt
g = rng.substream(3)
x0 = np.zeros(300_000)
for _ in range(80):
    d = t.sample(a22, g, x0.size)
    x0 = t.sample(model.a11, g, x0.size) / d * x0 \
        + t.sample(model.a12, g, x0.size) / d
for q_level in (0.995, 0.999):
    x = float(np.quantile(np.abs(x0), q_level))
    tail_weight = drift * (1.0 - q_level) * x ** alpha
    print(f"drift * P(|X0|>x) x^a at q={q_level}: {tail_weight:.4f}")
print("(the stationary-tail route multiplies by x^{+a}; see README on "
      "the sign of that exponent)")

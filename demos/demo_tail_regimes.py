"""Tail indices and regime classification.

Each coordinate's tail is driven either by its diagonal multiplier
(index solving E|A|^alpha = 1) or by regularly varying additive noise.
The classifier checks the structural assumptions and names the
asymptotic case; Hill estimates on simulated samples confirm the
predicted indices.
"""
import trisre as t
from trisre import Constant, IndependentEntries, Lognormal, TwoSidedPareto

model = IndependentEntries(a11=Lognormal(-1, 1), a12=Lognormal(-1, 0.5),
                           a22=Lognormal(-2, 1), b1=Constant(1.0),
                           b2=Constant(1.0))

report = t.classify(model)
print("case:", report.theorem_case)
print("alpha1 =", report.alpha1, " alpha2 =", report.alpha2)
print("drift derivatives:", report.rho1, report.rho2)
for chk in report.checks:
    print(f"  [{chk.status:12s}] {chk.check_id}: {chk.detail}")

# products of i.i.d. upper-triangular matrices grow at the larger diagonal
# log-drift: the top Lyapunov exponent is exact, no simulation needed
gamma = max(t.log_abs_moment(model.a11), t.log_abs_moment(model.a22))
print(f"top Lyapunov exponent = {gamma:.4f}")

batch = t.sample_stationary_batch(model, 1e-8, 300_000, t.RngStream(4))
k = int(batch.w1.size ** (2 / 3))
h1 = t.hill(t.EmpiricalTail(batch.w1, "absolute"), k)
h2 = t.hill(t.EmpiricalTail(batch.w2, "absolute"), k)
print(f"hill(W1) = {h1.value:.3f} (predict {report.alpha1})")
print(f"hill(W2) = {h2.value:.3f} (predict {report.alpha2})")

# swap the noise for a regularly varying one: the regime flips to grey
grey = IndependentEntries(a11=Lognormal(-1, 0.8), a12=Lognormal(-1, 0.5),
                          a22=Lognormal(-2, 1),
                          b1=TwoSidedPareto(2.0, 1.0, 0.7), b2=Constant(1.0))
print("\nheavy additive noise:", t.classify(grey).theorem_case)

"""Where the log factors come from: moments of the cross sum.

With equal diagonals at critical index a, the reweighted cross sum is a
random walk in the off-diagonal ratio. Zero drift gives
E|M_n|^a ~ (sigma^2 n)^{a/2} E|N|^a (a Gaussian limit, log-exponent a/2
in the tail); nonzero drift mu gives E|M_n|^a ~ (|mu| n)^a (log-exponent
a). This demo traces both moment laws in n.
"""
import trisre as t
from trisre import Constant, EqualDiagonal, Lognormal, Normal, ProportionalToDiagonal

alpha = 2.0
horizons = [125, 250, 500, 1000, 2000]
rng = t.RngStream(61)

zero_drift = EqualDiagonal(d=Lognormal(-1, 1),
                           a12_mode=ProportionalToDiagonal(Normal(0, 1)),
                           b1=Constant(1.0), b2=Constant(1.0))
print("zero drift (xi ~ N(0,1)): E|M_n|^2 / n -> sigma^2 E N^2 = 1")
study = t.coupling_sum_moments(zero_drift, alpha, horizons, 50_000,
                               rng.substream(1))
for snap in study.snapshots:
    print(f"  n={snap.k:5d}: {snap.absolute.value / snap.k:.4f}"
          f" +- {snap.absolute.se / snap.k:.4f}")

drift = EqualDiagonal(d=Lognormal(-1, 1),
                      a12_mode=ProportionalToDiagonal(Constant(0.5)),
                      b1=Constant(1.0), b2=Constant(1.0))
print("\ndrift 0.5 (xi = 0.5): E|M_n|^2 / n^2 -> mu^2 = 0.25")
study = t.coupling_sum_moments(drift, alpha, horizons, 1000, rng.substream(2))
for snap in study.snapshots:
    print(f"  n={snap.k:5d}: {snap.absolute.value / snap.k ** 2:.6f}")



def show(e: t.EstimateWithError) -> str:
    """The value, with its SE unless the estimate is exact."""
    return f"{e.value:.6g}" + (f" +- {e.se:.2g}" if e.se else "")


mu, s2 = t.tilted_offdiag_moments(zero_drift, alpha)
print(f"\nreweighted ratio moments, zero-drift model: mu={show(mu)}, "
      f"sigma^2={show(s2)}")
print("gaussian-limit constant:", t.clt_constant(zero_drift, alpha))

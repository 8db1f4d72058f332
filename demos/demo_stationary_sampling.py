"""Stationary sampling of the triangular recursion.

The state (W1, W2) satisfies W <- A W + B with upper-triangular random A.
Samples come from long chains run forward from zero: each chain burns in
for the certified truncation depth and then keeps CHAIN_LENGTH values,
written chain-major into the two output arrays. The values of one chain
are dependent, so tail SEs are clustered by chain.
"""
import tracemalloc

import numpy as np
from scipy import stats

import trisre as t
from trisre import Constant, IndependentEntries, Lognormal
from trisre.model import step_batch
from trisre.stationary import CHAIN_LENGTH

model = IndependentEntries(a11=Lognormal(-1, 1), a12=Lognormal(-1, 0.5),
                           a22=Lognormal(-2, 1), b1=Constant(1.0),
                           b2=Constant(1.0))


def iterate_forward(w1, w2, steps, rng):
    """Independent paths from (w1, w2), run forward for steps steps."""
    for _ in range(steps):
        w1, w2 = step_batch(w1, w2, t.draw_innovations(model, w1.size, rng))
    return w1, w2


depth, eps = t.truncation_depth(model, 1e-8)
print(f"series depth {depth} at contraction exponent eps={eps}")

rng = t.RngStream(7)
tracemalloc.start()
batch = t.sample_stationary_batch(model, 1e-8, 200_000, rng)
peak = tracemalloc.get_traced_memory()[1]
tracemalloc.stop()
chains = batch.chain_ids()
print(f"certified remainder bound: {batch.truncation_bound:.2e}")
print(f"{chains[-1] + 1} chains of {CHAIN_LENGTH} values; traced peak "
      f"{peak / 2**20:.1f} MiB for two outputs of "
      f"{2 * batch.w1.nbytes / 2**20:.1f} MiB")
print(f"mean W1 {batch.w1.mean():.4f}  mean W2 {batch.w2.mean():.4f}")

# the chain sample's tail against independent paths run for ten depths
zeros = np.zeros(100_000)
fw1, _ = iterate_forward(zeros, zeros, 10 * depth, rng.substream(1))
chain = t.EmpiricalTail(batch.w1, "absolute", chains=chains)
iid = t.EmpiricalTail(fw1, "absolute")
for q in (0.99, 0.999):
    x = float(np.quantile(fw1, q))
    print(f"P(|W1| > {x:.1f}): chains {t.ccdf(chain, x):.5f} "
          f"(clustered SE {t.ccdf_se(chain, x):.5f}, i.i.d. formula "
          f"{t.ccdf_se(t.EmpiricalTail(batch.w1, 'absolute'), x):.5f}); "
          f"independent paths {t.ccdf(iid, x):.5f}")

# one value per chain is an independent sample: its KS p-value against
# the independent paths, and after one more step of the map
_, p1 = stats.ks_2samp(batch.w1[::CHAIN_LENGTH], fw1)
w1n, _ = iterate_forward(batch.w1[::CHAIN_LENGTH],
                         batch.w2[::CHAIN_LENGTH], 1, rng.substream(2))
_, p = stats.ks_2samp(w1n, fw1)
print(f"KS p-values, one value per chain: W1 {p1:.3f}; one step on {p:.3f}")

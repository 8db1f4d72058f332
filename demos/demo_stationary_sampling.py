"""Stationary sampling of the triangular recursion.

The state (W1, W2) satisfies W <- A W + B with upper-triangular random A.
Samples come from the truncated backward series with a certified error
bound, written chunk by chunk into the two output arrays; the first
coordinate is the sum of an own-noise part and a cross part fed by the
second coordinate. The peak memory is the two outputs plus the chunks
in flight.
"""
import tracemalloc

import numpy as np
from scipy import stats

import trisre as t
from trisre import Constant, IndependentEntries, Lognormal

model = IndependentEntries(a11=Lognormal(-1, 1), a12=Lognormal(-1, 0.5),
                           a22=Lognormal(-2, 1), b1=Constant(1.0),
                           b2=Constant(1.0))

depth, eps = t.truncation_depth(model, 1e-8)
print(f"series depth {depth} at contraction exponent eps={eps}")

rng = t.RngStream(7)
tracemalloc.start()
batch = t.sample_stationary_batch(model, 1e-8, 200_000, rng)
peak = tracemalloc.get_traced_memory()[1]
tracemalloc.stop()
print(f"certified remainder bound: {batch.truncation_bound:.2e}")
print(f"traced peak {peak / 2**20:.1f} MiB for two outputs of "
      f"{2 * batch.w1.nbytes / 2**20:.1f} MiB")
print(f"mean W1 {batch.w1.mean():.4f}  mean W2 {batch.w2.mean():.4f}")

# the same law must come out of plain forward iteration after burn-in
zeros = np.zeros(100_000)
fw1, fw2 = t.iterate_forward(model, (zeros, zeros), 10 * depth,
                             rng.substream(1))
_, p1 = stats.ks_2samp(batch.w1[:100_000], fw1)
_, p2 = stats.ks_2samp(batch.w2[:100_000], fw2)
print(f"forward vs backward KS p-values: W1 {p1:.3f}, W2 {p2:.3f}")

# one-step invariance: stationary samples pushed through the map keep
# their law (compare against a fresh independent stationary batch)
innov = t.draw_innovations(model, batch.w1.size, rng.substream(2))
from trisre.model import step_batch
w1n, w2n = step_batch(batch.w1, batch.w2, innov)
fresh = t.sample_stationary_batch(model, 1e-8, batch.w1.size, rng.substream(3))
_, p = stats.ks_2samp(w1n, fresh.w1)
print(f"one-step invariance KS p-value: {p:.3f}")

"""Monte Carlo point estimates with standard errors."""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np


@dataclass(frozen=True)
class EstimateWithError:
    value: float
    se: float
    n_samples: int
    seed: str = ""

    def to_dict(self) -> dict:
        return asdict(self)


class RunningMoments:
    """Mergeable (count, mean, M2) accumulator.

    Merging uses Chan et al.'s pairwise update, so the variance does not
    cancel catastrophically when the mean is large next to the spread."""

    __slots__ = ("n", "mean", "m2")

    def __init__(self, values=()):
        v = np.asarray(values, dtype=float)
        self.n = v.size
        self.mean = float(v.mean()) if v.size else 0.0
        self.m2 = float(np.sum((v - self.mean) ** 2))

    def merge(self, other: "RunningMoments") -> None:
        if self.n == 0:
            self.n, self.mean, self.m2 = other.n, other.mean, other.m2
            return
        n = self.n + other.n
        delta = other.mean - self.mean
        self.mean += delta * other.n / n
        self.m2 += other.m2 + delta * delta * self.n * other.n / n
        self.n = n

    def ess(self) -> float:
        """Effective sample size (sum w)^2 / sum w^2 of accumulated weights."""
        sum_sq = self.m2 + self.n * self.mean ** 2
        return (self.n * self.mean) ** 2 / sum_sq if sum_sq > 0 else 0.0

    def estimate(self, seed: str = "") -> EstimateWithError:
        if self.n == 0:
            raise ValueError("no samples accumulated")
        se = math.sqrt(self.m2 / self.n / self.n)
        return EstimateWithError(self.mean, se, self.n, seed)


def merge_chunks(parts) -> list[RunningMoments]:
    """Merge per-chunk sequences of accumulators position by position, in
    chunk order, so the result does not depend on the worker count."""
    out = []
    for column in zip(*parts):
        acc = RunningMoments()
        for other in column:
            acc.merge(other)
        out.append(acc)
    return out

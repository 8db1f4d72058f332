"""Point estimates with standard errors, and how errors propagate."""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np


@dataclass(frozen=True)
class EstimateWithError:
    """A Monte Carlo estimate, or a closed form: EstimateWithError(value)
    is exact, with se = 0 from no samples and no seed."""

    value: float
    se: float = 0.0
    n_samples: int = 0
    seed: str = ""

    @property
    def exact(self) -> bool:
        return self.n_samples == 0

    def to_json(self) -> float | dict:
        """An exact estimate is its bare number, any other the object
        {value, se, n_samples, seed}."""
        return self.value if self.exact else asdict(self)

    def scaled(self, factor: float) -> EstimateWithError:
        return EstimateWithError(self.value * factor, self.se * abs(factor),
                                 self.n_samples, self.seed)

    def power(self, p: float) -> EstimateWithError:
        """|value|^p with the delta-method SE p |value|^(p-1) se; an exact
        estimate stays exact."""
        v = abs(self.value)
        se = p * v ** (p - 1.0) * self.se if self.se else 0.0
        return EstimateWithError(v ** p, se, self.n_samples, self.seed)


def joined_seed(*estimates: EstimateWithError) -> str:
    """The distinct seeds of the estimates, in order, joined by '+'."""
    return "+".join(dict.fromkeys(e.seed for e in estimates if e.seed))


def sum_of_products(pairs) -> EstimateWithError:
    """sum a b over pairs (a, b) of independent estimates: the first-order
    SE, the largest sample count and the joined seeds of the factors."""
    value = var = 0.0
    for a, b in pairs:
        value += a.value * b.value
        var += (a.se * b.value) ** 2 + (a.value * b.se) ** 2
    factors = [e for pair in pairs for e in pair]
    return EstimateWithError(value, math.sqrt(var),
                             max(e.n_samples for e in factors),
                             joined_seed(*factors))


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

    @classmethod
    def zeros(cls, n: int) -> "RunningMoments":
        """The accumulator of n values that are all 0, without the array."""
        acc = cls()
        acc.n = n
        return acc

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

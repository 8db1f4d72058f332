"""Bivariate upper-triangular SRE model: coupling menu and innovations.

One time step multiplies the state by [[a11, a12], [0, a22]] and adds
(b1, b2). The coupling describes the joint per-step law of the five
entries; within a step they may be dependent, across steps they are iid.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import distributions as dist
from .distributions import Dist
from .rng import RngStream


@dataclass(frozen=True)
class ProportionalToDiagonal:
    """a12 = xi * a11 with xi drawn independently of the diagonal."""

    factor_law: Dist


@dataclass(frozen=True)
class IndependentOffDiagonal:
    a12: Dist


OffDiagMode = ProportionalToDiagonal | IndependentOffDiagonal


@dataclass(frozen=True)
class IndependentEntries:
    a11: Dist
    a12: Dist
    a22: Dist
    b1: Dist
    b2: Dist


@dataclass(frozen=True)
class EqualDiagonal:
    """a11 = a22 = d almost surely; d must have no atom at zero."""

    d: Dist
    a12_mode: OffDiagMode
    b1: Dist
    b2: Dist

    def __post_init__(self):
        if dist.is_zero_pointmass(self.d):
            raise ValueError("EqualDiagonal requires a diagonal law with no "
                             "atom at zero")


TriangularSRE = IndependentEntries | EqualDiagonal


@dataclass
class InnovationBatch:
    """Arrays of shape (m,) holding one joint step for m paths."""

    a11: np.ndarray
    a12: np.ndarray
    a22: np.ndarray
    b1: np.ndarray
    b2: np.ndarray


def diag_laws(model: TriangularSRE) -> tuple[Dist, Dist]:
    if isinstance(model, IndependentEntries):
        return model.a11, model.a22
    return model.d, model.d


def b_laws(model: TriangularSRE) -> tuple[Dist, Dist]:
    return model.b1, model.b2


@dataclass(frozen=True)
class _ProductLaw:
    """Internal marker for the product of two independent menu laws.

    Only the moment functionals are needed downstream, so this never
    surfaces in sampling or serialization.
    """

    x: Dist
    y: Dist


def offdiag_law(model: TriangularSRE):
    """Marginal law of a12 (for moment bookkeeping only; under the
    proportional coupling a12 is dependent on the diagonal)."""
    if isinstance(model, IndependentEntries):
        return model.a12
    if isinstance(model.a12_mode, IndependentOffDiagonal):
        return model.a12_mode.a12
    return _ProductLaw(model.a12_mode.factor_law, model.d)


def offdiag_abs_moment(model: TriangularSRE, beta: float) -> float:
    law = offdiag_law(model)
    if isinstance(law, _ProductLaw):
        return dist.abs_moment(law.x, beta) * dist.abs_moment(law.y, beta)
    return dist.abs_moment(law, beta)


def offdiag_moment_sup(model: TriangularSRE) -> float:
    law = offdiag_law(model)
    if isinstance(law, _ProductLaw):
        return min(dist.moment_sup(law.x), dist.moment_sup(law.y))
    return dist.moment_sup(law)


def entry_moment_sup(model: TriangularSRE) -> float:
    """sup{beta : all five entries have a finite beta-moment}."""
    d1, d2 = diag_laws(model)
    return min(dist.moment_sup(d1), dist.moment_sup(d2),
               offdiag_moment_sup(model),
               dist.moment_sup(model.b1), dist.moment_sup(model.b2))


def offdiag_is_zero(model: TriangularSRE) -> bool:
    law = offdiag_law(model)
    if isinstance(law, _ProductLaw):
        return dist.is_zero_pointmass(law.x) or dist.is_zero_pointmass(law.y)
    return dist.is_zero_pointmass(law)


def offdiag_negative_possible(model: TriangularSRE) -> bool:
    law = offdiag_law(model)
    if isinstance(law, _ProductLaw):
        if dist.is_zero_pointmass(law.x) or dist.is_zero_pointmass(law.y):
            return False
        return dist.prob_negative(law.x) > 0 or dist.prob_negative(law.y) > 0
    return dist.prob_negative(law) > 0


def draw_innovations(model: TriangularSRE, m: int,
                     rng: RngStream) -> InnovationBatch:
    """One joint step for m paths, honouring the coupling."""
    if isinstance(model, IndependentEntries):
        return InnovationBatch(
            a11=dist.sample(model.a11, rng, m),
            a12=dist.sample(model.a12, rng, m),
            a22=dist.sample(model.a22, rng, m),
            b1=dist.sample(model.b1, rng, m),
            b2=dist.sample(model.b2, rng, m),
        )
    d = dist.sample(model.d, rng, m)
    if isinstance(model.a12_mode, ProportionalToDiagonal):
        a12 = dist.sample(model.a12_mode.factor_law, rng, m) * d
    else:
        a12 = dist.sample(model.a12_mode.a12, rng, m)
    return InnovationBatch(a11=d, a12=a12, a22=d,
                           b1=dist.sample(model.b1, rng, m),
                           b2=dist.sample(model.b2, rng, m))


def step_batch(w1: np.ndarray, w2: np.ndarray, batch: InnovationBatch):
    return (batch.a11 * w1 + batch.a12 * w2 + batch.b1,
            batch.a22 * w2 + batch.b2)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

_COUPLINGS = {"independent_entries": IndependentEntries,
              "equal_diagonal": EqualDiagonal}
_A12_MODES = {"proportional_to_diagonal": ProportionalToDiagonal,
              "independent": IndependentOffDiagonal}


def _write_field(name: str, value) -> dict:
    if name == "a12_mode":
        return dist._record_to_dict("mode", _A12_MODES, value, _write_field)
    return dist.dist_to_dict(value)


def _read_field(name: str, value: dict):
    if name == "a12_mode":
        return dist._record_from_dict("mode", _A12_MODES, value, _read_field)
    return dist.dist_from_dict(value)


def model_to_dict(model: TriangularSRE) -> dict:
    return dist._record_to_dict("coupling", _COUPLINGS, model, _write_field)


def model_from_dict(d: dict) -> TriangularSRE:
    return dist._record_from_dict("coupling", _COUPLINGS, d, _read_field)

"""Bivariate upper-triangular SRE model: coupling menu, innovations and
the forward chain.

One time step multiplies the state by [[a11, a12], [0, a22]] and adds
(b1, b2). The coupling describes the joint per-step law of the five
entries; within a step they may be dependent, across steps they are iid.
"""
from __future__ import annotations

import math
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
    """Arrays of shape (m,) holding one joint step for m paths; in
    chain_steps, a block of steps, each entry of shape (B, m) or, for a
    Constant law, a float."""

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


def offdiag_factors(model: TriangularSRE) -> tuple[Dist, ...]:
    """Independent laws whose product has the law of a12: (a12,), or
    (factor, d) under the proportional coupling. For moment bookkeeping
    only; a12 is then dependent on the diagonal."""
    if isinstance(model, IndependentEntries):
        return (model.a12,)
    if isinstance(model.a12_mode, IndependentOffDiagonal):
        return (model.a12_mode.a12,)
    return (model.a12_mode.factor_law, model.d)


def offdiag_abs_moment(model: TriangularSRE, beta: float) -> float:
    return math.prod(dist.abs_moment(f, beta) for f in offdiag_factors(model))


def offdiag_moment_sup(model: TriangularSRE) -> float:
    return min(dist.moment_sup(f) for f in offdiag_factors(model))


def entry_moment_sup(model: TriangularSRE) -> float:
    """sup{beta : all five entries have a finite beta-moment}."""
    d1, d2 = diag_laws(model)
    return min(dist.moment_sup(d1), dist.moment_sup(d2),
               offdiag_moment_sup(model),
               dist.moment_sup(model.b1), dist.moment_sup(model.b2))


def offdiag_is_zero(model: TriangularSRE) -> bool:
    return any(dist.is_zero_pointmass(f) for f in offdiag_factors(model))


def offdiag_negative_possible(model: TriangularSRE) -> bool:
    return (not offdiag_is_zero(model)
            and dist.any_negative(*offdiag_factors(model)))


def chain_signed(model: TriangularSRE) -> bool:
    """Whether W1 can go negative: unless a11, b1, a12, a22 and b2 are all
    nonnegative, which keeps W2 and so b1 + a12 W2' nonnegative too."""
    return (offdiag_negative_possible(model)
            or dist.any_negative(*diag_laws(model), model.b1, model.b2))


def _entry_laws(model: TriangularSRE) -> tuple[Dist, ...]:
    """The laws of the coupling in draw order: a11, a12, a22, b1, b2, or
    d, the a12 factor (or the independent a12), b1, b2."""
    if isinstance(model, IndependentEntries):
        return model.a11, model.a12, model.a22, model.b1, model.b2
    mode = model.a12_mode
    a12 = (mode.factor_law if isinstance(mode, ProportionalToDiagonal)
           else mode.a12)
    return model.d, a12, model.b1, model.b2


def _innovations(model: TriangularSRE, drawn) -> InnovationBatch:
    """The five entries of the coupling from the draws of its laws, in
    _entry_laws' order."""
    if isinstance(model, IndependentEntries):
        return InnovationBatch(*drawn)
    d, a12, b1, b2 = drawn
    if isinstance(model.a12_mode, ProportionalToDiagonal):
        a12 = a12 * d
    return InnovationBatch(a11=d, a12=a12, a22=d, b1=b1, b2=b2)


def draw_innovations(model: TriangularSRE, m: int,
                     rng: RngStream) -> InnovationBatch:
    """One joint step for m paths, honouring the coupling."""
    return _innovations(model, [dist.sample(law, rng, m)
                                for law in _entry_laws(model)])


def chain_steps(model: TriangularSRE, m: int, rng: RngStream,
                paired: bool = False):
    """The forward bivariate chain from zero for m paths: yields each
    step's arrays (a11, u, x2) with u = b1 + a12 x2' and x2 = a22 x2' + b2,
    so the first coordinate steps as x1 = a11 x1' + u. u and x2 are
    buffers the generator reuses: they hold one step's values, and the
    caller must not write into them.

    The innovations come in blocks of B = distributions.step_block(m)
    steps: each law of the coupling is drawn for the whole block in one
    generator call (distributions.step_blocks), law after law in
    draw_innovations' order, and the steps then read the block's rows
    (a11 is a read-only row). So step k takes other draws than the k-th
    call of draw_innovations would, and a caller that reads n steps has
    consumed the draws of ceil(n / B) * B steps, at most one block past
    its last step. A Constant entry draws nothing: its value is broadcast
    over the block, with no array filled per step.

    With paired, m must be even and path i + m/2 is the antithetic
    partner of path i: every law of one normal per value mirrors its
    normals between the halves (distributions.step_blocks), so whole
    paths are partners. coord1_steps asks for it: its Kesten-Goldie scan
    takes the SEs from pair means. The stationary sampler does not: its
    m chains stay independent, as its chain-clustered SEs assume."""
    x2 = np.zeros(m)
    u = np.empty(m)
    rows = dist.step_block(m)
    laws = [dist.step_blocks(law, rng, rows, m, paired)
            for law in _entry_laws(model)]
    while True:
        # a list, not a zip of the generators: a zip's result tuple would
        # keep the block before the last alive while the next is drawn
        block = _innovations(model, [next(law) for law in laws])
        for a11, a12, a22, b1, b2 in zip(*(
                np.broadcast_to(e, (rows, m)) for e in (
                    block.a11, block.a12, block.a22, block.b1, block.b2))):
            np.multiply(a12, x2, out=u)
            u += b1
            x2 *= a22
            x2 += b2
            yield a11, u, x2


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

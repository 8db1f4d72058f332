"""Scalar distribution menu: sampling, moments, log-moments and tilting.

The menu is a closed family chosen so that every estimator downstream has
exact absolute/signed moments and, where needed, an exact |x|^alpha tilt.
It covers a positive light-tailed multiplier (Lognormal), its signed
variant, bounded and Gaussian noise, a point mass, a regularly varying
two-sided Pareto, and scalar rescalings of any of these.
"""
from __future__ import annotations

import math
import numbers
from collections.abc import Iterator
from dataclasses import dataclass, fields

import numpy as np

from .errors import LogMomentUndefined, MomentDiverges, TiltUnsupported
from .rng import CHUNK, RngStream

# Double-exponential rules (Takahasi & Mori 1974) for the Normal
# integrals: the step in t and where the tanh-sinh and exp-sinh grids end.
# There the nodes come within ~1e-17 (relative) of 0 and 1 and reach 1e4
# past 0, where the integrands have long underflowed.
_DE_STEP = 1.0 / 32.0
_DE_TANH_SINH_END = 3.2
_DE_EXP_SINH_ENDS = (-4.0, 2.5)
_DE_LEFT_SPAN = 40.0  # sd; exp(-s^2 / 2) underflows 38.6 sd from the mode


def _double_exponential_nodes():
    """Nodes and weights of tanh-sinh on (0, 1), x = 1 / (1 + exp(-pi
    sinh t)), with 1 - x formed directly, and of exp-sinh on (0, inf),
    x = exp(pi/2 sinh t)."""
    step = _DE_STEP
    k = round(_DE_TANH_SINH_END / step)
    t = np.arange(-k, k + 1) * step
    u = 0.5 * math.pi * np.sinh(t)
    e = np.exp(-2.0 * u)
    ts_x = 1.0 / (1.0 + e)
    ts_1mx = e / (1.0 + e)
    ts_w = step * 0.25 * math.pi * np.cosh(t) / np.cosh(u) ** 2
    lo, hi = (round(end / step) for end in _DE_EXP_SINH_ENDS)
    t = np.arange(lo, hi + 1) * step
    es_x = np.exp(0.5 * math.pi * np.sinh(t))
    es_w = step * 0.5 * math.pi * np.cosh(t) * es_x
    return ts_x, ts_1mx, ts_w, es_x, es_w


_TS_X, _TS_1MX, _TS_W, _ES_X, _ES_W = _double_exponential_nodes()

# Nodes of the Gauss-Hermite rule behind log_rule, and the relative error
# within which a rule must reproduce its end moments
_HERMITE_NODES = 16
_RULE_TOL = 1e-10


def _hermite_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes z and weights w of the n-point Gauss-Hermite rule for the
    standard normal, sum(w f(z)) ~ E f(Z), exact for polynomials of degree
    below 2n. Golub-Welsch: the nodes are the eigenvalues of the Jacobi
    matrix of the monic probabilists' Hermite polynomials, 0 on the
    diagonal and sqrt(1), ..., sqrt(n - 1) beside it, and each weight is
    the squared first component of its node's unit eigenvector."""
    off = np.sqrt(np.arange(1.0, n))
    z, vectors = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    return z, vectors[0] ** 2


_HERMITE_Z, _HERMITE_W = _hermite_rule(_HERMITE_NODES)


@dataclass(frozen=True)
class Constant:
    c: float


@dataclass(frozen=True)
class Normal:
    mean: float
    sd: float

    def __post_init__(self):
        if not self.sd > 0:
            raise ValueError("Normal sd must be > 0")


@dataclass(frozen=True)
class Lognormal:
    """Law of exp(N(mu, sigma^2)); strictly positive."""

    mu: float
    sigma: float

    def __post_init__(self):
        if not self.sigma > 0:
            raise ValueError("Lognormal sigma must be > 0")


@dataclass(frozen=True)
class SignedLognormal:
    """eps * exp(N(mu, sigma^2)) with eps = +1 w.p. p_pos, else -1."""

    mu: float
    sigma: float
    p_pos: float

    def __post_init__(self):
        if not self.sigma > 0:
            raise ValueError("SignedLognormal sigma must be > 0")
        if not 0.0 <= self.p_pos <= 1.0:
            raise ValueError("p_pos must lie in [0, 1]")


@dataclass(frozen=True)
class TwoSidedPareto:
    """P(X > x) = p_pos (x/scale)^-alpha for x >= scale; mirrored with
    weight 1 - p_pos on the negative side. |X| >= scale almost surely."""

    alpha: float
    scale: float
    p_pos: float

    def __post_init__(self):
        if not self.alpha > 0:
            raise ValueError("TwoSidedPareto alpha must be > 0")
        if not self.scale > 0:
            raise ValueError("TwoSidedPareto scale must be > 0")
        if not 0.0 <= self.p_pos <= 1.0:
            raise ValueError("p_pos must lie in [0, 1]")


@dataclass(frozen=True)
class Uniform:
    a: float
    b: float

    def __post_init__(self):
        if not self.a < self.b:
            raise ValueError("Uniform requires a < b")


@dataclass(frozen=True)
class Scaled:
    inner: "Dist"
    factor: float


Dist = Constant | Normal | Lognormal | SignedLognormal | TwoSidedPareto | Uniform | Scaled


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

def sample(spec: Dist, rng: RngStream, size: int) -> np.ndarray:
    """An array of size draws from the law; advances rng deterministically."""
    g = rng.gen
    if isinstance(spec, Constant):
        out = np.full(size, spec.c, dtype=float)
    elif isinstance(spec, Normal):
        out = g.normal(spec.mean, spec.sd, size=size)
    elif isinstance(spec, Lognormal):
        out = g.normal(spec.mu, spec.sigma, size=size)
        np.exp(out, out=out)
    elif isinstance(spec, SignedLognormal):
        out = g.normal(spec.mu, spec.sigma, size=size)
        np.exp(out, out=out)
        out *= np.where(g.random(size) < spec.p_pos, 1.0, -1.0)
    elif isinstance(spec, TwoSidedPareto):
        # random() lies in [0, 1): mapping U = 0 to 1 gives the law of
        # 1 - U, on (0, 1], so the magnitude stays finite
        u = g.random(size)
        u[u == 0.0] = 1.0
        mag = spec.scale * u ** (-1.0 / spec.alpha)
        sign = np.where(g.random(size) < spec.p_pos, 1.0, -1.0)
        out = sign * mag
    elif isinstance(spec, Uniform):
        out = g.uniform(spec.a, spec.b, size=size)
    elif isinstance(spec, Scaled):
        out = spec.factor * sample(spec.inner, rng, size)
    else:  # pragma: no cover
        raise TypeError(f"unknown spec {spec!r}")
    return out


# Most steps of one law that a step source draws per generator call
STEP_BLOCK = 16


def step_block(m: int) -> int:
    """Steps in each block that a step source of m paths draws: STEP_BLOCK,
    or fewer, so that one law's block holds at most 2 * CHUNK values, and
    at least 1."""
    return max(1, min(STEP_BLOCK, 2 * CHUNK // max(m, 1)))


def sample_steps(spec: Dist, rng: RngStream, rows: int,
                 m: int) -> np.ndarray | float:
    """rows steps of the law for m paths from one sample call, as an array
    of shape (rows, m), so step k is row k. A law that makes one draw per
    value (Normal, Lognormal, Uniform and their Scaled forms) consumes
    rng as rows calls sample(spec, rng, m) would. A Constant draws
    nothing and is its value, a float. step_blocks draws such blocks one
    after another, in antithetic pairs of paths if asked."""
    if isinstance(spec, Constant):
        return float(spec.c)
    return sample(spec, rng, rows * m).reshape(rows, m)


def _mirrored(spec: Dist) -> tuple[float, float, bool, float] | None:
    """(mean, sd, exp, factor) of a law of one normal draw per value,
    factor times mean + sd Z, or its exp: a Normal, a Lognormal, or a
    Scaled of either; None for any other law."""
    factor = 1.0
    while isinstance(spec, Scaled):
        factor *= spec.factor
        spec = spec.inner
    if isinstance(spec, Normal):
        return spec.mean, spec.sd, False, factor
    if isinstance(spec, Lognormal):
        return spec.mu, spec.sigma, True, factor
    return None


def step_blocks(spec: Dist, rng: RngStream, rows: int, m: int,
                paired: bool = False) -> Iterator[np.ndarray | float]:
    """Blocks of rows steps of the law for m paths, one per next():
    sample_steps(spec, rng, rows, m), drawn as each block is asked for.

    With paired, m = 2h must be even (ValueError otherwise, at the first
    block) and path i + h is the antithetic partner of path i. A law of
    one normal per value (Normal, Lognormal, and a Scaled of either)
    draws a (rows, h) block of standard normals z in one call, the
    stream order of rows calls of (h,); path i takes mean + sd z and path
    i + h the mirror mean - sd z, then the same exp and factor. So a
    paired block costs half the normals. Every other law fills both
    halves with independent draws, the unpaired block. A paired block of
    a mirrored law is a buffer the generator reuses: it holds one block,
    and the caller must not write into it."""
    if paired and m % 2:
        raise ValueError("a paired source needs an even number of paths")
    mirror = _mirrored(spec) if paired else None
    if mirror is None:
        while True:
            yield sample_steps(spec, rng, rows, m)
    mean, sd, take_exp, factor = mirror
    z = np.empty((rows, m // 2))
    pair = np.empty((rows, 2, m // 2))
    out = pair.reshape(rows, m)
    while True:
        rng.gen.standard_normal(out=z)
        z *= sd
        np.add(mean, z, out=pair[:, 0])
        np.subtract(mean, z, out=pair[:, 1])
        if take_exp:
            np.exp(out, out=out)
        if factor != 1.0:
            out *= factor
        yield out


# ---------------------------------------------------------------------------
# Moments
# ---------------------------------------------------------------------------

# The (w, l, slope) of a side with no mass, whose moment w exp(l) is 0
_NO_PART = (0.0, -math.inf, 0.0)


def _exp(x: float) -> float:
    """exp(x), and inf where that passes float range."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def abs_normal_moment(alpha: float) -> float:
    """E|N|^alpha for the standard normal, alpha >= 0."""
    return abs_moment(Normal(0.0, 1.0), alpha)


def _normal_rule(m: float,
                 beta: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nodes s, weights w and offsets s - m with sum(w f(s)) ~
    int_0^inf f(s) ds, for f(s) = s^beta times a standard normal density
    centred at m, and for f(s) log s.

    The range splits at the mode c = (m + sqrt(m^2 + 4 beta)) / 2 of
    s^beta exp(-(s - m)^2 / 2), max(m, 0) at beta = 0: tanh-sinh on
    (a, c) with a = max(c - _DE_LEFT_SPAN, 0), exp-sinh on (c, inf). The
    log of f has curvature at most -1, so below a it has fallen by 800.
    Both rules cluster their nodes at 0 as distances, so no cancellation
    spoils log s there. The offsets come from those distances too, not
    from s - m: far from zero the nodes round at the scale of m, while the
    Gaussian factor needs s - m to full precision.
    """
    # q = c - max(m, 0) without cancellation, and c_m = c - m
    q = 2.0 * beta / (math.sqrt(m * m + 4.0 * beta) + abs(m)) if beta else 0.0
    c, c_m = (m + q, q) if m >= 0.0 else (q, q - m)
    a = max(c - _DE_LEFT_SPAN, 0.0)
    if c * _TS_X[0] == 0.0:
        # below c ~ 1e-307 the tanh-sinh nodes underflow to 0, where log s
        # is -inf, and (0, c) carries nothing
        return _ES_X, _ES_W, _ES_X - m
    return (np.concatenate([a + (c - a) * _TS_X, c + _ES_X]),
            np.concatenate([(c - a) * _TS_W, _ES_W]),
            np.concatenate([c_m - (c - a) * _TS_1MX, c_m + _ES_X]))


def _normal_part(mean: float, sd: float,
                 beta: float) -> tuple[float, float, float]:
    """_part of X^+ for X ~ N(mean, sd^2), in units of sd: a log-sum-exp
    over the nodes of the integrand exp(beta log(sd s) - (s - m)^2 / 2),
    m = mean / sd, and the slope as the mean of log(sd s) under the same
    terms. At beta = 0, w is P(X > 0) from erfc."""
    s, w, e = _normal_rule(mean / sd, beta)
    log_x = math.log(sd) + np.log(s)
    terms = beta * log_x - 0.5 * e ** 2
    top = float(terms.max())
    f = w * np.exp(terms - top)
    total = float(f.sum())
    slope = float(np.dot(f, log_x)) / total
    if beta == 0.0:
        return 0.5 * math.erfc(-mean / (sd * math.sqrt(2.0))), 0.0, slope
    return 1.0, top + math.log(total / math.sqrt(2.0 * math.pi)), slope


def _part(spec: Dist, beta: float, plus: bool) -> tuple[float, float, float]:
    """(w, l, slope) with E[(X^+)^beta] = w exp(l) (X^- when not plus) and
    slope = d/dbeta log E[(X^+)^beta]: the one moment formula of each
    family, in log space, so l stays finite where the moment leaves float
    range. w is a factor kept out of the exponent, so the probabilities
    at beta = 0 are exact. A side with no mass is _NO_PART.

    Raises MomentDiverges when beta reaches the Pareto index on a side
    with positive weight.
    """
    if isinstance(spec, Constant):
        c = spec.c if plus else -spec.c
        return (1.0, beta * math.log(c), math.log(c)) if c > 0 else _NO_PART
    if isinstance(spec, Normal):
        return _normal_part(spec.mean if plus else -spec.mean, spec.sd, beta)
    if isinstance(spec, (Lognormal, SignedLognormal, TwoSidedPareto)):
        # a sign independent of |X|, + w.p. p_pos (always for a Lognormal)
        p = getattr(spec, "p_pos", 1.0)
        w = p if plus else 1.0 - p
        if w == 0.0:
            return _NO_PART
        if isinstance(spec, TwoSidedPareto):
            a, log_scale = spec.alpha, math.log(spec.scale)
            if beta >= a:
                raise MomentDiverges(
                    f"E[(X^{'+' if plus else '-'})^{beta}] infinite for "
                    f"Pareto index {a}")
            return (w, math.log(a / (a - beta)) + beta * log_scale,
                    1.0 / (a - beta) + log_scale)
        return (w, spec.mu * beta + 0.5 * (spec.sigma * beta) ** 2,
                spec.mu + spec.sigma ** 2 * beta)
    if isinstance(spec, Uniform):
        a, b = (spec.a, spec.b) if plus else (-spec.b, -spec.a)
        lo, hi = max(a, 0.0), max(b, 0.0)
        if hi <= lo:
            return _NO_PART
        # (hi^k - lo^k) / (k (b - a)) with k = beta + 1 is
        # P(X^+ > 0) hi^beta (1 - q^k) / (k (1 - q)) with q = lo / hi
        k, q = beta + 1.0, lo / hi
        r = q ** k
        return ((hi - lo) / (spec.b - spec.a),
                beta * math.log(hi) + math.log1p(-r) - math.log1p(-q)
                - math.log(k),
                math.log(hi) - 1.0 / k
                - (r * math.log(q) / (1.0 - r) if r > 0.0 else 0.0))
    if isinstance(spec, Scaled):
        if spec.factor == 0.0:
            return _NO_PART
        w, l, slope = _part(spec.inner, beta, plus == (spec.factor > 0))
        log_f = math.log(abs(spec.factor))
        return w, l + beta * log_f, slope + log_f
    raise TypeError(f"unknown spec {spec!r}")  # pragma: no cover


def _log_parts(spec: Dist, beta: float) -> list[tuple[float, float]]:
    """(log E[(X^+)^beta], slope) and (log E[(X^-)^beta], slope)."""
    parts = _part(spec, beta, True), _part(spec, beta, False)
    return [(math.log(w) + l if w > 0.0 else -math.inf, slope)
            for w, l, slope in parts]


def signed_moment(spec: Dist, beta: float, sign: str) -> float:
    """E[(X^+)^beta] or E[(X^-)^beta], w exp(l) from _part, and inf where
    it passes float range. At beta = 0 it is P(X > 0) or P(X < 0).

    Raises MomentDiverges when beta reaches the Pareto index on a side
    with positive weight.
    """
    if sign not in ("plus", "minus"):
        raise ValueError("sign must be 'plus' or 'minus'")
    if beta < 0:
        raise ValueError("beta must be >= 0")
    w, l, _ = _part(spec, beta, sign == "plus")
    return w * _exp(l)


def abs_moment(spec: Dist, beta: float) -> float:
    """E|X|^beta = E[(X^+)^beta] + E[(X^-)^beta], and E|X|^0 = 1. Past
    float range it is inf, with no warning or error; log_moment stays
    finite there."""
    if beta == 0.0:
        return 1.0
    return signed_moment(spec, beta, "plus") + signed_moment(spec, beta, "minus")


def sign_moment(spec: Dist, beta: float) -> float:
    """E[sgn(X)|X|^beta] = E[(X^+)^beta] - E[(X^-)^beta], formed as the
    larger part times 1 - smaller / larger in log space, so it is +-inf
    only where the difference passes float range. For beta > 0 it is
    exactly abs_moment(spec, beta) when X >= 0, whose negative part is 0."""
    (lp, _), (lm, _) = _log_parts(spec, beta)
    if lp == lm:  # equal parts, or none
        return 0.0
    top = max(lp, lm)
    return math.copysign(_exp(top + math.log(-math.expm1(min(lp, lm) - top))),
                         lp - lm)


def log_moment(spec: Dist, beta: float) -> tuple[float, float]:
    """log E|X|^beta and its slope in beta, E|X|^beta log|X| / E|X|^beta:
    a log-sum-exp of the two parts of _log_parts, finite wherever the
    moment is, in float range or not. For the point mass at 0 and
    beta > 0 they are -inf and nan. Raises as signed_moment does.
    """
    (top, s_top), (low, s_low) = sorted(_log_parts(spec, beta), reverse=True)
    if top == -math.inf:
        return -math.inf, math.nan
    share = math.exp(low - top)  # the smaller part over the larger
    return (top + math.log1p(share),
            s_top + (s_low - s_top) * share / (1.0 + share))


def abs_moment_derivative(spec: Dist, beta: float) -> float:
    """d/dbeta E|X|^beta = E|X|^beta log|X|: abs_moment times the slope
    of log_moment, and inf where the moment passes float range. Raises
    LogMomentUndefined for the point mass at 0, the menu's only zero atom."""
    log_m, slope = log_moment(spec, beta)
    if log_m == -math.inf:
        raise LogMomentUndefined("log|X| undefined for the point mass at 0")
    return abs_moment(spec, beta) * slope


def log_abs_moment(spec: Dist) -> float:
    """E log|X|, the derivative of E|X|^beta at 0, where E|X|^0 = 1;
    raises LogMomentUndefined for laws with an atom at 0."""
    return abs_moment_derivative(spec, 0.0)


def mean(spec: Dist) -> float:
    """E[X] = E[(X^+)^1] - E[(X^-)^1]."""
    return sign_moment(spec, 1.0)


def tilted(spec: Dist, alpha: float) -> Dist:
    """The |x|^alpha-weighted law, for families closed under the tilt.

    Lognormal magnitudes shift their log-mean by alpha sigma^2; the weight
    is sign-blind so a signed lognormal keeps its p_pos. Point masses are
    fixed points. Everything else raises TiltUnsupported.
    """
    if isinstance(spec, Constant):
        if spec.c == 0.0:
            raise TiltUnsupported("cannot tilt the point mass at 0")
        return spec
    if isinstance(spec, Lognormal):
        return Lognormal(spec.mu + alpha * spec.sigma ** 2, spec.sigma)
    if isinstance(spec, SignedLognormal):
        return SignedLognormal(spec.mu + alpha * spec.sigma ** 2, spec.sigma,
                               spec.p_pos)
    if isinstance(spec, Scaled):
        return Scaled(tilted(spec.inner, alpha), spec.factor)
    raise TiltUnsupported(
        f"{type(spec).__name__} is not closed under the |x|^alpha tilt; "
        "use weighted Monte Carlo instead")


# ---------------------------------------------------------------------------
# Quadrature
# ---------------------------------------------------------------------------

def log_rule(spec: Dist, lo: float,
             hi: float) -> tuple[np.ndarray, np.ndarray] | None:
    """Logs y and weights w of a quadrature rule for a positive law, with
    sum(w f(exp(y))) ~ E f(X) for an f that grows like x^p, p between lo
    and hi; None when the family has no rule, or when the rule misses
    E X^lo or E X^hi by more than _RULE_TOL relative.

    A positive Constant is its one node, and exact. A Lognormal(mu, sigma)
    takes the Gauss-Hermite rule on its log, moved to the mode of x^p
    times the law's density at the middle exponent p = (lo + hi) / 2: with
    c = p sigma, y = mu + sigma (z + c), and the weights w exp(-c z -
    c^2 / 2) undo the shift. Its error on E X^q is least at q = p and
    grows with |q - p| sigma, so the ends lo and hi are where it is worst.
    Other laws, and a Constant <= 0, have no rule."""
    if isinstance(spec, Constant):
        return ((np.array([math.log(spec.c)]), np.ones(1)) if spec.c > 0
                else None)
    if not isinstance(spec, Lognormal):
        return None
    c = 0.5 * (lo + hi) * spec.sigma
    y = spec.mu + spec.sigma * (_HERMITE_Z + c)
    w = _HERMITE_W * np.exp(-c * _HERMITE_Z - 0.5 * c * c)
    for p in (lo, hi):
        # the rule's E X^p over the exact one; an overflow reads as a miss
        with np.errstate(over="ignore"):
            ratio = float(w @ np.exp(p * y - p * spec.mu
                                     - 0.5 * (p * spec.sigma) ** 2))
        if not abs(ratio - 1.0) <= _RULE_TOL:
            return None
    return y, w


# ---------------------------------------------------------------------------
# Structural metadata used by the regime classifier
# ---------------------------------------------------------------------------

def moment_sup(spec: Dist) -> float:
    """sup{beta : E|X|^beta < infinity}."""
    if isinstance(spec, TwoSidedPareto):
        return spec.alpha
    if isinstance(spec, Scaled):
        return math.inf if spec.factor == 0.0 else moment_sup(spec.inner)
    return math.inf


def is_zero_pointmass(spec: Dist) -> bool:
    # the menu's only atoms are point masses, so X = 0 a.s. iff X has no sign
    return prob_positive(spec) + prob_negative(spec) == 0.0


def prob_negative(spec: Dist) -> float:
    """P(X < 0), exact for every menu family."""
    return signed_moment(spec, 0.0, "minus")


def any_negative(*specs: Dist) -> bool:
    """Whether any of the laws gives mass to X < 0."""
    return any(prob_negative(spec) > 0 for spec in specs)


def prob_positive(spec: Dist) -> float:
    return signed_moment(spec, 0.0, "plus")


def is_continuous(spec: Dist) -> bool:
    """True when the law has a density (no atoms); drives the
    non-lattice checks, which are structural rather than statistical."""
    if isinstance(spec, Constant):
        return False
    if isinstance(spec, Scaled):
        return spec.factor != 0.0 and is_continuous(spec.inner)
    return True


# ---------------------------------------------------------------------------
# Serialization (tagged records, the scenario-config wire format)
# ---------------------------------------------------------------------------

_KINDS = {"constant": Constant, "normal": Normal, "lognormal": Lognormal,
          "signed_lognormal": SignedLognormal,
          "two_sided_pareto": TwoSidedPareto, "uniform": Uniform,
          "scaled": Scaled}


def _record_to_dict(tag: str, table: dict, obj, write) -> dict:
    """{tag: obj's name in table, field: write(field, value), ...}."""
    name = next(k for k, cls in table.items() if type(obj) is cls)
    return {tag: name, **{f.name: write(f.name, getattr(obj, f.name))
                          for f in fields(obj)}}


def _record_from_dict(tag: str, table: dict, d: dict, read):
    """Inverse of _record_to_dict: ValueError for an unknown tag or key,
    KeyError for a missing field."""
    if d[tag] not in table:
        raise ValueError(f"unknown {tag} {d[tag]!r}")
    names = [f.name for f in fields(table[d[tag]])]
    _check_keys(d, [tag, *names])
    return table[d[tag]](**{name: read(name, d[name]) for name in names})


def _check_keys(d: dict, known: list[str]) -> None:
    if unknown := sorted(set(d) - set(known)):
        raise ValueError(f"unknown keys {unknown}")


def _json_number(name: str, x, kind=float):
    """x as kind, from a JSON number (not a bool or a string) with an
    integral value when kind is int; from Python, any real number type
    (numpy's included) but bool."""
    if (isinstance(x, bool) or not isinstance(x, numbers.Real)
            or kind is int and not float(x).is_integer()):
        raise ValueError(f"{name} must be {'an integral' if kind is int else 'a'}"
                         f" JSON number, not {x!r}")
    return kind(x)


def _finite_float(name: str, x) -> float:
    x = _json_number(name, x)
    if not math.isfinite(x):
        raise ValueError(f"law parameters must be finite, not {x}")
    return x


def dist_to_dict(spec: Dist) -> dict:
    return _record_to_dict("kind", _KINDS, spec, lambda name, value: (
        dist_to_dict(value) if name == "inner" else value))


def dist_from_dict(d: dict) -> Dist:
    return _record_from_dict("kind", _KINDS, d, lambda name, value: (
        dist_from_dict(value) if name == "inner" else _finite_float(name, value)))

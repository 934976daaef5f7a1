"""Large-deviation rate curves for log-guesswork, log-reverse-guesswork and
information.

Each curve is parameterized implicitly: a target level t is inverted to the
tilt order alpha whose tilted entropy (or cross entropy) equals t, and the
rate value is the relative entropy of that tilt from the source.  The level
is strictly monotone in alpha on each branch, so bisection cannot fail
inside a bracket.

`rate_points` inverts a whole grid of t at once.  Every t brackets its root
on the same geometric ladder of alpha, whose levels are computed in one call,
and then all t bisect in lockstep.  Every step evaluates the exact level at
all midpoints in one call (`_levels`): the tilts are rows of one array, and
each row's sums run one BLAS dot, as a lone order's vector does.  So each
decision is the one a lone scalar bisection on that order's tilted source
makes, and the roots are the same floats; the rate, slope and curvature at
the roots come from the same rows.  No tilted source is built.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import sources
from .errors import BracketFailure, DegenerateVariance, InvalidInput, OutOfRange
from .measures import (
    _cross_entropy,
    _cross_varentropy,
    _relative_entropy,
    _tilted_rows,
    relative_entropy,
)
from .sources import CategoricalSource, _require_grid_budget, _require_int, uniform, validate

KINDS = ("forward_g", "reverse_r", "information_i")

#: half-width of the clamp region at each domain endpoint
ENDPOINT_CLAMP = 1e-8

#: largest |alpha| the bracket expansion will reach
ALPHA_CAP = 1e4


@dataclass(frozen=True)
class CrossEntropyRange:
    """Scaling exponents of the most and least likely strings.

    t_minus = -log(max theta) and t_plus = -log(min theta); these bracket the
    entropy and bound the domain of the information rate curve.
    """

    t_minus: float
    t_plus: float


def cross_entropy_range(source: CategoricalSource) -> CrossEntropyRange:
    validate(source)
    return CrossEntropyRange(
        t_minus=-math.log(source.max_prob), t_plus=-math.log(source.min_prob)
    )


#: how `_bracket` brackets each kind's root: the level's slope sign in alpha,
#: then the (start, factor, failure message) of the lo and hi ends
_BRACKETS = {
    "forward_g": (-1.0, (1e-6, 0.5, "t is too close to log|alphabet|"),
                  (1.0, 2.0, "t is too close to 0")),
    "reverse_r": (1.0, (-1.0, 2.0, "t is too close to 0"),
                  (-1e-6, 0.5, "t is too close to log|alphabet|")),
    "information_i": (-1.0, (-1.0, 2.0, "t is too close to the max-cross entropy"),
                      (1.0, 2.0, "t is too close to the min-cross entropy")),
}

def _levels(source: CategoricalSource, kind: str, alphas: np.ndarray) -> np.ndarray:
    """Entropy (or cross entropy against the source) of each order-alpha
    tilt: the level a kind's root solves for."""
    levels = np.empty(alphas.size)
    for rows, p, lp, lq in _tilted_rows(source, alphas):
        levels[rows] = _cross_entropy(p, lq if kind == "information_i" else lp)
    return levels


def _solve(source: CategoricalSource, kind: str, ts: np.ndarray) -> np.ndarray:
    """The tilt order on the kind's branch whose level equals each t.

    Raises the error of the first t, in order, that is outside the open
    domain or whose root cannot be bracketed.
    """
    lower, upper = _domain(source, kind)
    outside = np.flatnonzero(~((lower < ts) & (ts < upper)))
    head = ts[: outside[0]] if outside.size else ts
    lo, hi, flo, fhi = _bracket(source, kind, head)
    if outside.size:
        shown = f"({lower}, {upper})" if kind == "information_i" else f"(0, {upper})"
        raise OutOfRange(f"t={float(ts[outside[0]])} outside {shown}")
    return _bisect_all(source, kind, ts, lo, hi, flo, fhi)


def _bracket(source: CategoricalSource, kind: str, ts: np.ndarray):
    """Bracket every t's root on the kind's two ladders of alpha, whose
    levels one `_levels` call gives.  An end whose level lies on the wrong
    side of t steps outward by its factor, and fails with its message once
    |alpha| would leave [1e-14, ALPHA_CAP]; so it stops at the first rung on
    the right side, and the other end takes the rung before (its start if
    the end stays).  Near alpha = 0 the levels need not be monotone in
    floating point, so that rung is one search over the running extreme of
    the end's levels.  No t lies on the wrong side of both starts, so at
    most one end moves."""
    slope, *ends = _BRACKETS[kind]
    ladders = []
    for start, factor, _ in ends:
        ladder = [start]
        while 1e-14 <= abs(ladder[-1] * factor) <= ALPHA_CAP:
            ladder.append(ladder[-1] * factor)
        ladders.append(ladder)
    rungs = np.array(ladders[0] + ladders[1])
    levels = _levels(source, kind, rungs)
    first, stops, failures = (0, len(ladders[0])), [], []
    for wrong, at, ladder, (_, _, message) in zip((slope, -slope), first, ladders, ends):
        extreme = np.maximum.accumulate(-wrong * levels[at : at + len(ladder)])
        stop = np.searchsorted(extreme, -wrong * ts)
        failures += [(i, message) for i in np.flatnonzero(stop == len(ladder))[:1]]
        stops.append(at + stop)  # the end's rung, as an index into `rungs`
    if failures:  # the first t that fails; none fails at both ends
        raise BracketFailure(min(failures)[1])
    lo = np.where(stops[1] > first[1], stops[1] - 1, stops[0])
    hi = np.where(stops[0] > 0, stops[0] - 1, stops[1])
    return rungs[lo], rungs[hi], levels[lo] - ts, levels[hi] - ts


def _bisect_all(source, kind, ts, lo, hi, flo, fhi) -> np.ndarray:
    """Bisect every bracket in lockstep; each t stops as a lone bisection would."""
    alpha = np.where(flo == 0.0, lo, hi)
    lo_below = flo < 0.0
    active = (flo != 0.0) & (fhi != 0.0)
    midpoint_root = np.zeros(ts.size, dtype=bool)
    bisected = active.copy()
    for _ in range(200):
        idx = np.flatnonzero(active)
        if not idx.size:
            break
        mid = 0.5 * (lo[idx] + hi[idx])
        sides = np.sign(_levels(source, kind, mid) - ts[idx])
        root = sides == 0.0
        up = ~root & ((sides < 0.0) == lo_below[idx])
        down = ~(root | up)
        lo[idx[up]] = mid[up]
        hi[idx[down]] = mid[down]
        alpha[idx[root]] = mid[root]
        midpoint_root[idx[root]] = True
        converged = hi[idx] - lo[idx] <= 1e-15 * np.maximum(1.0, np.abs(mid))
        active[idx[root | converged]] = False
    last = bisected & ~midpoint_root
    alpha[last] = 0.5 * (lo[last] + hi[last])
    return alpha


def alpha_for_entropy(
    source: CategoricalSource, t: float, branch: str = "positive"
) -> float:
    """The tilt order on the requested sign branch whose entropy equals t.

    The tilted entropy decreases strictly from log|alphabet| to 0 as |alpha|
    grows, so the root is unique per branch.
    """
    kind = {"positive": "forward_g", "negative": "reverse_r"}.get(branch)
    if kind is None:
        raise InvalidInput(f"unknown branch {branch!r}")
    return float(_solve(source, kind, np.array([sources._require_real(t, "t")]))[0])


def alpha_for_cross_entropy(source: CategoricalSource, t: float) -> float:
    """The (unique) tilt order whose cross entropy against the source equals t."""
    return float(_solve(source, "information_i", np.array([sources._require_real(t, "t")]))[0])


def _domain(source: CategoricalSource, kind: str) -> tuple[float, float]:
    """The open domain of t of a kind's curve, on a valid source."""
    validate(source)
    if kind in ("forward_g", "reverse_r"):
        return 0.0, math.log(len(source.alphabet))
    rng = cross_entropy_range(source)
    return rng.t_minus, rng.t_plus


def _endpoint_value(source: CategoricalSource, kind: str, at_lower: bool) -> float:
    # lower end: point mass on the most likely symbol (least likely for
    # reverse_r); upper end: the uniform source (the order-0 tilt), or for
    # information the point mass on the least likely symbol
    if at_lower:
        return -math.log(source.min_prob if kind == "reverse_r" else source.max_prob)
    if kind == "information_i":
        return -math.log(source.min_prob)
    return relative_entropy(uniform(source.alphabet), source)


def _rate(source: CategoricalSource, t: float, kind: str) -> float:
    t = sources._require_real(t, "t")
    lo, hi = _domain(source, kind)
    if t < lo - 1e-12 or t > hi + 1e-12:
        raise OutOfRange(f"t={t} outside [{lo}, {hi}]")
    if t <= lo + ENDPOINT_CLAMP:
        return _endpoint_value(source, kind, at_lower=True)
    if t >= hi - ENDPOINT_CLAMP:
        return _endpoint_value(source, kind, at_lower=False)
    return float(rate_points(source, kind, [t]).rate[0])


def rate_g(source: CategoricalSource, t: float) -> float:
    """Decay exponent of P{log-guesswork/n near t}; convex, 0 at the entropy."""
    return _rate(source, t, "forward_g")


def rate_r(source: CategoricalSource, t: float) -> float:
    """Decay exponent of P{log-reverse-guesswork/n near t}; concave in t."""
    return _rate(source, t, "reverse_r")


def rate_i(source: CategoricalSource, t: float) -> float:
    """Decay exponent of P{information/n near t} on (t_minus, t_plus)."""
    return _rate(source, t, "information_i")


def rate_derivatives(source: CategoricalSource, t: float, kind: str) -> tuple[float, float]:
    """(dJ/dt, d2J/dt2) of the requested rate curve at an interior point."""
    t = sources._require_real(t, "t")
    lo, hi = _domain(source, kind)
    if not lo < t < hi:
        raise OutOfRange(f"t={t} not interior to ({lo}, {hi})")
    t = min(max(t, lo + ENDPOINT_CLAMP), hi - ENDPOINT_CLAMP)
    curve = rate_points(source, kind, [t])
    return float(curve.d_rate[0]), float(curve.d2_rate[0])


@dataclass(frozen=True, eq=False)
class RateCurve:
    """Sampled parametric rate curve: alpha, t, J and the first two t-derivatives."""

    kind: str
    alpha: np.ndarray
    t: np.ndarray
    rate: np.ndarray
    d_rate: np.ndarray
    d2_rate: np.ndarray


def rate_points(source: CategoricalSource, kind: str, ts) -> RateCurve:
    """The rate curve and its first two t-derivatives at every level in `ts`.

    Every t must lie inside the open domain of the curve, (0, log|alphabet|)
    for the guesswork kinds and (t_minus, t_plus) for information; no
    endpoint clamp applies.  All t are solved together, and the grid may hold
    at most DEFAULT_BUDGET entries of t times symbols (BudgetExceeded).
    """
    if kind not in KINDS:
        raise InvalidInput(f"unknown curve kind {kind!r}")
    ts = np.array(sources._require_reals(ts, "ts"))
    _require_grid_budget(source, ts.size)
    alphas = _solve(source, kind, ts)
    rates = np.empty(ts.size)
    inv_d2 = np.empty(ts.size)
    for rows, p, lp, lq in _tilted_rows(source, alphas):
        rates[rows] = _relative_entropy(p, lp, lq)
        if kind == "information_i":
            # alpha^2 / V(tilt) written through the cross varentropy, which
            # stays finite and continuous through alpha = 0
            inv_d2[rows] = _cross_varentropy(p, lq)
        else:
            inv_d2[rows] = alphas[rows] * _cross_varentropy(p, lp)
    degenerate = np.flatnonzero(inv_d2 == 0.0)
    if degenerate.size:
        raise DegenerateVariance(
            f"t={float(ts[degenerate[0]])}: tilted varentropy is numerically zero; "
            "d2J/dt2 is undefined"
        )
    d1 = 1.0 - alphas if kind == "information_i" else (1.0 - alphas) / alphas
    with np.errstate(over="ignore"):  # a subnormal inv_d2 gives inf, as a float division does
        d2 = 1.0 / inv_d2
    return RateCurve(kind=kind, alpha=alphas, t=ts, rate=rates, d_rate=d1, d2_rate=d2)


def rate_curve(source: CategoricalSource, kind: str, n_samples: int = 201) -> RateCurve:
    """Sample the rate curve on a uniform interior grid of t."""
    if kind not in KINDS:
        raise InvalidInput(f"unknown curve kind {kind!r}")
    _require_int(n_samples, "n_samples", 3)
    _require_grid_budget(source, n_samples)
    lo, hi = _domain(source, kind)
    return rate_points(source, kind, lo + (hi - lo) * np.arange(1, n_samples + 1) / (n_samples + 1))

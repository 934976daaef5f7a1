"""Large-deviation rate curves for log-guesswork, log-reverse-guesswork and
information.

Each curve is parameterized implicitly: a target level t is inverted to the
tilt order alpha whose tilted entropy (or cross entropy) equals t, and the
rate value is the relative entropy of that tilt from the source.  The level
is strictly monotone in alpha on each branch, so bisection cannot fail
inside a bracket.

`rate_points` inverts a whole grid of t at once.  Every t brackets its root
on the same geometric ladder of alpha, whose exact levels are computed once
per call, and then all t bisect in lockstep.  A vectorized (t x symbols)
tilted level decides on which side of t each midpoint lies; only when it
falls within LEVEL_GUARD of t does the scalar exact level decide.  Each
decision is thus the one a lone scalar bisection on the exact level makes,
and the roots are the same floats.  The exact level and the rate values at
each root build no tilted source: they run the measures' sums on the
probability array `tilt` would hold.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BracketFailure, DegenerateVariance, OutOfRange
from .measures import _cross_entropy, _cross_varentropy, _relative_entropy, relative_entropy
from .sources import CategoricalSource, _tilted_theta, uniform, validate

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


#: how each kind's root is bracketed: the level's slope sign in alpha, the
#: start bracket (lo, hi), then the two ends in walk order.  An end whose
#: level lies on the wrong side of t steps outward by its factor, handing its
#: old value to the other end; a step that leaves [1e-14, ALPHA_CAP] in
#: |alpha| fails with the end's message.
_BRACKETS = {
    "forward_g": (-1.0, (1e-6, 1.0), (
        ("lo", 0.5, "t is too close to log|alphabet|"),
        ("hi", 2.0, "t is too close to 0"),
    )),
    "reverse_r": (1.0, (-1.0, -1e-6), (
        ("hi", 0.5, "t is too close to log|alphabet|"),
        ("lo", 2.0, "t is too close to 0"),
    )),
    "information_i": (-1.0, (-1.0, 1.0), (
        ("hi", 2.0, "t is too close to the min-cross entropy"),
        ("lo", 2.0, "t is too close to the max-cross entropy"),
    )),
}

#: relative distance from t inside which the vectorized level defers to the
#: exact scalar level when deciding on which side of t a bisection midpoint
#: lies; the two levels differ by a few ulps, far below this margin
LEVEL_GUARD = 1e-13


def _tilted_arrays(source: CategoricalSource, alpha: float):
    """On the support of the order-alpha tilt: its probabilities, its
    log-probs and the source's log-probs, the arrays the measures read from
    `tilt(source, alpha)` and the source, with no source built."""
    theta = _tilted_theta(source, alpha)
    support = theta > 0
    p = theta[support]
    return p, np.log(p), source.log_theta[support]


def _exact_level(source: CategoricalSource, kind: str, alpha: float) -> float:
    """Entropy (or cross entropy against the source) of the order-alpha tilt,
    summed on its arrays; no tilted source is built."""
    p, lp, lq = _tilted_arrays(source, alpha)
    return _cross_entropy(p, lq if kind == "information_i" else lp)


def _fast_levels(source: CategoricalSource, kind: str, alphas: np.ndarray) -> np.ndarray:
    """`_exact_level` at many orders at once, summed in a different order."""
    lt = np.multiply.outer(alphas, source.log_theta)
    top = lt.max(axis=1, keepdims=True)
    lt -= top + np.log(np.exp(lt - top).sum(axis=1, keepdims=True))
    weights = source.log_theta if kind == "information_i" else lt
    return -(np.exp(lt) * weights).sum(axis=1)


def _sides(
    source: CategoricalSource, kind: str, alphas: np.ndarray, ts: np.ndarray
) -> np.ndarray:
    """Sign of exact level minus t at each (alpha, t) pair."""
    diff = _fast_levels(source, kind, alphas) - ts
    sides = np.sign(diff)
    unsure = ~(np.abs(diff) > LEVEL_GUARD * np.maximum(1.0, np.abs(ts)))
    for i in np.flatnonzero(unsure):
        sides[i] = np.sign(_exact_level(source, kind, float(alphas[i])) - ts[i])
    return sides


def _solve(source: CategoricalSource, kind: str, ts: np.ndarray) -> np.ndarray:
    """The tilt order on the kind's branch whose level equals each t.

    Raises the error of the first t, in order, that is outside the open
    domain or whose root cannot be bracketed.
    """
    validate(source)
    lower, upper = _domain(source, kind)
    outside = np.flatnonzero(~((lower < ts) & (ts < upper)))
    head = ts[: outside[0]] if outside.size else ts
    lo, hi, flo, fhi = _bracket(source, kind, head)
    if outside.size:
        shown = f"({lower}, {upper})" if kind == "information_i" else f"(0, {upper})"
        raise OutOfRange(f"t={float(ts[outside[0]])} outside {shown}")
    return _bisect_all(source, kind, ts, lo, hi, flo, fhi)


def _bracket(source: CategoricalSource, kind: str, ts: np.ndarray):
    """Walk every t's bracket out along the kind's two ladders in lockstep.

    Every t that walks an end starts it from the same start value, so the
    ladder points, and their exact levels, are shared by all t.
    """
    slope, starts, walks = _BRACKETS[kind]
    start = dict(zip(("lo", "hi"), starts))
    ends = {e: np.full(ts.size, start[e]) for e in start}
    f = {e: _exact_level(source, kind, start[e]) - ts for e in start}
    failed = np.full(ts.size, None, dtype=object)
    for end, factor, message in walks:
        other = "hi" if end == "lo" else "lo"
        wrong = slope if end == "lo" else -slope
        x = start[end]
        walking = wrong * f[end] > 0.0
        while walking.any():
            ends[other][walking] = ends[end][walking]
            f[other][walking] = f[end][walking]
            x *= factor
            if not 1e-14 <= abs(x) <= ALPHA_CAP:
                failed[walking] = message
                break
            ends[end][walking] = x
            f[end][walking] = _exact_level(source, kind, x) - ts[walking]
            walking &= wrong * f[end] > 0.0
    for message in failed:
        if message is not None:
            raise BracketFailure(message)
    return ends["lo"], ends["hi"], f["lo"], f["hi"]


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
        sides = _sides(source, kind, mid, ts[idx])
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
        raise ValueError(f"unknown branch {branch!r}")
    return float(_solve(source, kind, np.array([t], dtype=np.float64))[0])


def alpha_for_cross_entropy(source: CategoricalSource, t: float) -> float:
    """The (unique) tilt order whose cross entropy against the source equals t."""
    return float(_solve(source, "information_i", np.array([t], dtype=np.float64))[0])


def _domain(source: CategoricalSource, kind: str) -> tuple[float, float]:
    if kind in ("forward_g", "reverse_r"):
        return 0.0, math.log(len(source.alphabet))
    rng = cross_entropy_range(source)
    return rng.t_minus, rng.t_plus


def _endpoint_value(source: CategoricalSource, kind: str, at_lower: bool) -> float:
    # lower end: point mass on the most likely symbol (least likely for
    # reverse_r); upper end: the uniform source, or for information the
    # point mass on the least likely symbol
    if at_lower:
        return -math.log(source.min_prob if kind == "reverse_r" else source.max_prob)
    if kind == "information_i":
        return -math.log(source.min_prob)
    return relative_entropy(uniform(source.alphabet), source)


def _rate(source: CategoricalSource, t: float, kind: str) -> float:
    validate(source)
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
    validate(source)
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

    def rows(self):
        for i in range(self.t.size):
            yield (
                self.kind,
                float(self.alpha[i]),
                float(self.t[i]),
                float(self.rate[i]),
                float(self.d_rate[i]),
                float(self.d2_rate[i]),
            )


def rate_points(source: CategoricalSource, kind: str, ts) -> RateCurve:
    """The rate curve and its first two t-derivatives at every level in `ts`.

    Every t must lie inside the open domain of the curve, (0, log|alphabet|)
    for the guesswork kinds and (t_minus, t_plus) for information; no
    endpoint clamp applies.  All t are solved together.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown curve kind {kind!r}")
    ts = np.array(ts, dtype=np.float64)
    if ts.ndim != 1:
        raise ValueError("ts must be one-dimensional")
    alphas = _solve(source, kind, ts)
    rates = np.empty(ts.size)
    d1 = np.empty(ts.size)
    d2 = np.empty(ts.size)
    for i, a in enumerate(alphas.tolist()):
        p, lp, lq = _tilted_arrays(source, a)
        rates[i] = _relative_entropy(p, lp, lq)
        if kind == "information_i":
            d1[i] = 1.0 - a
            # alpha^2 / V(tilt) written through the cross varentropy, which
            # stays finite and continuous through alpha = 0
            inv_d2 = _cross_varentropy(p, lq)
        else:
            d1[i] = (1.0 - a) / a
            inv_d2 = a * _cross_varentropy(p, lp)
        if inv_d2 == 0.0:
            raise DegenerateVariance(
                f"t={float(ts[i])}: tilted varentropy is numerically zero; d2J/dt2 is undefined"
            )
        d2[i] = 1.0 / inv_d2
    return RateCurve(kind=kind, alpha=alphas, t=ts, rate=rates, d_rate=d1, d2_rate=d2)


def rate_curve(source: CategoricalSource, kind: str, n_samples: int = 201) -> RateCurve:
    """Sample the rate curve on a uniform interior grid of t."""
    if kind not in KINDS:
        raise ValueError(f"unknown curve kind {kind!r}")
    if n_samples < 3:
        raise ValueError("need at least 3 samples")
    lo, hi = _domain(source, kind)
    return rate_points(source, kind, lo + (hi - lo) * np.arange(1, n_samples + 1) / (n_samples + 1))

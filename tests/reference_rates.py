"""Reference rate-curve solver: scalar bisection, one target level at a time.

This is the solver the lockstep `rates.rate_points` replaced, kept as a test
oracle.  Every bisection step builds a tilted source and evaluates its exact
entropy (or cross entropy); a root is bracketed by walking geometric ladders
outward from fixed start points.  The lockstep solver must return the same
floats, bit for bit, and raise the same errors.
"""
import math
from typing import Callable

import numpy as np

from tiltlab.errors import BracketFailure, OutOfRange
from tiltlab.measures import (
    cross_entropy,
    cross_varentropy,
    entropy,
    relative_entropy,
    varentropy,
)
from tiltlab.rates import (
    ALPHA_CAP,
    ENDPOINT_CLAMP,
    KINDS,
    RateCurve,
    cross_entropy_range,
)
from tiltlab.sources import CategoricalSource, tilt, uniform, validate


def _bisect(
    f: Callable[[float], float], lo: float, hi: float, flo: float, fhi: float
) -> float:
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (fm < 0.0) == (flo < 0.0):
            lo, flo = mid, fm
        else:
            hi = mid
        if hi - lo <= 1e-15 * max(1.0, abs(mid)):
            break
    return 0.5 * (lo + hi)


def level(source: CategoricalSource, kind: str, alpha: float) -> float:
    """The level a kind's root solves for: the entropy of the order-alpha
    tilt, or for information its cross entropy against the source."""
    tilted = tilt(source, alpha)
    return cross_entropy(tilted, source) if kind == "information_i" else entropy(tilted)


def alpha_for_entropy(
    source: CategoricalSource, t: float, branch: str = "positive"
) -> float:
    """The tilt order on the requested sign branch whose entropy equals t.

    The tilted entropy decreases strictly from log|alphabet| to 0 as |alpha|
    grows, so the root is unique per branch.
    """
    validate(source)
    log_k = math.log(len(source.alphabet))
    if not 0.0 < t < log_k:
        raise OutOfRange(f"t={t} outside (0, {log_k})")

    def f(a: float) -> float:
        return entropy(tilt(source, a)) - t

    if branch == "positive":
        lo, hi = 1e-6, 1.0
        flo, fhi = f(lo), f(hi)
        while flo < 0.0:  # root closer to 0 than the bracket start
            hi, fhi = lo, flo
            lo /= 2.0
            if lo < 1e-14:
                raise BracketFailure("t is too close to log|alphabet|")
            flo = f(lo)
        while fhi > 0.0:
            lo, flo = hi, fhi
            hi *= 2.0
            if hi > ALPHA_CAP:
                raise BracketFailure("t is too close to 0")
            fhi = f(hi)
        return _bisect(f, lo, hi, flo, fhi)
    if branch == "negative":
        lo, hi = -1.0, -1e-6
        flo, fhi = f(lo), f(hi)
        while fhi < 0.0:
            lo, flo = hi, fhi
            hi /= 2.0
            if hi > -1e-14:
                raise BracketFailure("t is too close to log|alphabet|")
            fhi = f(hi)
        while flo > 0.0:
            hi, fhi = lo, flo
            lo *= 2.0
            if lo < -ALPHA_CAP:
                raise BracketFailure("t is too close to 0")
            flo = f(lo)
        return _bisect(f, lo, hi, flo, fhi)
    raise ValueError(f"unknown branch {branch!r}")


def alpha_for_cross_entropy(source: CategoricalSource, t: float) -> float:
    """The (unique) tilt order whose cross entropy against the source equals t."""
    validate(source)
    rng = cross_entropy_range(source)
    if not rng.t_minus < t < rng.t_plus:
        raise OutOfRange(f"t={t} outside ({rng.t_minus}, {rng.t_plus})")

    def f(a: float) -> float:
        return cross_entropy(tilt(source, a), source) - t

    lo, hi = -1.0, 1.0
    flo, fhi = f(lo), f(hi)
    while fhi > 0.0:  # f is strictly decreasing in alpha
        lo, flo = hi, fhi
        hi *= 2.0
        if hi > ALPHA_CAP:
            raise BracketFailure("t is too close to the min-cross entropy")
        fhi = f(hi)
    while flo < 0.0:
        hi, fhi = lo, flo
        lo *= 2.0
        if lo < -ALPHA_CAP:
            raise BracketFailure("t is too close to the max-cross entropy")
        flo = f(lo)
    return _bisect(f, lo, hi, flo, fhi)


def _solve_alpha(source: CategoricalSource, t: float, kind: str) -> float:
    if kind == "forward_g":
        return alpha_for_entropy(source, t, "positive")
    if kind == "reverse_r":
        return alpha_for_entropy(source, t, "negative")
    if kind == "information_i":
        return alpha_for_cross_entropy(source, t)
    raise ValueError(f"unknown curve kind {kind!r}")


def _domain(source: CategoricalSource, kind: str) -> tuple[float, float]:
    if kind in ("forward_g", "reverse_r"):
        return 0.0, math.log(len(source.alphabet))
    rng = cross_entropy_range(source)
    return rng.t_minus, rng.t_plus


def _endpoint_value(source: CategoricalSource, kind: str, at_lower: bool) -> float:
    if kind == "forward_g":
        # left end: point mass on the most likely symbol; right end: uniform
        if at_lower:
            return -math.log(source.max_prob)
        return relative_entropy(uniform(source.alphabet), source)
    if kind == "reverse_r":
        if at_lower:
            return -math.log(source.min_prob)
        return relative_entropy(uniform(source.alphabet), source)
    if at_lower:
        return -math.log(source.max_prob)
    return -math.log(source.min_prob)


def _rate(source: CategoricalSource, t: float, kind: str) -> float:
    validate(source)
    lo, hi = _domain(source, kind)
    if t < lo - 1e-12 or t > hi + 1e-12:
        raise OutOfRange(f"t={t} outside [{lo}, {hi}]")
    if t <= lo + ENDPOINT_CLAMP:
        return _endpoint_value(source, kind, at_lower=True)
    if t >= hi - ENDPOINT_CLAMP:
        return _endpoint_value(source, kind, at_lower=False)
    alpha = _solve_alpha(source, t, kind)
    return relative_entropy(tilt(source, alpha), source)


def rate_g(source: CategoricalSource, t: float) -> float:
    """Decay exponent of P{log-guesswork/n near t}; convex, 0 at the entropy."""
    return _rate(source, t, "forward_g")


def rate_r(source: CategoricalSource, t: float) -> float:
    """Decay exponent of P{log-reverse-guesswork/n near t}; concave in t."""
    return _rate(source, t, "reverse_r")


def rate_i(source: CategoricalSource, t: float) -> float:
    """Decay exponent of P{information/n near t} on (t_minus, t_plus)."""
    return _rate(source, t, "information_i")


def _derivatives_at_alpha(
    source: CategoricalSource, alpha: float, kind: str
) -> tuple[float, float]:
    tilted = tilt(source, alpha)
    if kind == "information_i":
        d1 = 1.0 - alpha
        # alpha^2 / V(tilt) written through the cross varentropy, which stays
        # finite and continuous through alpha = 0
        d2 = 1.0 / cross_varentropy(tilted, source)
        return d1, d2
    d1 = (1.0 - alpha) / alpha
    d2 = 1.0 / (alpha * varentropy(tilted))
    return d1, d2


def rate_derivatives(source: CategoricalSource, t: float, kind: str) -> tuple[float, float]:
    """(dJ/dt, d2J/dt2) of the requested rate curve at an interior point."""
    validate(source)
    lo, hi = _domain(source, kind)
    if not lo < t < hi:
        raise OutOfRange(f"t={t} not interior to ({lo}, {hi})")
    t = min(max(t, lo + ENDPOINT_CLAMP), hi - ENDPOINT_CLAMP)
    alpha = _solve_alpha(source, t, kind)
    return _derivatives_at_alpha(source, alpha, kind)


def rate_curve(source: CategoricalSource, kind: str, n_samples: int = 201) -> RateCurve:
    """Sample the rate curve on a uniform interior grid of t."""
    if kind not in KINDS:
        raise ValueError(f"unknown curve kind {kind!r}")
    if n_samples < 3:
        raise ValueError("need at least 3 samples")
    validate(source)
    lo, hi = _domain(source, kind)
    ts = lo + (hi - lo) * np.arange(1, n_samples + 1) / (n_samples + 1)
    alphas = np.empty(n_samples)
    rates = np.empty(n_samples)
    d1 = np.empty(n_samples)
    d2 = np.empty(n_samples)
    for i, t in enumerate(ts):
        a = _solve_alpha(source, float(t), kind)
        alphas[i] = a
        rates[i] = relative_entropy(tilt(source, a), source)
        d1[i], d2[i] = _derivatives_at_alpha(source, a, kind)
    return RateCurve(kind=kind, alpha=alphas, t=ts, rate=rates, d_rate=d1, d2_rate=d2)


def reference_points(source: CategoricalSource, kind: str, ts) -> list[tuple]:
    """Rows of the former CLI `rate --t-grid` loop: one scalar solve per t."""
    rows = []
    for t in ts:
        alpha = _solve_alpha(source, float(t), kind)
        rate = relative_entropy(tilt(source, alpha), source)
        d1, d2 = _derivatives_at_alpha(source, alpha, kind)
        rows.append((kind, alpha, t, rate, d1, d2))
    return rows

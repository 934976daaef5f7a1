"""Closed-form finite-n approximations of guesswork and typical-set size.

The central formula maps the entropy/varentropy pair of a tilted word
distribution to an approximate rank

    e^H / (sqrt(pi/2 * V) + sqrt(pi/2 * V + 4)),

which is the forward guesswork for positive tilt orders and the reverse rank
for negative ones; sweeping the order over both signs and stitching the two
branches traces the whole guesswork PMF.  For Markov and hidden-Markov
sources the word-level entropy and varentropy replace the i.i.d. n-scaling,
with tilting applied to the enumerated word distribution itself.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import DegenerateVariance, NegativeVariance, OutOfRange
from .guesswork import TypicalSetSpec
from .measures import cross_entropy, entropy, varentropy
from .numeric import _exp_or_inf
from .sources import (
    DEFAULT_BUDGET,
    CategoricalSource,
    SequenceSource,
    _require_length,
    enumerate_word_log_probs,
    tilt,
    validate,
)


@dataclass(frozen=True)
class WordMeasures:
    """Entropy and varentropy of the length-n word distribution (nats, nats^2)."""

    n: int
    entropy: float
    varentropy: float


def word_measures(
    source: SequenceSource, n: int, budget: int = DEFAULT_BUDGET
) -> WordMeasures:
    """Word-level measures: n-scaled for i.i.d., enumerated otherwise."""
    _require_length(n)
    if isinstance(source, CategoricalSource):
        return WordMeasures(n, entropy(source, n), varentropy(source, n))
    logp = enumerate_word_log_probs(source, n, budget)
    support = np.isfinite(logp)
    p = np.exp(logp[support])
    h = float(np.dot(p, -logp[support]))
    v = float(np.dot(p, (logp[support] + h) ** 2))
    return WordMeasures(n, h, v)


def approx_rank(entropy_nats: float, varentropy_nats2: float) -> float:
    """The closed-form rank estimate for a word distribution with the given
    entropy and varentropy.

    At zero varentropy the denominator is exactly 2, so the value reduces
    bit-exactly to e^entropy / 2 (half the effective number of strings).
    An entropy beyond the float range gives inf.
    """
    if varentropy_nats2 < 0:
        raise NegativeVariance(f"varentropy {varentropy_nats2} is negative")
    half_pi_v = 0.5 * math.pi * varentropy_nats2
    denominator = math.sqrt(half_pi_v) + math.sqrt(half_pi_v + 4.0)
    return _exp_or_inf(entropy_nats) / denominator


def approx_guesswork(
    measures: WordMeasures, branch: str = "forward", alphabet_size: Optional[int] = None
) -> float:
    """Approximate guesswork at the cross-entropy level the measures describe.

    The forward branch returns the rank estimate directly.  The reverse
    branch interprets it as a reverse rank R and returns the guesswork
    |alphabet|^n + 1 - R, which needs the alphabet size.
    """
    r = approx_rank(measures.entropy, measures.varentropy)
    if branch == "forward":
        return r
    if branch == "reverse":
        if alphabet_size is None:
            raise ValueError("reverse branch needs alphabet_size")
        try:
            return alphabet_size**measures.n + 1 - r
        except OverflowError:
            raise _beyond_float_range(alphabet_size, measures.n) from None
    raise ValueError(f"unknown branch {branch!r}")


def approx_set_size(
    source: CategoricalSource, alpha: float, epsilon: float, n: int
) -> float:
    """Closed-form estimate of the tilted weakly typical set size.

    Uses |alpha| in the exponents so both tilt signs yield the positive
    window width the derivation integrates over.
    """
    TypicalSetSpec(alpha, epsilon, n)  # the alpha != 0, epsilon > 0 and n >= 1 rules
    validate(source)
    tilted = tilt(source, alpha)
    h = entropy(tilted, n)
    v = varentropy(tilted, n)
    if v <= 1e-12:
        raise DegenerateVariance("tilted varentropy is numerically zero")
    a = abs(alpha) * n * epsilon
    return (1.0 - math.exp(-2.0 * a)) / math.sqrt(2.0 * math.pi * v) * _exp_or_inf(h + a)


@dataclass(frozen=True)
class ApproxPoint:
    """One sweep point of the stitched PMF approximation.

    `approx_rank` is the raw formula value (a guesswork rank on the forward
    branch, a reverse rank on the reverse branch); `guesswork_rank` is the
    position on the common guesswork axis, with the reverse branch folded
    through |alphabet|^n + 1 - R.  `probability` is the per-string level
    e^{-cross-entropy level}.
    """

    alpha: float
    branch: str
    level_nats: float
    tilted_entropy_nats: float
    tilted_varentropy_nats2: float
    approx_rank: float
    guesswork_rank: float
    probability: float


def default_alpha_grid(
    low: float = 1e-2, high: float = 20.0, per_side: int = 61
) -> np.ndarray:
    """Two-sided grid of tilt orders: log-spaced magnitudes on each sign."""
    mags = np.geomspace(low, high, per_side)
    return np.concatenate([-mags[::-1], mags])


def _beyond_float_range(alphabet_size: int, n: int) -> OutOfRange:
    return OutOfRange(f"{alphabet_size}^{n} strings exceed the float range")


def _sweep_grid(
    source: SequenceSource, n: int, alpha_grid: Optional[Sequence[float]] = None
) -> tuple[np.ndarray, float]:
    """The checked tilt-order grid of a sweep (the default when None) and the
    string count |alphabet|^n; an i.i.d. source is validated too."""
    grid = np.asarray(
        default_alpha_grid() if alpha_grid is None else alpha_grid, dtype=np.float64
    )
    if np.any(grid == 0):
        raise ValueError("alpha grid must exclude 0")
    if not (np.any(grid > 0) and np.any(grid < 0)):
        raise ValueError("alpha grid must cover both signs")
    _require_length(n)
    k = len(source.alphabet)
    try:
        total = float(k) ** n
    except OverflowError:
        raise _beyond_float_range(k, n) from None
    if isinstance(source, CategoricalSource):
        validate(source)
    return grid, total


def _tilted_iid_stats(source: CategoricalSource, n: int, grid: np.ndarray):
    """(cross-entropy level, entropy, varentropy) of the length-n words of
    each alpha-tilt of an i.i.d. source."""
    for alpha in grid.tolist():
        tilted = tilt(source, alpha)
        yield cross_entropy(tilted, source, n), entropy(tilted, n), varentropy(tilted, n)


def _tilted_word_stats(logp: np.ndarray, grid: np.ndarray):
    """(cross-entropy level, entropy, varentropy) of each alpha-tilt of the
    word distribution of an enumerated word log-prob vector.

    Each order reuses two word-length buffers: w holds the tilted log-probs
    alpha * logp - log Z, pw their exponentials.  log Z is `log_sum_exp`
    step for step, with its max taken from the extreme log-prob the order's
    sign selects: rounding is monotone, so fl(alpha * max) is the max of the
    products for alpha > 0 and fl(alpha * min) for alpha < 0.
    """
    support = np.isfinite(logp)
    full = bool(support.all())
    if not full and np.any(grid < 0):
        raise ValueError("negative tilt orders need a full-support word distribution")
    base = logp if full else logp[support]
    neg_base = -base
    top, bottom = float(base.max()), float(base.min())
    w = np.empty_like(base)
    pw = np.empty_like(base)
    for alpha in grid.tolist():
        np.multiply(alpha, base, out=w)
        m = alpha * (top if alpha > 0 else bottom)
        if math.isfinite(m):
            np.subtract(w, m, out=pw)
            m += float(np.log(np.exp(pw, out=pw).sum()))
        np.subtract(w, m, out=w)
        np.exp(w, out=pw)
        level = float(np.dot(pw, neg_base))
        np.negative(w, out=w)
        h = float(np.dot(pw, w))
        np.subtract(w, h, out=w)  # -(w + h), squared next
        np.square(w, out=w)
        v = float(np.dot(pw, w))
        yield level, h, v


def approx_pmf_curve(
    source: SequenceSource,
    n: int,
    alpha_grid: Optional[Sequence[float]] = None,
    budget: int = DEFAULT_BUDGET,
    log_probs: Optional[np.ndarray] = None,
) -> list[ApproxPoint]:
    """Sweep tilt orders over both signs and stitch the two rank branches.

    Returns points sorted by guesswork rank.  Ranks are clamped into
    [1, |alphabet|^n]; i.i.d. sources need no enumeration, the others tilt
    the enumerated word distribution directly.  A caller that has enumerated
    the words already (`RankTable.log_probs`) passes them as `log_probs`.
    """
    grid, total = _sweep_grid(source, n, alpha_grid)
    if isinstance(source, CategoricalSource):
        stats = _tilted_iid_stats(source, n, grid)
    else:
        if log_probs is None:
            log_probs = enumerate_word_log_probs(source, n, budget)
        stats = _tilted_word_stats(log_probs, grid)

    points = []
    for alpha, (level, h, v) in zip(grid.tolist(), stats):
        raw = approx_rank(h, v)
        raw = min(max(raw, 1.0), total)
        if alpha > 0:
            branch, g_rank = "forward", raw
        else:
            branch, g_rank = "reverse", total + 1.0 - raw
        g_rank = min(max(g_rank, 1.0), total)
        points.append(
            ApproxPoint(
                alpha=alpha,
                branch=branch,
                level_nats=level,
                tilted_entropy_nats=h,
                tilted_varentropy_nats2=v,
                approx_rank=raw,
                guesswork_rank=g_rank,
                probability=math.exp(-level),
            )
        )
    points.sort(key=lambda pt: (pt.guesswork_rank, pt.level_nats))
    return points


def interpolated_log_rank(points: Sequence[ApproxPoint], log_prob) -> np.ndarray:
    """Log guesswork-rank the stitched curve assigns at given log-prob levels.

    Interpolates log rank linearly in the cross-entropy level; queries beyond
    the swept range clamp to the end points.
    """
    levels = np.array([pt.level_nats for pt in points])
    log_ranks = np.log([pt.guesswork_rank for pt in points])
    order = np.argsort(levels)
    query = np.atleast_1d(np.asarray(-np.asarray(log_prob, dtype=np.float64)))
    return np.interp(query, levels[order], log_ranks[order])

"""Information measures of categorical string-sources, all in nats.

Every measure is computed once at the per-symbol level and scaled by the
string length n, which is exact for i.i.d. sources.  Cross measures follow
the convention cross_entropy(rho, mu) = expectation under rho of -log mu;
callers comparing against texts that write the arguments the other way
around must swap them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AlphabetMismatch, InvalidInput
from .numeric import log_sum_exp
from .sources import (
    CategoricalSource,
    SequenceSource,
    _require_categorical,
    _require_real,
    _tilted_thetas,
    string_log_prob,
)


def _require_same_alphabet(rho: CategoricalSource, mu: CategoricalSource) -> None:
    if rho.alphabet != mu.alphabet:
        raise AlphabetMismatch("sources are defined on different alphabets")


def information(source: SequenceSource, x) -> float:
    """Negative log probability of the string, in nats."""
    return -string_log_prob(source, x)


def entropy(source: CategoricalSource, n: int = 1) -> float:
    """n times the per-symbol Shannon entropy: the source's cross entropy
    against itself."""
    return n * cross_entropy(source, source)


def varentropy(source: CategoricalSource, n: int = 1) -> float:
    """n times the per-symbol variance of -log theta: the source's cross
    varentropy against itself."""
    return n * cross_varentropy(source, source)


def cross_entropy(rho: CategoricalSource, mu: CategoricalSource, n: int = 1) -> float:
    """n times the expectation under rho of -log mu."""
    p, _, lq = _on_support(rho, mu)
    return float(_cross_entropy(p, lq, n))


def cross_varentropy(rho: CategoricalSource, mu: CategoricalSource, n: int = 1) -> float:
    """n times the variance under rho of -log mu."""
    p, _, lq = _on_support(rho, mu)
    return float(_cross_varentropy(p, lq, n))


def relative_entropy(rho: CategoricalSource, mu: CategoricalSource, n: int = 1) -> float:
    """n times the KL divergence of rho from mu; zero iff the vectors agree."""
    return float(_relative_entropy(*_on_support(rho, mu), n))


def _on_support(rho: CategoricalSource, mu: CategoricalSource):
    """rho's probabilities, rho's log-probs and mu's log-probs where rho > 0."""
    _require_categorical("an information measure", rho, mu)
    _require_same_alphabet(rho, mu)
    support = rho.theta > 0
    return rho.theta[support], rho.log_theta[support], mu.log_theta[support]


def _tilted_rows(source: CategoricalSource, alphas: np.ndarray):
    """`_on_support(tilt(source, alpha), source)` at many orders at once, in
    groups for the measures below: yields (rows, p, lp, lq), rows indexing
    `alphas`.

    The orders whose tilt is positive on every symbol form one group of 2-D
    p and lp, a row per order, with the source's log-probs as lq.  Each other
    order comes alone with its arrays restricted to the tilt's support, as
    `_on_support` gives them: a dot product blocks its sum by the vector's
    length, so a row summed with its zero entries in place would round
    differently.
    """
    thetas = _tilted_thetas(source, alphas)
    full = (thetas > 0).all(axis=1)
    p = thetas[full]
    yield np.flatnonzero(full), p, np.log(p), source.log_theta
    for i in np.flatnonzero(~full).tolist():
        support = thetas[i] > 0
        p = thetas[i][support]
        yield i, p, np.log(p), source.log_theta[support]


# The cross measures on arrays restricted to rho's support, for callers that
# hold arrays rather than sources.  Two producers make the arrays:
# `_on_support` for one pair of sources, `_tilted_rows` for a grid of a
# source's tilts.  p = rho's probabilities, lp = rho's log-probs, lq = mu's
# log-probs.  On 2-D p (and lp) each row is one distribution, and the sums
# run one BLAS dot per row (`np.vecdot`), the dot `np.dot` runs on a vector.

def _cross_entropy(p: np.ndarray, lq: np.ndarray, n: int = 1) -> np.ndarray:
    return -n * np.vecdot(p, lq)


def _cross_varentropy(p: np.ndarray, lq: np.ndarray, n: int = 1) -> np.ndarray:
    return n * np.vecdot(p, (lq + _cross_entropy(p, lq)[..., None]) ** 2)


def _relative_entropy(p: np.ndarray, lp: np.ndarray, lq: np.ndarray, n: int = 1) -> np.ndarray:
    # non-negative by Gibbs' inequality; only float rounding can dip below
    return n * np.maximum(np.vecdot(p, lp - lq), 0.0)


def renyi_entropy(mu: CategoricalSource, alpha: float, n: int = 1) -> float:
    """n/(1-alpha) times log sum theta^alpha, via log-sum-exp.

    The removable singularity at alpha=1 is filled with the Shannon entropy
    (orders within 1e-9 of 1 are treated as 1).  Orders close to 1 take an
    expm1/log1p path: the direct formula divides a fully cancelled log by
    (1-alpha), and the storage-level deviation of sum(theta) from 1 would
    otherwise surface as a spurious pole.
    """
    _require_categorical("renyi_entropy", mu)
    alpha = _require_real(alpha, "alpha")
    if not math.isfinite(alpha):
        raise InvalidInput(f"tilt order {alpha} must be finite")
    if abs(1.0 - alpha) < 1e-9:
        return entropy(mu, n)
    if abs(1.0 - alpha) < 1e-3:
        support = mu.theta > 0
        p = mu.theta[support]
        lp = mu.log_theta[support]
        s = math.fsum(p)
        d = math.fsum(pi * math.expm1((alpha - 1.0) * li) for pi, li in zip(p, lp))
        return n * (math.log(s) + math.log1p(d / s) / (1.0 - alpha))
    return n / (1.0 - alpha) * log_sum_exp(alpha * mu.log_theta)


@dataclass(frozen=True)
class MeasureBundle:
    """All measures of a pair (rho, mu) at string length n, in nats / nats^2."""

    n: int
    entropy: float
    varentropy: float
    cross_entropy: float
    cross_varentropy: float
    relative_entropy: float

    def as_dict(self) -> dict:
        return {
            "n": self.n,
            "entropy_nats": self.entropy,
            "varentropy_nats2": self.varentropy,
            "cross_entropy_nats": self.cross_entropy,
            "cross_varentropy_nats2": self.cross_varentropy,
            "relative_entropy_nats": self.relative_entropy,
        }


def measure_bundle(rho: CategoricalSource, mu: CategoricalSource, n: int) -> MeasureBundle:
    """Entropy and varentropy of rho plus its cross measures against mu."""
    return MeasureBundle(
        n=n,
        entropy=entropy(rho, n),
        varentropy=varentropy(rho, n),
        cross_entropy=cross_entropy(rho, mu, n),
        cross_varentropy=cross_varentropy(rho, mu, n),
        relative_entropy=relative_entropy(rho, mu, n),
    )

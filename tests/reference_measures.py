"""Reference tilt, moment and spec-normalizer code, kept as a test oracle.

These are the bodies that `measures.entropy`/`varentropy`, the row-wise
tilt `sources._tilted_thetas` and the spec parser's `sources._normalized`
replaced: entropy and varentropy each wrote the moment sums out with one
`np.dot` per vector, the tilt was computed one order at a time, and the
parser had one normalizer for vectors and one for matrices of rows.  The
library must return the same floats, bit for bit.
"""
import math

import numpy as np

from tiltlab.errors import SourceSpecError
from tiltlab.measures import _require_same_alphabet
from tiltlab.sources import ASSUMPTION_TOL, CategoricalSource


def log_sum_exp(values: np.ndarray) -> float:
    m = float(values.max())
    if not math.isfinite(m):
        return m
    return m + float(np.log(np.exp(values - m).sum()))


def tilted_theta(source: CategoricalSource, alpha: float) -> np.ndarray:
    """The order-alpha tilt's probabilities, one order at a time."""
    k = len(source.alphabet)
    if alpha == 1.0:
        return source.theta
    if alpha == 0.0:
        return np.full(k, 1.0 / k)
    lt = alpha * source.log_theta
    return np.exp(lt - log_sum_exp(lt))


def tilt(source: CategoricalSource, alpha: float) -> CategoricalSource:
    alpha = float(alpha)
    if alpha == 1.0:
        return source
    return CategoricalSource(source.alphabet, tilted_theta(source, alpha))


def entropy(source: CategoricalSource, n: int = 1) -> float:
    theta = source.theta
    support = theta > 0
    h1 = -float(np.dot(theta[support], source.log_theta[support]))
    return n * h1


def varentropy(source: CategoricalSource, n: int = 1) -> float:
    theta = source.theta
    support = theta > 0
    p = theta[support]
    lp = source.log_theta[support]
    h1 = -float(np.dot(p, lp))
    v1 = float(np.dot(p, (lp + h1) ** 2))
    return n * v1


def cross_entropy(rho: CategoricalSource, mu: CategoricalSource, n: int = 1) -> float:
    _require_same_alphabet(rho, mu)
    support = rho.theta > 0
    return -n * float(np.dot(rho.theta[support], mu.log_theta[support]))


def cross_varentropy(rho: CategoricalSource, mu: CategoricalSource, n: int = 1) -> float:
    _require_same_alphabet(rho, mu)
    support = rho.theta > 0
    p = rho.theta[support]
    lq = mu.log_theta[support]
    hx1 = -float(np.dot(p, lq))
    return n * float(np.dot(p, (lq + hx1) ** 2))


def relative_entropy(rho: CategoricalSource, mu: CategoricalSource, n: int = 1) -> float:
    _require_same_alphabet(rho, mu)
    support = rho.theta > 0
    p = rho.theta[support]
    return n * max(float(np.dot(p, rho.log_theta[support] - mu.log_theta[support])), 0.0)


def iid_approx_level(tilted: CategoricalSource, source: CategoricalSource, n: int) -> float:
    """The i.i.d. cross-entropy level `approx_pmf_curve` wrote out."""
    return -n * float(np.dot(tilted.theta, source.log_theta))


def _normalized_vector(values, what: str) -> np.ndarray:
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1 or v.size == 0 or not np.all(np.isfinite(v)) or np.any(v < 0):
        raise SourceSpecError(f"{what} must be a list of non-negative decimals")
    s = float(v.sum())
    if abs(s - 1.0) > ASSUMPTION_TOL:
        raise SourceSpecError(
            f"{what} sums to {s!r}; more than {ASSUMPTION_TOL} away from 1"
        )
    return v / s


def _normalized_rows(values, what: str) -> np.ndarray:
    m = np.asarray(values, dtype=np.float64)
    if m.ndim != 2 or not np.all(np.isfinite(m)) or np.any(m < 0):
        raise SourceSpecError(f"{what} must be a matrix of non-negative decimals")
    sums = m.sum(axis=1)
    if np.any(np.abs(sums - 1.0) > ASSUMPTION_TOL):
        raise SourceSpecError(
            f"{what} has a row more than {ASSUMPTION_TOL} away from summing to 1"
        )
    return m / sums[:, None]

"""Reference word-level tilt sweep: the per-order loop that
`approx._tilted_word_stats` replaced, kept as a test oracle.

Every order allocates its own arrays: the products alpha * logp, their
log-sum-exp (whose max scans the products), the tilted log-probs and their
exponentials, and a fresh negation of the log-probs for the level.  The
two-buffer sweep must give the same floats, bit for bit.
"""
import numpy as np


def log_sum_exp(values: np.ndarray) -> float:
    """`numeric.log_sum_exp` as the old sweep called it."""
    values = np.asarray(values, dtype=np.float64)
    m = float(np.max(values))
    if not np.isfinite(m):
        return m
    return m + float(np.log(np.sum(np.exp(values - m))))


def reference_tilted_word_stats(logp: np.ndarray, grid: np.ndarray):
    """(cross-entropy level, entropy, varentropy) of each alpha-tilt of the
    word distribution of an enumerated word log-prob vector."""
    support = np.isfinite(logp)
    full = bool(support.all())
    if not full and np.any(grid < 0):
        raise ValueError("negative tilt orders need a full-support word distribution")
    base = logp if full else logp[support]
    for alpha in grid.tolist():
        w = alpha * base
        w = w - log_sum_exp(w)
        pw = np.exp(w)
        level = float(np.dot(pw, -base))
        h = float(np.dot(pw, -w))
        v = float(np.dot(pw, (w + h) ** 2))
        yield level, h, v

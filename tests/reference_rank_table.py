"""Reference rank-table build: per-string symbol counts and a float sort.

This is the straightforward build the type-class engine replaced, kept as a
test oracle for full-support sources.  i.i.d. log-probs come from a count
matrix over every string; the rank order is a stable argsort on the
log-probs, with groups of near-equal values re-sorted lexicographically by
`lexsort`.
"""
import numpy as np

from tiltlab.guesswork import TIE_TOL_PER_SYMBOL
from tiltlab.sources import CategoricalSource, enumerate_word_log_probs


def reference_word_log_probs(source, n):
    """Log-prob of every length-n string in lexicographic order."""
    if not isinstance(source, CategoricalSource):
        return enumerate_word_log_probs(source, n)
    k = len(source.alphabet)
    total = k**n
    counts = np.zeros((k, total), dtype=np.uint16)
    rem = np.arange(total, dtype=np.int64)
    for _ in range(n):
        rem, digit = np.divmod(rem, k)
        for i in range(k):
            counts[i] += digit == i
    logp = np.zeros(total)
    for i in range(k):
        logp += counts[i] * source.log_theta[i]
    return logp


def reference_tie_groups(sorted_logp, tie_tol):
    """Group id per rank position, by chaining gaps of at most tie_tol."""
    starts = np.empty(sorted_logp.size, dtype=bool)
    starts[0] = True
    with np.errstate(invalid="ignore"):
        np.greater(sorted_logp[:-1] - sorted_logp[1:], tie_tol, out=starts[1:])
    return np.cumsum(starts)


def reference_rank_order(logp, tie_tol):
    """Lexicographic indices sorted by (-log-prob, lex index) within tie groups."""
    sorted_idx = np.argsort(-logp, kind="stable")
    group = reference_tie_groups(logp[sorted_idx], tie_tol)
    return sorted_idx[np.lexsort((sorted_idx, group))]


def reference_rank_table(source, n):
    """(log_probs, order, rank_of, tie_groups) as the reference build gives them."""
    tol = TIE_TOL_PER_SYMBOL * n
    logp = reference_word_log_probs(source, n)
    order = reference_rank_order(logp, tol)
    rank_of = np.empty(logp.size, dtype=np.int64)
    rank_of[order] = np.arange(1, logp.size + 1)
    return logp, order, rank_of, reference_tie_groups(logp[order], tol)

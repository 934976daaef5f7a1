"""Reference chain likelihoods, kept as test oracles.

`reference_markov_word_log_probs` is the Markov enumeration before prefix
blocks: every length-n word in lexicographic order, one whole level at a
time.  The block driver must give the same floats, bit for bit.

The two hidden-Markov forward recursions are the ones `sources._hmm_forward`
replaced.  `reference_hmm_word_log_probs` is the old enumeration branch: every
length-n word in lexicographic order, one scaled forward vector per prefix,
with the first level written out before the loop.  `reference_hmm_log_prob`
is the old per-string recursion over a 1-D forward vector, which returns
-inf as soon as a prefix has probability 0.  The shared recursion must give
the same floats, bit for bit.

`reference_word_levels` is the old level index of a chain table: `np.unique`
on the int64 views of the enumerated log-probs.
"""
import numpy as np


def reference_markov_word_log_probs(source, n):
    """Log-prob of every length-n word of a Markov source: each level adds to
    every prefix's log-prob the log-prob of each symbol, the start
    distribution's at the first level, after that the transition row of the
    prefix's last symbol."""
    with np.errstate(divide="ignore"):
        rows = np.log(source.initial)[None, :]  # the next symbol's log-probs
        log_t = np.log(source.transition)
    logp = np.zeros((1, 1))  # prefixes x the symbols of their last level
    for _ in range(n):
        logp = logp[:, :, None] + rows
        logp = logp.reshape(-1, logp.shape[-1])
        rows = log_t
    return logp.reshape(-1)


def reference_hmm_word_log_probs(source, n):
    """Log-prob of every length-n word of a hidden Markov source."""
    k = len(source.alphabet)
    emission_t = source.emission.T  # (symbols, states)
    forward = source.initial[None, :] * emission_t
    scale = forward.sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        logp = np.where(scale > 0, np.log(np.where(scale > 0, scale, 1.0)), -np.inf)
    forward = forward / np.where(scale > 0, scale, 1.0)[:, None]
    for _ in range(n - 1):
        propagated = forward @ source.transition  # (prefixes, states)
        forward = (propagated[:, None, :] * emission_t[None, :, :]).reshape(
            -1, source.n_states
        )
        logp = np.repeat(logp, k)
        scale = forward.sum(axis=1)
        safe = np.where(scale > 0, scale, 1.0)
        with np.errstate(divide="ignore"):
            logp = logp + np.where(scale > 0, np.log(safe), -np.inf)
        forward = forward / safe[:, None]
    return logp


def reference_hmm_log_prob(source, x):
    """Log-prob of one string (a sequence of symbols) of a hidden Markov source."""
    idx = source.alphabet.encode(x)
    forward = source.initial * source.emission[:, idx[0]]
    lp = 0.0
    for j in idx[1:]:
        total = float(forward.sum())
        if total <= 0.0:
            return -np.inf
        lp += np.log(total)
        forward = (forward / total) @ source.transition * source.emission[:, j]
    total = float(forward.sum())
    if total <= 0.0:
        return -np.inf
    return lp + float(np.log(total))


def reference_word_levels(logp):
    """(levels, level_of) of enumerated log-probs: the distinct bit patterns,
    ascending as int64, and each word's index among them in the smallest
    integer type."""
    bits, level_of = np.unique(logp.view(np.int64), return_inverse=True)
    return bits.view(np.float64), level_of.astype(np.min_scalar_type(bits.size - 1))

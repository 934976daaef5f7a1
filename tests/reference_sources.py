"""Reference chain likelihoods, kept as test oracles.

`reference_markov_word_log_probs` is the Markov enumeration before prefix
blocks: every length-n word in lexicographic order, one whole level at a
time.  The state table must give the same floats, bit for bit.

`reference_hmm_word_log_probs` is the hidden-Markov enumeration that
`sources._hmm_forward` replaced: every length-n word in lexicographic order,
one scaled forward vector per prefix, with the first level written out
before the loop; `reference_hmm_prefixes` also returns those vectors, and
`reference_hmm_entries` reads one string's entry.  The shared recursion must
give the same floats, bit for bit, to words and to single strings.

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
    return reference_hmm_prefixes(source, n)[0]


def reference_hmm_prefixes(source, n):
    """(log-probs, normalized forward vectors) of every length-n word of a
    hidden Markov source."""
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
    return logp, forward


def reference_hmm_entries(source, strings):
    """The entries of `reference_hmm_word_log_probs` at the given strings,
    each enumerated at its own length once."""
    k, words = len(source.alphabet), {}
    entries = []
    for x in strings:
        idx = source.alphabet.encode(x)
        if idx.size not in words:
            words[idx.size] = reference_hmm_word_log_probs(source, idx.size)
        entries.append(words[idx.size][np.ravel_multi_index(idx, (k,) * idx.size)])
    return np.array(entries)


def reference_word_levels(logp):
    """(levels, level_of) of enumerated log-probs: the distinct bit patterns,
    ascending as int64, and each word's index among them in the smallest
    integer type."""
    bits, level_of = np.unique(logp.view(np.int64), return_inverse=True)
    return bits.view(np.float64), level_of.astype(np.min_scalar_type(bits.size - 1))

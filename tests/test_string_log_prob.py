"""`string_log_prob` against the enumerated rank table, bit for bit.

Every string's log-prob must be the one `build_rank_table` stores for it:
the type-class sum for i.i.d. sources, the forward recursions for Markov and
hidden Markov sources.
"""
import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import tiltlab as tl

from conftest import random_hmm, random_markov

#: (shipped source, largest n); every string of every length up to n is checked
SHIPPED = (("s2", 8), ("s3", 8), ("s3_markov", 8), ("s3_hmm", 8), ("s77_sample", 2))

#: strings drawn from the 77^3 of `s77_sample` at n = 3
S77_SAMPLE = 3000

#: largest table a drawn source builds
MAX_STRINGS = 1024

#: relative distance allowed between a random hidden Markov string's two log-probs
HMM_RTOL = 1e-15


def as_bits(values):
    return np.asarray(values, dtype=np.float64).view(np.int64)


def assert_table_bits(source, n, words=None):
    """string_log_prob(x) has the bits of the table entry at index_of(x) for
    every word (all |alphabet|^n when None), each a tuple of symbols."""
    table = tl.build_rank_table(source, n)
    if words is None:
        words = itertools.product(source.alphabet.symbols, repeat=n)
    words = list(words)
    got = as_bits([tl.string_log_prob(source, w) for w in words])
    want = as_bits(table.log_probs[[table.index_of(w) for w in words]])
    differ = np.flatnonzero(got != want)
    assert differ.size == 0, (
        f"{differ.size} of {len(words)} strings differ, first {''.join(words[differ[0]])}"
    )


@pytest.mark.parametrize("name, n_max", SHIPPED, ids=[name for name, _ in SHIPPED])
def test_shipped_strings_match_the_table(name, n_max):
    source = tl.load_source(tl.builtin_spec_path(name))
    for n in range(1, n_max + 1):
        assert_table_bits(source, n)


def test_s77_sample_strings_match_the_table():
    source = tl.load_source(tl.builtin_spec_path("s77_sample"))
    rng = np.random.default_rng(77)
    symbols = np.array(source.alphabet.symbols)
    words = [tuple(w) for w in symbols[rng.integers(0, len(symbols), (S77_SAMPLE, 3))]]
    assert_table_bits(source, 3, words)


@st.composite
def iid_with_zeros(draw):
    """An i.i.d. source whose probabilities may be 0, and a length n."""
    k = draw(st.integers(2, 5))
    raw = draw(
        st.lists(
            st.one_of(st.just(0.0), st.floats(1e-3, 1.0)), min_size=k, max_size=k
        )
    )
    assume(sum(raw) > 0)
    theta = np.asarray(raw) / sum(raw)
    n = draw(st.integers(1, int(np.log(MAX_STRINGS) / np.log(k))))
    return tl.CategoricalSource(tl.letters(k), theta), n


@settings(max_examples=80, deadline=None)
@given(iid_with_zeros())
def test_drawn_iid_strings_match_the_table(query):
    source, n = query
    assert_table_bits(source, n)


def chain_lengths(source):
    k = len(source.alphabet)
    return range(1, int(np.log(MAX_STRINGS / 4) / np.log(k)) + 1)


@pytest.mark.parametrize("seed", range(12))
def test_random_markov_strings_match_the_table(seed):
    source = random_markov(seed)
    for n in chain_lengths(source):
        assert_table_bits(source, n)


@pytest.mark.parametrize("seed", range(12))
def test_random_hmm_strings_match_the_table_to_the_last_bits(seed):
    """Not bit for bit: with many hidden states the per-string recursion sums
    its one forward row pairwise and propagates it by a BLAS vector-matrix
    product, where the enumeration sums a strided first level and propagates
    all prefixes by a matrix product.  Each path is pinned to its own oracle
    in test_source_rules.py; the shipped 2-state s3_hmm agrees exactly."""
    source = random_hmm(seed)
    for n in chain_lengths(source):
        table = tl.build_rank_table(source, n)
        words = itertools.product(source.alphabet.symbols, repeat=n)
        got = np.array([tl.string_log_prob(source, w) for w in words])
        np.testing.assert_array_equal(np.isfinite(got), np.isfinite(table.log_probs))
        finite = np.isfinite(got)
        np.testing.assert_allclose(
            got[finite], table.log_probs[finite], rtol=HMM_RTOL, atol=0
        )

"""The chain rank-table kernels keep every bit.

`_hmm_forward` sums each product over the states as column adds below 8
states and by numpy's row sum from 8 on; both must give the old
recursions' floats, bit for bit, at every block height.  `_rank_order`
sorts a key of more than 16 bits (more than 65,535 tie groups) as one
packed int64 per string; the order must be the stable argsort's and the
reference build's, and the packed key must fit int64 wherever it is used.
"""
import itertools

import numpy as np
import pytest

import tiltlab as tl
from tiltlab import guesswork as gw
from tiltlab import sources

from conftest import _stochastic
from reference_rank_table import reference_rank_order, reference_rank_table
from reference_sources import (
    reference_hmm_log_prob,
    reference_hmm_word_log_probs,
    reference_word_levels,
)
from test_table_bytes import BLOCKS, bits, block_words

#: hidden states of the drawn chains: either side of the 8-state rule
STATES = (1, 2, 3, 7, 8, 12)

#: largest n of the word checks: 3^7 = 2187 words
N_MAX = 7

#: tie groups past which `_rank_order` packs its key
RADIX_GROUPS = 2**16 - 1


def hmm_with_states(states, seed):
    """A hidden chain over 3 symbols with the given number of states, about a
    third of every array zero."""
    rng = np.random.default_rng([states, seed])
    return tl.HiddenMarkovSource(
        tl.letters(3),
        _stochastic(rng, states, states),
        _stochastic(rng, states, 3),
        _stochastic(rng, 1, states)[0],
    )


@pytest.mark.parametrize("block", BLOCKS, ids=lambda b: f"block-{b or 'k'}")
@pytest.mark.parametrize("states", STATES, ids=lambda s: f"{s}-states")
def test_state_sums_keep_the_reference_word_bits(states, block, monkeypatch):
    for seed in range(3):
        source = hmm_with_states(states, seed)
        monkeypatch.setattr(sources, "_BLOCK", block_words(block, 3))
        for n in range(1, N_MAX + 1):
            got = bits(tl.enumerate_word_log_probs(source, n))
            np.testing.assert_array_equal(got, bits(reference_hmm_word_log_probs(source, n)))


@pytest.mark.parametrize("states", STATES, ids=lambda s: f"{s}-states")
def test_state_sums_keep_the_reference_string_bits(states):
    rng = np.random.default_rng(states)
    for seed in range(3):
        source = hmm_with_states(states, seed)
        words = list(itertools.product("abc", repeat=4))
        words += ["".join(rng.choice(list("abc"), rng.integers(1, 16))) for _ in range(40)]
        got = bits([tl.string_log_prob(source, x) for x in words])
        want = bits([reference_hmm_log_prob(source, x) for x in words])
        np.testing.assert_array_equal(got, want)


def group_key(levels, level_of, tie_tol):
    """Each string's tie-group id, as `_rank_order` forms it."""
    by_level = np.argsort(-levels)
    ids = gw._tie_group_ids(levels[by_level], tie_tol)
    group = np.empty(levels.size, dtype=ids.dtype)
    group[by_level] = ids
    return group[level_of]


@pytest.fixture(scope="module")
def wide_table():
    """(levels, level_of, tie_tol) with about 70,000 tie groups: levels spaced
    far wider than the tolerance, runs of near-tied levels that chain into
    one group, and shuffled strings, most levels held by several."""
    rng = np.random.default_rng(29)
    tie_tol = 1e-11
    levels = -np.cumsum(rng.uniform(1e-6, 1e-5, 70_500))
    for start in rng.choice(levels.size - 3, 200, replace=False):
        levels[start + 1 : start + 4] = levels[start] - tie_tol * np.array([0.6, 1.2, 1.8])
    rng.shuffle(levels)
    level_of = np.concatenate([np.arange(levels.size), rng.integers(0, levels.size, 130_000)])
    rng.shuffle(level_of)
    return levels, level_of.astype(np.min_scalar_type(levels.size - 1)), tie_tol


def test_a_wide_key_sorts_as_the_stable_argsort(wide_table):
    levels, level_of, tie_tol = wide_table
    key = group_key(levels, level_of, tie_tol)
    assert RADIX_GROUPS < key.max() < levels.size - 100  # packed, and chained
    order = gw._rank_order(levels, level_of, tie_tol)
    np.testing.assert_array_equal(order, np.argsort(key, kind="stable"))
    np.testing.assert_array_equal(order, reference_rank_order(levels[level_of], tie_tol))


def test_past_the_packed_bound_the_stable_argsort_gives_the_same_order(wide_table, monkeypatch):
    levels, level_of, tie_tol = wide_table
    packed = gw._rank_order(levels, level_of, tie_tol)
    monkeypatch.setattr(gw, "_index_bits", lambda size: None)
    np.testing.assert_array_equal(gw._rank_order(levels, level_of, tie_tol), packed)


def test_a_hidden_chain_with_all_words_distinct_keeps_the_reference_table():
    rng = np.random.default_rng(11)
    rows = lambda: rng.dirichlet(np.ones(3), 3) * 0.97 + 0.01  # noqa: E731
    source = tl.HiddenMarkovSource(tl.letters(3), rows(), rows(), np.ones(3) / 3)
    n = 11
    table = gw.build_rank_table(source, n)
    logp, order, _, tie_groups = reference_rank_table(source, n)
    levels, level_of = reference_word_levels(logp)
    assert levels.size == 3**n and tie_groups.max() > RADIX_GROUPS
    np.testing.assert_array_equal(table.order, order)
    np.testing.assert_array_equal(bits(table.levels), bits(levels))
    np.testing.assert_array_equal(table.level_of, level_of)
    assert table.level_of.dtype == level_of.dtype


def test_the_order_is_intp_on_both_paths(s3, wide_table):
    levels, level_of, tie_tol = wide_table
    assert gw._rank_order(levels, level_of, tie_tol).dtype == np.intp
    radix = gw.build_rank_table(s3, 6)
    assert radix.levels.size <= RADIX_GROUPS
    assert radix.order.dtype == np.intp


@pytest.mark.parametrize("size", [2, 3, 2**16, 2**20 + 1, 2**31 - 1, 2**31])
def test_the_packed_key_fits_int64_up_to_2_to_the_31_strings(size):
    b = gw._index_bits(size)
    assert (size - 1) >> b == 0  # every index fits its b bits
    largest = (size << b) | (size - 1)  # a group id is at most the number of strings
    assert largest < 2**63


@pytest.mark.parametrize("size", [2**31 + 1, 2**32, 2**40])
def test_past_2_to_the_31_strings_the_key_is_not_packed(size):
    assert gw._index_bits(size) is None

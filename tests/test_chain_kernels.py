"""The chain rank-table kernels keep every bit.

`_hmm_forward` sums each product over the states as column adds below 8
states and by numpy's row sum from 8 on; both must give the old
recursions' floats, bit for bit, at every block height.  `_rank_order`
sorts one packed key per string, `(group << b) | index`, in uint32 or
uint64; for group ids of 8, 16 and more than 16 bits the order must be the
stable argsort's and the reference build's, and every table's order is
uint32.  Past 2^31 strings no table is built.
"""
import itertools
from types import SimpleNamespace

import numpy as np
import pytest

import tiltlab as tl
from tiltlab import guesswork as gw
from tiltlab import sources
from tiltlab.errors import BudgetExceeded

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

#: tie groups past which a group id takes more than 16 bits
WIDE_GROUPS = 2**16 - 1


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


def chained_runs(n_levels):
    return n_levels // 350 + 1


def shuffled_table(n_levels, extra, seed):
    """(levels, level_of, tie_tol): `n_levels` levels spaced far wider than
    the tolerance, with runs of near-tied levels that chain into one group,
    held by `n_levels + extra` shuffled strings, each level at least once."""
    rng = np.random.default_rng(seed)
    tie_tol = 1e-11
    levels = -np.cumsum(rng.uniform(1e-6, 1e-5, n_levels))
    for start in rng.choice(n_levels - 3, chained_runs(n_levels), replace=False):
        levels[start + 1 : start + 4] = levels[start] - tie_tol * np.array([0.6, 1.2, 1.8])
    rng.shuffle(levels)
    level_of = np.concatenate([np.arange(n_levels), rng.integers(0, n_levels, extra)])
    rng.shuffle(level_of)
    return levels, level_of.astype(np.min_scalar_type(n_levels - 1)), tie_tol


#: (levels, extra strings, bits of the packed key) of the sort checks: group
#: ids of 8 bits, of 16 bits in a uint32 key of 32 bits and a uint64 key of
#: 33, and of 17 bits
KEYS = {
    "8-bit": (250, 99_750, 17 + 8),
    "16-bit-uint32": (60_000, 5_536, 16 + 16),
    "16-bit-uint64": (60_000, 70_000, 17 + 16),
    "17-bit": (70_500, 130_000, 18 + 17),
}


@pytest.mark.parametrize("n_levels, extra, key_bits", KEYS.values(), ids=KEYS.keys())
def test_every_key_width_sorts_as_the_stable_argsort(n_levels, extra, key_bits):
    levels, level_of, tie_tol = shuffled_table(n_levels, extra, seed=n_levels + extra)
    key = group_key(levels, level_of, tie_tol)
    assert key.max() < n_levels - chained_runs(n_levels)  # chained
    assert (level_of.size - 1).bit_length() + int(key.max()).bit_length() == key_bits
    order = gw._rank_order(levels, level_of, tie_tol)
    assert order.dtype == np.uint32
    np.testing.assert_array_equal(order, np.argsort(key, kind="stable"))
    np.testing.assert_array_equal(order, reference_rank_order(levels[level_of], tie_tol))


def test_a_hidden_chain_with_all_words_distinct_keeps_the_reference_table():
    rng = np.random.default_rng(11)
    rows = lambda: rng.dirichlet(np.ones(3), 3) * 0.97 + 0.01  # noqa: E731
    source = tl.HiddenMarkovSource(tl.letters(3), rows(), rows(), np.ones(3) / 3)
    n = 11
    table = gw.build_rank_table(source, n)
    logp, order, _, tie_groups = reference_rank_table(source, n)
    levels, level_of = reference_word_levels(logp)
    assert levels.size == 3**n and tie_groups.max() > WIDE_GROUPS
    np.testing.assert_array_equal(table.order, order)
    np.testing.assert_array_equal(bits(table.levels), bits(levels))
    np.testing.assert_array_equal(table.level_of, level_of)
    assert table.level_of.dtype == level_of.dtype


@pytest.mark.parametrize(
    "name, n", [("s3", 6), ("s3_markov", 6), ("s3_hmm", 6), ("s77_sample", 2)]
)
def test_the_order_is_uint32(name, n):
    table = gw.build_rank_table(tl.load_source(tl.builtin_spec_path(name)), n)
    assert table.order.dtype == np.uint32
    assert table.rank_of.dtype == np.int64


def test_past_2_to_the_31_strings_no_table_is_built(monkeypatch):
    """The cap is arithmetic on k^n: nothing is enumerated or allocated."""
    def no_enumeration(*args):
        raise AssertionError("enumerated")

    monkeypatch.setattr(sources, "_word_levels", no_enumeration)
    two = tl.CategoricalSource(tl.letters(2), [0.5, 0.5])
    for source, n in [(SimpleNamespace(alphabet=range(2**31 + 1)), 1), (two, 32)]:
        with pytest.raises(BudgetExceeded, match=r"exceed 2\^31, the most a rank table holds"):
            gw.build_rank_table(source, n, budget=2**40)
    with pytest.raises(AssertionError, match="enumerated"):  # 2^31 strings pass the cap
        gw.build_rank_table(two, 31, budget=2**40)

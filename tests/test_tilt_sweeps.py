"""Tilt-order sweeps without per-order allocation: the two-buffer word-level
sweep against the per-order loop it replaced, bit for bit; the half-table
string decoder."""
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tiltlab as tl
from tiltlab import guesswork as gw
from tiltlab.approx import _tilted_word_stats
from tiltlab.errors import OutOfRange

from conftest import random_hmm, random_markov
from reference_word_sweep import reference_tilted_word_stats


def as_bits(values):
    return np.asarray(values, dtype=np.float64).view(np.int64).tolist()


def assert_sweep_bits(logp, grid):
    """The sweep gives the reference bits at every order whose reference point
    is finite and raises OutOfRange at every other order; the reference
    points are returned."""
    grid = np.asarray(grid, dtype=np.float64)
    expected = list(reference_tilted_word_stats(logp, grid))
    finite = np.isfinite(np.array(expected)).all(axis=1)
    got = list(_tilted_word_stats(logp, grid[finite]))
    assert as_bits(got) == as_bits([point for point, f in zip(expected, finite) if f])
    for alpha in grid[~finite]:
        with pytest.raises(OutOfRange, match="overflows the tilted word log-probs"):
            list(_tilted_word_stats(logp, np.array([alpha])))
    return expected


@pytest.mark.parametrize("name", ["s3_markov", "s3_hmm"])
def test_shipped_word_sweeps_match_reference_bits(name, request):
    source = request.getfixturevalue(name)
    for n in range(1, 11):
        assert_sweep_bits(tl.enumerate_word_log_probs(source, n), tl.default_alpha_grid())


NONZERO_ORDERS = st.floats(-1e4, 1e4, allow_nan=False).filter(lambda a: a != 0.0)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from([random_markov, random_hmm]),
    st.lists(NONZERO_ORDERS, min_size=1, max_size=12),
)
def test_random_word_sweeps_match_reference_bits(seed, chain, orders):
    source = chain(seed)
    logp = tl.enumerate_word_log_probs(source, 5 if len(source.alphabet) < 4 else 4)
    if np.isfinite(logp).all():
        grid = orders
    else:  # zero-probability words: the sweep takes positive orders only
        grid = [abs(a) for a in orders]
        with pytest.raises(ValueError, match="full-support"):
            list(_tilted_word_stats(logp, np.asarray([-1.0] + grid)))
    assert_sweep_bits(logp, grid)


@pytest.mark.parametrize("grid", [[-1.0, 1.0], [-20.0, 1e-2], [-1e-14, 1e-14], [-5e-324, 5e-324]])
def test_one_order_per_sign(s3_hmm, grid):
    assert_sweep_bits(tl.enumerate_word_log_probs(s3_hmm, 6), grid)


# the reference sweep warns of the overflow
@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
def test_orders_whose_products_overflow(s3_markov):
    # alpha * max log-prob is -inf for alpha > 0 (and alpha * min is +inf for
    # alpha < 0) once |alpha| passes about 1e307
    logp = tl.enumerate_word_log_probs(s3_markov, 6)
    grid = [-1e308, -1e306, -1e300, 1e300, 1e306, 1e308]
    assert not np.isfinite(1e308 * logp.max()) and not np.isfinite(-1e308 * logp.min())
    stats = assert_sweep_bits(logp, grid)
    assert np.isnan(stats[0]).all() and np.isnan(stats[-1]).all()


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
def test_zero_probability_words_with_overflowing_orders():
    source = tl.MarkovSource(tl.letters(3), [[0.5, 0.3, 0.2], [0.0, 0.6, 0.4], [0.3, 0.3, 0.4]],
                             [0.5, 0.3, 0.2])
    logp = tl.enumerate_word_log_probs(source, 6)
    assert not np.isfinite(logp).all()
    assert_sweep_bits(logp, [1e-300, 0.5, 3.0, 1e4, 1e306, 1e308])


def all_strings(symbols, n):
    return ["".join(w) for w in itertools.product(symbols, repeat=n)]


@pytest.mark.parametrize(
    "symbols", [("a", "b"), ("x", "yy", "zzz"), ("a\x00", "b", "\x00\x00"), tuple("abcdefg")]
)
def test_decoded_strings_at_every_index_count(symbols):
    rng = np.random.default_rng(7)
    for n in range(1, 8):
        strings = all_strings(symbols, n)
        size = len(strings)
        for idx in (np.arange(size), rng.permutation(size), rng.integers(0, size, 10),
                    np.array([size - 1]), np.array([], dtype=np.int64)):
            assert gw._decode_strings(symbols, n, idx) == [strings[i] for i in idx]


def test_string_at_decodes_one_index():
    source = tl.CategoricalSource(tl.Alphabet(("p", "q\x00")), [0.3, 0.7])
    table = tl.build_rank_table(source, 12)
    strings = all_strings(source.alphabet.symbols, 12)
    for i in (0, 1, 2047, 2048, 4095):
        assert table.string_at(i) == strings[i]

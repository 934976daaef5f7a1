"""Criteria 6 and 7 read the level runs, not k^n per-rank arrays.

`verify._stitched_log_rank_error` takes each run's error once, from its level
and its tie block's first and last rank, over the runs that meet ranks
8..k^n-8.  It must give the per-rank oracle's float bit for bit on every case
`verify` runs and on drawn i.i.d., Markov and hidden-Markov sources, where a
run or a tie block of several runs can straddle a window edge.
"""
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import tiltlab as tl
from tiltlab import verify
from tiltlab.errors import TiltlabError

from conftest import categorical_sources
from reference_stitched import reference_stitched_log_rank_error

#: (source, n) of every stitched-error case of `verify`, quick and full
VERIFY_CASES = [("s2", 8), ("s2", 16), ("s3", 8), ("s3_markov", 8), ("s3_hmm", 8)]

#: shipped cases whose window edges fall inside a run, inside a tie block of
#: several runs, or between two blocks
EDGE_CASES = [("s2", 6), ("s2", 7), ("s3", 3), ("s3_markov", 5), ("s3_hmm", 3),
              ("s3_hmm", 4), ("s3_hmm", 7), ("s77_sample", 2)]

#: (seed, index, n) of `verify.random_sources` cases whose error changes when
#: the window's first or last rank moves by one (criterion 7's s3_markov and
#: s3_hmm cases change when rank 8 leaves it)
SEEDED_CASES = [(1, 14, 3), (1, 26, 3), (23, 1, 2), (26, 2, 2)]

#: largest table a drawn source builds
MAX_STRINGS = 2000


def shipped(name):
    return tl.load_source(tl.builtin_spec_path(name))


def assert_same_bits(source, n):
    got = verify._stitched_log_rank_error(source, n)
    want = reference_stitched_log_rank_error(source, n)
    assert np.float64(got).view(np.int64) == np.float64(want).view(np.int64), (got, want)


def edge_straddles(table):
    """For the window edges 8 and k^n-8: whether the ranks either side of the
    edge share a run, and whether they share a tie block."""
    ranked, groups, size = table.level_of[table.order], table.tie_groups(), table.size
    return [
        (ranked[lo - 1] == ranked[lo], groups[lo - 1] == groups[lo])
        for lo in (7, size - 8)
    ]


@pytest.mark.parametrize("name, n", VERIFY_CASES + EDGE_CASES)
def test_shipped_cases_give_the_per_rank_bits(name, n):
    assert_same_bits(shipped(name), n)


@pytest.mark.parametrize("seed, index, n", SEEDED_CASES)
def test_seeded_cases_give_the_per_rank_bits(seed, index, n):
    assert_same_bits(verify.random_sources(seed, index + 1)[index], n)


def test_the_edge_cases_straddle_each_window_edge():
    seen = set()
    for name, n in EDGE_CASES + VERIFY_CASES:
        for edge, (run, block) in enumerate(edge_straddles(tl.build_rank_table(shipped(name), n))):
            seen.add((edge, "run" if run else "block" if block else "gap"))
    assert seen >= {(0, "run"), (0, "gap"), (1, "run"), (1, "block"), (1, "gap")}


def drawn_n(draw, k):
    """n with 16 <= k^n <= MAX_STRINGS: the window 8..k^n-8 holds a rank."""
    return draw(st.integers(math.ceil(math.log(16) / math.log(k)),
                            int(math.log(MAX_STRINGS) / math.log(k))))


#: full-support weights: small integers give bit-equal levels across classes
#: and states, floats near-equal ones
weights = st.one_of(st.integers(1, 4).map(float), st.floats(0.05, 1.0))


def stochastic(draw, rows, cols):
    m = np.array([[draw(weights) for _ in range(cols)] for _ in range(rows)])
    return m / m.sum(axis=1, keepdims=True)


@st.composite
def tied_categorical(draw):
    k = draw(st.integers(2, 4))
    source = tl.CategoricalSource(tl.letters(k), stochastic(draw, 1, k)[0])
    try:
        tl.validate(source)  # a unique most and least likely symbol
    except TiltlabError:
        assume(False)
    return source


@st.composite
def markov_sources(draw):
    k = draw(st.integers(2, 3))
    return tl.MarkovSource(tl.letters(k), stochastic(draw, k, k), stochastic(draw, 1, k)[0])


@st.composite
def hmm_sources(draw):
    k, states = draw(st.integers(2, 3)), draw(st.integers(1, 3))
    return tl.HiddenMarkovSource(
        tl.letters(k), stochastic(draw, states, states), stochastic(draw, states, k),
        stochastic(draw, 1, states)[0],
    )


@settings(max_examples=60, deadline=None)
@given(st.data(), st.one_of(categorical_sources(max_size=4), tied_categorical(),
                            markov_sources(), hmm_sources()))
def test_drawn_sources_give_the_per_rank_bits(data, source):
    assert_same_bits(source, drawn_n(data.draw, len(source.alphabet)))


def test_the_error_builds_no_per_rank_array(s2, monkeypatch):
    table = tl.build_rank_table(s2, 20)
    table._level_runs  # the table's run walk, built before the count
    monkeypatch.setattr(tl.guesswork, "build_rank_table", lambda *args: table)
    tracemalloc.start()
    try:
        verify._stitched_log_rank_error(s2, 20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < table.size  # one k^n array of bools would reach it
    assert "log_probs" not in vars(table)  # the i.i.d. sweep reads no word log-probs

import numpy as np
import pytest
from hypothesis import assume
from hypothesis import strategies as st

import tiltlab as tl
from tiltlab.errors import TiltlabError


@pytest.fixture(scope="session")
def s2():
    return tl.load_source(tl.builtin_spec_path("s2"))


@pytest.fixture(scope="session")
def s3():
    return tl.load_source(tl.builtin_spec_path("s3"))


@pytest.fixture(scope="session")
def s3_markov():
    return tl.load_source(tl.builtin_spec_path("s3_markov"))


@pytest.fixture(scope="session")
def s3_hmm():
    return tl.load_source(tl.builtin_spec_path("s3_hmm"))


@st.composite
def categorical_sources(draw, min_size=2, max_size=6):
    """Random sources satisfying the standing assumptions."""
    k = draw(st.integers(min_size, max_size))
    raw = draw(
        st.lists(
            st.floats(min_value=0.05, max_value=1.0, allow_nan=False),
            min_size=k,
            max_size=k,
        )
    )
    theta = np.asarray(raw, dtype=np.float64)
    theta = theta / theta.sum()
    source = tl.CategoricalSource(tl.letters(k), theta)
    try:
        tl.validate(source)
    except TiltlabError:
        assume(False)
    return source


@st.composite
def geometric_sources(draw, drop=True):
    """theta proportional to r^j, each weight nudged by at most a few hundred
    ulps (or not at all) and, with `drop`, some set to 0.

    Classes with equal sums of symbol positions then have levels that are
    equal or a few ulps apart, so their strings tie and interleave in
    lexicographic order, and a class's strings lie in several runs of equal
    levels in rank order; a zero weight gives -inf levels.  Without `drop`
    every source passes `validate`.
    """
    k = draw(st.integers(2, 5))
    r = draw(st.floats(0.2, 0.95))
    nudge = st.sampled_from((0.0, 1e-16, -3e-16, 2e-15, -5e-14))
    weights = np.array([r**j * (1.0 + draw(nudge)) for j in range(k)])
    if drop:
        dropped = draw(st.lists(st.integers(0, k - 1), max_size=k - 1, unique=True))
        weights[dropped] = 0.0
    order = draw(st.permutations(range(k)))
    return tl.CategoricalSource(tl.letters(k), weights[order] / weights.sum())


def _stochastic(rng, rows, cols):
    """A row-stochastic matrix with about a third of its entries zero."""
    m = rng.random((rows, cols)) * (rng.random((rows, cols)) > 0.35)
    m[np.arange(rows), rng.integers(0, cols, rows)] += 0.1
    return m / m.sum(axis=1, keepdims=True)


def random_hmm(seed):
    """2..4 symbols, 1..12 states, about a third of every array zero."""
    rng = np.random.default_rng(seed)
    k, states = int(rng.integers(2, 5)), int(rng.integers(1, 13))
    return tl.HiddenMarkovSource(
        tl.Alphabet(tuple(f"s{i}" for i in range(k))),
        _stochastic(rng, states, states),
        _stochastic(rng, states, k),
        _stochastic(rng, 1, states)[0],
    )


def random_markov(seed):
    """2..4 symbols, about a third of the transitions and starts zero."""
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 5))
    return tl.MarkovSource(
        tl.Alphabet(tuple(f"s{i}" for i in range(k))),
        _stochastic(rng, k, k),
        _stochastic(rng, 1, k)[0],
    )


def all_distinct_hmm():
    """A 3-state hidden chain over 3 symbols, every entry at least 0.01,
    whose words up to n = 12 all have distinct log-probs: no two prefixes
    share a state."""
    rng = np.random.default_rng(11)
    rows = lambda: rng.dirichlet(np.ones(3), 3) * 0.97 + 0.01  # noqa: E731
    return tl.HiddenMarkovSource(tl.letters(3), rows(), rows(), np.ones(3) / 3)

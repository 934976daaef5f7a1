"""Tilt moments read from the tilt's support arrays, against the path that
builds each tilted source and reads the source-level measures.

The oracle below is that path, in the one-order, one-vector reference
bodies of reference_measures.py: `tilt` builds the order-alpha source, and
`cross_entropy`, `entropy` and `varentropy` read it.  The i.i.d. sweep points
and `approx_set_size` must keep its bits (the typical-set bounds are held to
the reference ledger, which builds its tilt the same way, in
test_ledger_oracle.py).  Word-level `word_measures` is the order-1 point of
the word sweep, which sums in another order than the old per-word sums, so
it is held to a relative tolerance.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings

import tiltlab as tl
from tiltlab.errors import DegenerateVariance
from tiltlab.numeric import _exp_or_inf

import reference_measures as ref
from conftest import categorical_sources, random_hmm, random_markov

IID = ("s2", "s3", "s77_sample")

#: tilt orders at the ends of what the sweep and the rate solver reach
EXTREME_ALPHAS = (-1e4, -1e-14, 1e-14, 1e4)

#: relative distance allowed between `word_measures` and the old per-word sums
WORD_MEASURES_RTOL = 1e-14


def shipped(name):
    return tl.load_source(tl.builtin_spec_path(name))


def as_bits(values):
    return np.asarray(values, dtype=np.float64).view(np.int64).tolist()


def grid_with_extremes():
    return np.concatenate([tl.default_alpha_grid(), EXTREME_ALPHAS])


# -- the oracle: build the tilt, then read the source-level measures --------

def oracle_sweep_stats(source, n, alpha):
    tilted = ref.tilt(source, alpha)
    return ref.cross_entropy(tilted, source, n), ref.entropy(tilted, n), ref.varentropy(tilted, n)


def oracle_approx_set_size(source, alpha, epsilon, n):
    tl.validate(source)
    tilted = ref.tilt(source, alpha)
    h = ref.entropy(tilted, n)
    v = ref.varentropy(tilted, n)
    if v <= 1e-12:
        raise DegenerateVariance("tilted varentropy is numerically zero")
    a = abs(alpha) * n * epsilon
    return (1.0 - math.exp(-2.0 * a)) / math.sqrt(2.0 * math.pi * v) * _exp_or_inf(h + a)


def oracle_word_measures(source, n):
    if isinstance(source, tl.CategoricalSource):
        return tl.entropy(source, n), tl.varentropy(source, n)
    logp = tl.enumerate_word_log_probs(source, n)
    support = np.isfinite(logp)
    p = np.exp(logp[support])
    h = float(np.dot(p, -logp[support]))
    v = float(np.dot(p, (logp[support] + h) ** 2))
    return h, v


def outcome(fn, *args):
    """The result's bits, or the error's type."""
    try:
        return as_bits(fn(*args))
    except DegenerateVariance:
        return DegenerateVariance


# -- tests ------------------------------------------------------------------

def assert_sweep_bits(source, n):
    points = tl.approx_pmf_curve(source, n, alpha_grid=grid_with_extremes())
    got = {
        p.alpha: as_bits([p.level_nats, p.tilted_entropy_nats, p.tilted_varentropy_nats2])
        for p in points
    }
    want = {p.alpha: as_bits(oracle_sweep_stats(source, n, p.alpha)) for p in points}
    assert got == want


@pytest.mark.parametrize("name", IID)
@pytest.mark.parametrize("n", [1, 3, 8, 100])
def test_sweep_points_match_the_oracle(name, n):
    assert_sweep_bits(shipped(name), n)


@settings(max_examples=40, deadline=None)
@given(categorical_sources(2, 8))
def test_drawn_sweep_points_match_the_oracle(source):
    assert_sweep_bits(source, 5)


@pytest.mark.parametrize("name", IID)
def test_approx_set_size_matches_the_oracle(name):
    source = shipped(name)
    for alpha in [-3.0, -1.0, -0.25, 0.5, 1.0, 2.0, 20.0, *EXTREME_ALPHAS]:
        for epsilon, n in ((0.1, 8), (0.05, 3), (1.0, 100)):
            got = outcome(tl.approx_set_size, source, alpha, epsilon, n)
            assert got == outcome(oracle_approx_set_size, source, alpha, epsilon, n)


@pytest.mark.parametrize("name", IID)
def test_iid_word_measures_keep_their_bits(name):
    source = shipped(name)
    for n in (1, 8, 1000):
        wm = tl.word_measures(source, n)
        assert as_bits([wm.entropy, wm.varentropy]) == as_bits(oracle_word_measures(source, n))


def assert_word_measures_close(source, n):
    wm = tl.word_measures(source, n)
    for got, want in zip((wm.entropy, wm.varentropy), oracle_word_measures(source, n)):
        assert abs(got - want) <= WORD_MEASURES_RTOL * abs(want), (n, got, want)


@pytest.mark.parametrize("name", ["s3_markov", "s3_hmm"])
def test_chain_word_measures_match_the_old_sums(name):
    source = shipped(name)
    for n in (1, 2, 5, 8, 12):
        assert_word_measures_close(source, n)


@pytest.mark.parametrize("make", [random_markov, random_hmm])
@pytest.mark.parametrize("seed", range(10))
def test_random_chain_word_measures_match_the_old_sums(make, seed):
    source = make(seed)
    for n in range(1, 6):
        assert_word_measures_close(source, n)

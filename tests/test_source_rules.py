"""Each source rule in one place: the shared hidden-Markov forward recursion
against the two it replaced, bit for bit; `log_theta` built with the source;
the constructors' shape checks; the typical-set rules of `approx_set_size`;
and the one-`lexsort` reverse-duality check against a per-tie-class loop."""
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tiltlab as tl
from tiltlab import guesswork as gw
from tiltlab import verify
from tiltlab.errors import NotNormalized, SourceSpecError

from conftest import random_hmm
from reference_sources import reference_hmm_log_prob, reference_hmm_word_log_probs


def as_bits(values):
    return np.asarray(values, dtype=np.float64).view(np.int64).tolist()


def assert_hmm_bits(source, n_max, rng):
    k = len(source.alphabet)
    symbols = source.alphabet.symbols
    for n in range(1, n_max + 1):
        words = tl.enumerate_word_log_probs(source, n)
        assert as_bits(words) == as_bits(reference_hmm_word_log_probs(source, n))
        assert as_bits(gw.build_rank_table(source, n).log_probs) == as_bits(words)
    short = list(itertools.product(symbols, repeat=min(n_max, 4)))
    long = [[symbols[i] for i in rng.integers(0, k, rng.integers(1, 16))] for _ in range(30)]
    for x in short + long:
        assert as_bits(tl.string_log_prob(source, x)) == as_bits(reference_hmm_log_prob(source, x))


def test_shipped_hmm_forward_matches_reference_bits(s3_hmm):
    assert_hmm_bits(s3_hmm, 8, np.random.default_rng(1))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_random_hmm_forward_matches_reference_bits(seed):
    source = random_hmm(seed)
    assert_hmm_bits(source, 5 if len(source.alphabet) < 4 else 4, np.random.default_rng(seed))


def test_log_theta_is_built_with_the_source():
    source = tl.CategoricalSource(tl.letters(3), [0.0, 0.25, 0.75])
    assert "log_theta" in vars(source)
    with np.errstate(divide="ignore"):
        assert as_bits(source.log_theta) == as_bits(np.log(source.theta))
    assert not source.log_theta.flags.writeable
    assert "log_theta" not in repr(source)
    with pytest.raises(TypeError):
        tl.CategoricalSource(tl.letters(2), [0.5, 0.5], log_theta=np.zeros(2))


SHAPE_ERRORS = {
    "probs length": (
        lambda a: tl.CategoricalSource(a, [0.2, 0.8]), "probs must have one entry per symbol"
    ),
    "probs matrix": (lambda a: tl.CategoricalSource(a, [[0.2, 0.3, 0.5]]), r"not \(1, 3\)"),
    "probs nan": (
        lambda a: tl.CategoricalSource(a, [0.2, np.nan, 0.5]), "probs entries must be finite"
    ),
    "markov transition": (
        lambda a: tl.MarkovSource(a, np.eye(2), [0.5, 0.5]), r"transition must be \|alphabet\|"
    ),
    "markov initial": (
        lambda a: tl.MarkovSource(a, np.eye(3), [0.5, 0.5]), "initial must have one entry"
    ),
    "markov negative": (
        lambda a: tl.MarkovSource(a, -np.eye(3), np.ones(3) / 3), "transition entries"
    ),
    "hmm transition": (
        lambda a: tl.HiddenMarkovSource(a, [[1.0, 0.0]], np.ones((1, 3)) / 3, [1.0]),
        "transition must be square",
    ),
    "hmm emission": (
        lambda a: tl.HiddenMarkovSource(a, np.eye(2), np.ones((2, 2)) / 2, [0.5, 0.5]),
        "emission must be states x symbols",
    ),
    "hmm initial": (
        lambda a: tl.HiddenMarkovSource(a, np.eye(2), np.ones((2, 3)) / 3, [1.0]),
        "initial must have one entry per state",
    ),
}


@pytest.mark.parametrize("build, message", SHAPE_ERRORS.values(), ids=SHAPE_ERRORS.keys())
def test_constructors_check_every_shape_and_entry(build, message):
    with pytest.raises(SourceSpecError, match=message):
        build(tl.letters(3))


def test_constructors_reject_rows_off_by_more_than_the_tolerance():
    with pytest.raises(NotNormalized, match="transition rows must sum to 1"):
        tl.MarkovSource(tl.letters(2), [[0.5, 0.5], [0.5, 0.6]], [0.5, 0.5])
    with pytest.raises(NotNormalized, match="emission rows must sum to 1"):
        tl.HiddenMarkovSource(tl.letters(2), [[1.0]], [[0.5, 0.6]], [1.0])
    # a categorical source need not be normalized; `validate` says so
    tl.CategoricalSource(tl.letters(2), [0.2, 0.9])


@pytest.mark.parametrize(
    "matrix", [np.ones((2, 3)) / 3, np.ones(3) / 3, np.ones((1, 1, 1)), np.ones((0, 0))]
)
def test_stationary_distribution_rejects_a_non_square_matrix(matrix):
    with pytest.raises(SourceSpecError, match="transition must be non-empty and square"):
        tl.stationary_distribution(matrix)


@pytest.mark.parametrize(
    "kind, transition, emission",
    [
        ("markov", np.ones((0, 2)), None),
        ("markov", np.ones((0, 0)), None),
        ("hmm", np.ones((0, 0)), np.ones((0, 2))),
        ("hmm", np.ones((0, 2)), np.ones((0, 2))),
    ],
)
def test_spec_with_an_empty_numpy_transition_raises_source_spec_error(kind, transition, emission):
    spec = {"kind": kind, "alphabet": ["a", "b"], "transition": transition, "emission": emission}
    with pytest.raises(SourceSpecError, match="transition"):
        tl.source_from_dict(spec)


def test_spec_arrays_are_the_renormalized_rows(s3_markov, s3_hmm):
    markov = tl.source_from_dict(
        {"kind": "markov", "alphabet": ["a", "b"], "transition": [[0.5, 0.5 + 9e-13], [0.1, 0.9]]}
    )
    rows = np.array([[0.5, 0.5 + 9e-13], [0.1, 0.9]])
    assert as_bits(markov.transition) == as_bits(rows / rows.sum(axis=1, keepdims=True))
    assert as_bits(markov.initial) == as_bits(tl.stationary_distribution(markov.transition))
    assert as_bits(s3_hmm.initial) == as_bits(tl.stationary_distribution(s3_hmm.transition))
    for source in (markov, s3_markov, s3_hmm):
        assert source.initial_mode == "stationary"
        assert not source.initial.flags.writeable


@pytest.mark.parametrize("n", [0, -3])
def test_approx_set_size_takes_the_typical_set_spec_rules(s2, n):
    with pytest.raises(ValueError, match="n must be >= 1"):
        tl.approx_set_size(s2, 2.0, 0.1, n)
    with pytest.raises(ValueError, match="alpha must be non-zero"):
        tl.approx_set_size(s2, 0.0, 0.1, 4)
    with pytest.raises(ValueError, match="epsilon must be positive"):
        tl.approx_set_size(s2, 2.0, float("nan"), 4)


def loop_reverse_dual(base, reversed_rank_of):
    """The per-tie-class check `verify._reverse_dual` replaced."""
    base_r = base.size + 1 - base.rank_of
    groups = base.tie_groups()
    for gid in np.unique(groups):
        members = base.order[groups == gid]
        if not np.array_equal(np.sort(reversed_rank_of[members]), np.sort(base_r[members])):
            return False
    return True


@pytest.mark.parametrize("name", ["s2", "s3"])
def test_reverse_dual_agrees_with_the_tie_class_loop(name):
    rng = np.random.default_rng(7)
    source = tl.load_source(tl.builtin_spec_path(name))
    verdicts = []
    for n in range(1, 7):
        base = gw.build_rank_table(source, n)
        clean = gw.build_rank_table(tl.reverse(source), n).rank_of
        candidates = [clean]
        for _ in range(25):
            mutated = clean.copy()
            i, j = rng.integers(0, clean.size, 2)
            if rng.random() < 0.5:
                mutated[[i, j]] = mutated[[j, i]]  # a swap, maybe inside one tie class
            else:
                mutated[i] = rng.integers(1, clean.size + 1)
            candidates.append(mutated)
        for rank_of in candidates:
            verdict = verify._reverse_dual(base, rank_of)
            assert verdict == loop_reverse_dual(base, rank_of)
            verdicts.append(verdict)
    assert verdicts[0] and not all(verdicts)

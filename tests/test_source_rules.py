"""Each source rule in one place: the shared hidden-Markov forward recursion
against the enumeration it replaced, bit for bit, for words and strings;
`log_theta` built with the source; the constructors' shape checks; the
typical-set rules of `approx_set_size`; the one-`lexsort` reverse-duality
check against a per-tie-class loop; and the TypeError every i.i.d.-only
function gives a chain source."""
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tiltlab as tl
from tiltlab import guesswork as gw
from tiltlab import measures as ms
from tiltlab import verify
from tiltlab.errors import NotNormalized, SourceSpecError

from conftest import random_hmm
from reference_sources import reference_hmm_entries, reference_hmm_word_log_probs


def as_bits(values):
    return np.asarray(values, dtype=np.float64).view(np.int64).tolist()


def assert_hmm_bits(source, n_max, rng):
    """Words, table log-probs and strings of up to 2^16 words' length (30
    drawn) have the reference enumeration's bits."""
    k = len(source.alphabet)
    symbols = source.alphabet.symbols
    for n in range(1, n_max + 1):
        words = tl.enumerate_word_log_probs(source, n)
        assert as_bits(words) == as_bits(reference_hmm_word_log_probs(source, n))
        assert as_bits(gw.build_rank_table(source, n).log_probs) == as_bits(words)
    short = list(itertools.product(symbols, repeat=min(n_max, 4)))
    longest = int(16 / np.log2(k))
    long = [[symbols[i] for i in rng.integers(0, k, rng.integers(1, longest + 1))]
            for _ in range(30)]
    got = [tl.string_log_prob(source, x) for x in short + long]
    assert as_bits(got) == as_bits(reference_hmm_entries(source, short + long))


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
    "probs matrix": (
        lambda a: tl.CategoricalSource(a, [[0.2, 0.3, 0.5]]), "probs must be one-dimensional"
    ),
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


#: a constructor call with one of its probability arrays set to `values`
PROBABILITY_ARRAYS = {
    "probs": lambda values: tl.CategoricalSource(tl.letters(2), values),
    "transition": lambda values: tl.MarkovSource(
        tl.letters(2), [values, [0.1, 0.9]], [0.5, 0.5]
    ),
    "initial": lambda values: tl.MarkovSource(tl.letters(2), np.eye(2), values),
    "emission": lambda values: tl.HiddenMarkovSource(tl.letters(2), [[1.0]], [values], [1.0]),
}


@pytest.mark.parametrize(
    "values", [["0.2", "0.8"], [True, False], ["0.2", 0.8], np.array([True, False])],
    ids=["text", "bools", "numeric text", "bool array"],
)
@pytest.mark.parametrize("what", sorted(PROBABILITY_ARRAYS))
def test_constructors_refuse_strings_and_bools_as_probabilities(what, values):
    with pytest.raises(SourceSpecError, match=f"{what} must be an array|entry of {what}"):
        PROBABILITY_ARRAYS[what](values)


def test_constructors_hold_a_read_only_copy_of_a_float64_array():
    values = np.array([0.25, 0.75])
    held = [
        tl.CategoricalSource(tl.letters(2), values).theta,
        tl.MarkovSource(tl.letters(2), np.eye(2), values).initial,
        tl.HiddenMarkovSource(tl.letters(2), np.eye(2), np.eye(2), values).initial,
    ]
    for array in held:
        assert not np.shares_memory(array, values) and not array.flags.writeable
        assert array.tolist() == [0.25, 0.75]
    assert values.flags.writeable


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
        assert as_bits(source.initial) == as_bits(tl.stationary_distribution(source.transition))
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


def test_chain_sources_take_no_initial_mode():
    # a start mode the source could not honour was stored as given
    transition = [[0.9, 0.1], [0.2, 0.8]]
    chains = (
        lambda **mode: tl.MarkovSource(tl.letters(2), transition, [1.0, 0.0], **mode),
        lambda **mode: tl.HiddenMarkovSource(
            tl.letters(2), transition, np.eye(2), [1.0, 0.0], **mode
        ),
    )
    for build in chains:
        assert not hasattr(build(), "initial_mode")
        for mode in ("stationary", "banana"):
            with pytest.raises(TypeError, match="initial_mode"):
                build(initial_mode=mode)


#: the i.i.d.-only functions, each called with a chain source `c` in every
#: source position and the categorical `s3` in the others
CATEGORICAL_ONLY = {
    "validate": lambda c, s3: [lambda: tl.validate(c)],
    "tilt": lambda c, s3: [lambda: tl.tilt(c, 2.0)],
    "entropy": lambda c, s3: [lambda: ms.entropy(c, 2)],
    "varentropy": lambda c, s3: [lambda: ms.varentropy(c, 2)],
    "cross_entropy": lambda c, s3: [
        lambda: ms.cross_entropy(c, s3), lambda: ms.cross_entropy(s3, c)],
    "cross_varentropy": lambda c, s3: [
        lambda: ms.cross_varentropy(c, s3), lambda: ms.cross_varentropy(s3, c)],
    "relative_entropy": lambda c, s3: [
        lambda: ms.relative_entropy(c, s3), lambda: ms.relative_entropy(s3, c)],
    "measure_bundle": lambda c, s3: [
        lambda: ms.measure_bundle(c, s3, 2), lambda: ms.measure_bundle(s3, c, 2)],
    "renyi_entropy": lambda c, s3: [
        lambda: ms.renyi_entropy(c, 0.5), lambda: ms.renyi_entropy(c, 1.0 + 1e-6),
        lambda: ms.renyi_entropy(c, 1.0)],
    "order_equivalent": lambda c, s3: [
        lambda: tl.order_equivalent(c, s3), lambda: tl.order_equivalent(s3, c)],
}


@pytest.mark.parametrize("chain", ["s3_markov", "s3_hmm"])
@pytest.mark.parametrize("calls", CATEGORICAL_ONLY.values(), ids=CATEGORICAL_ONLY.keys())
def test_i_i_d_only_functions_refuse_chain_sources_with_type_error(calls, chain, s3, request):
    for call in calls(request.getfixturevalue(chain), s3):
        with pytest.raises(TypeError, match="applies to categorical sources only"):
            call()

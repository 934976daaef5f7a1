"""Word tables without dead work, and the input rules that guard them.

`_word_levels` hands `build_rank_table` the levels and each string's level,
whose gather has the bits of `enumerate_word_log_probs`; a rank table stores
neither per-string log-probs nor `rank_of` and builds each only when it is
read; the
hidden-Markov recursion builds no normalized state at its last level; the
budget and float-range rules reject a huge n without building k^n; a tilt
order too large for the tilted levels and a negative verification seed are
reported as errors.
"""
import time
import tracemalloc

import numpy as np
import pytest

import tiltlab as tl
from tiltlab import verify
from tiltlab.errors import BudgetExceeded, InvalidInput, OutOfRange
from tiltlab.sources import DEFAULT_BUDGET, _word_levels, require_budget

from conftest import random_hmm, random_markov
from reference_rank_table import reference_rank_table

#: (shipped source, largest n) whose every table is compared
SHIPPED = (("s2", 8), ("s3", 8), ("s3_markov", 8), ("s3_hmm", 8), ("s77_sample", 2))

#: bytes per string a built `s2` table at n = 20 may hold: `order` takes 8
#: and `level_of` 1; a stored `rank_of` or stored log-probs would add 8 each
HELD_BYTES_PER_STRING = 10

#: tracemalloc peak per word allowed to the s3_hmm enumeration; with the last
#: level's normalized state copy it is about 65 B, without it about 48 B
HMM_PEAK_BYTES_PER_WORD = 56

#: the same for a seeded 8-state hidden chain over 3 symbols at n = 9
MANY_STATE_PEAK_BYTES_PER_WORD = 150

#: seconds allowed to reject n = 10^7; building 3^(10^7) takes about 5 s
FAST_REJECT_S = 1.0


def bits(values):
    return np.asarray(values, dtype=np.float64).view(np.int64)


@pytest.mark.parametrize("name, n_max", SHIPPED, ids=[name for name, _ in SHIPPED])
def test_word_levels_give_the_enumerated_bits(name, n_max):
    source = tl.load_source(tl.builtin_spec_path(name))
    for n in range(1, n_max + 1):
        levels, level_of = _word_levels(source, n)
        enumerated = bits(tl.enumerate_word_log_probs(source, n))
        np.testing.assert_array_equal(bits(levels[level_of]), enumerated)


def shipped(name):
    return tl.load_source(tl.builtin_spec_path(name))


#: (source maker, its argument, n) of the tables whose log-prob view is read
VIEWED = [(shipped, name, n) for name, n in SHIPPED] + [
    (make, seed, 5) for make in (random_markov, random_hmm) for seed in range(12)
]


@pytest.mark.parametrize(
    "make, arg, n", VIEWED, ids=[f"{make.__name__}-{arg}" for make, arg, _ in VIEWED]
)
def test_log_probs_are_gathered_from_the_levels_on_first_read(make, arg, n):
    source = make(arg)
    table = tl.build_rank_table(source, n)
    table.pmf(), table.tie_groups()  # readers of the levels alone
    assert "log_probs" not in vars(table)
    log_probs = table.log_probs
    assert not log_probs.flags.writeable
    assert table.log_probs is log_probs
    np.testing.assert_array_equal(bits(log_probs), bits(tl.enumerate_word_log_probs(source, n)))


@pytest.mark.parametrize(
    "make, arg, n", VIEWED, ids=[f"{make.__name__}-{arg}" for make, arg, _ in VIEWED]
)
def test_rank_of_is_inverted_from_the_order_on_first_read(make, arg, n):
    source = make(arg)
    table = tl.build_rank_table(source, n)
    table.pmf(), table.tie_groups()  # readers of the order alone
    assert "rank_of" not in vars(table)
    rank_of = table.rank_of
    assert rank_of.dtype == np.int64 and not rank_of.flags.writeable
    assert table.rank_of is rank_of
    np.testing.assert_array_equal(rank_of, reference_rank_table(source, n)[2])


def test_order_equivalence_reads_no_rank_of(s3, monkeypatch):
    built, build = [], tl.guesswork.build_rank_table

    def recording_build(*args):
        built.append(build(*args))
        return built[-1]

    monkeypatch.setattr(tl.guesswork, "build_rank_table", recording_build)
    other = tl.CategoricalSource(s3.alphabet, np.array([0.25, 0.3, 0.45]))
    assert tl.order_equivalent(s3, other).witness is not None
    assert tl.order_equivalent(s3, tl.tilt(s3, 2.0)).witness is None
    assert len(built) > 2 and not any("rank_of" in vars(table) for table in built)


def test_a_built_table_holds_no_per_string_log_probs(s2):
    tracemalloc.start()
    try:
        table = tl.build_rank_table(s2, 20)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held / table.size < HELD_BYTES_PER_STRING


def enumeration_peak_per_word(source, n):
    tl.enumerate_word_log_probs(source, n)  # first-call allocations stay out of the peak
    tracemalloc.start()
    try:
        tl.enumerate_word_log_probs(source, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / len(source.alphabet) ** n


def test_hmm_enumeration_peak_per_word(s3_hmm):
    assert enumeration_peak_per_word(s3_hmm, 10) < HMM_PEAK_BYTES_PER_WORD


def test_many_state_hmm_enumeration_peak_per_word():
    # the product of each level after the first is built in C order, so
    # `reshape` is a view: about 120 B/word here, 176 with the copy
    rng = np.random.default_rng(8)
    source = tl.HiddenMarkovSource(
        tl.letters(3), rng.dirichlet(np.ones(8), 8), rng.dirichlet(np.ones(3), 8),
        rng.dirichlet(np.ones(8)),
    )
    assert enumeration_peak_per_word(source, 9) < MANY_STATE_PEAK_BYTES_PER_WORD


def seconds(call):
    start = time.perf_counter()
    call()
    return time.perf_counter() - start


def test_budget_rejects_a_huge_n_without_building_k_to_the_n():
    def reject():
        with pytest.raises(BudgetExceeded, match=r"3\^10000000 strings exceed"):
            require_budget(3, 10**7, DEFAULT_BUDGET)

    assert seconds(reject) < FAST_REJECT_S


@pytest.mark.parametrize(
    "k, n, budget, within",
    [(2, 24, 2**24, True), (2, 25, 2**24, False), (2, 24, 2**24 - 1, False),
     (3, 15, 3**15, True), (3, 15, 3**15 - 1, False), (3, 16, 2**26, True), (3, 17, 2**26, False),
     (5, 1, 5, True), (5, 1, 4, False)],
)
def test_budget_is_exact_below_the_bit_length(k, n, budget, within):
    if within:
        require_budget(k, n, budget)
    else:
        with pytest.raises(BudgetExceeded):
            require_budget(k, n, budget)


S2 = tl.load_source(tl.builtin_spec_path("s2"))

#: calls given a string length that is not an integer, or a bool
NON_INTEGER_LENGTHS = {
    "table at 2.5": lambda: tl.build_rank_table(S2, 2.5),
    "table at True": lambda: tl.build_rank_table(S2, True),
    "word measures at 2.5": lambda: tl.word_measures(S2, 2.5),
    "typical spec at 2.5": lambda: tl.TypicalSetSpec(0.5, 0.1, 2.5),
    "approx curve at 2.5": lambda: tl.approx_pmf_curve(S2, 2.5),
    "word log-probs at 2.0": lambda: tl.enumerate_word_log_probs(S2, 2.0),
}


@pytest.mark.parametrize("call", NON_INTEGER_LENGTHS.values(), ids=NON_INTEGER_LENGTHS.keys())
def test_a_length_must_be_an_integer(call):
    with pytest.raises(InvalidInput, match="n must be an integer"):
        call()


@pytest.mark.parametrize("budget", [1e6, 100.0, True, False, 0, -1, np.int64(0), "100"])
def test_a_budget_must_be_an_integer_of_at_least_1(budget):
    with pytest.raises(InvalidInput, match=r"budget must be an integer in \[1, inf\)"):
        tl.build_rank_table(S2, 2, budget=budget)
    with pytest.raises(InvalidInput, match=r"budget must be an integer in \[1, inf\)"):
        require_budget(2, 2, budget)


def test_numpy_integer_lengths_and_budgets_are_taken():
    want = tl.build_rank_table(S2, 3)
    got = tl.build_rank_table(S2, np.int64(3), budget=np.int64(100))
    assert got.n == 3 and np.array_equal(got.order, want.order)
    with pytest.raises(BudgetExceeded, match=r"2\^7 strings exceed the enumeration budget 100"):
        tl.build_rank_table(S2, np.int64(7), budget=np.int64(100))
    # k^n is an exact Python integer: 3 ** np.int64(70) would wrap to 2.3e18
    with pytest.raises(BudgetExceeded, match=r"3\^70 strings exceed"):
        require_budget(3, np.int64(70), 2**100)


def test_reverse_guesswork_rejects_a_huge_n_before_building_k_to_the_n():
    def reject():
        with pytest.raises(OutOfRange, match=r"3\^10000000 strings exceed the float range"):
            tl.approx_guesswork(tl.WordMeasures(10**7, 10.0, 1.0), "reverse", 3)

    assert seconds(reject) < FAST_REJECT_S


@pytest.mark.parametrize("alpha", [1e308, -1e308, 5e307])
def test_tilt_orders_beyond_the_float_range_of_the_tilted_levels(s3, alpha):
    with pytest.raises(OutOfRange, match="overflows the tilted log-probs at n=4"):
        tl.typical_set(s3, tl.TypicalSetSpec(alpha, 0.1, 4))


def test_a_negative_seed_is_an_input_error():
    with pytest.raises(InvalidInput, match="seed must be a non-negative integer, not -1"):
        verify.random_sources(-1, 3)

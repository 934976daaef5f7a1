"""The type-class rank-table build against the per-string reference build."""
import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tiltlab as tl
from tiltlab.cli import main
from tiltlab.errors import BudgetExceeded
from tiltlab.sources import _type_classes

from reference_rank_table import reference_rank_table
from reference_type_classes import reference_type_classes


def assert_matches_reference(source, n):
    table = tl.build_rank_table(source, n)
    logp, order, rank_of, groups = reference_rank_table(source, n)
    np.testing.assert_array_equal(table.log_probs.view(np.int64), logp.view(np.int64))
    np.testing.assert_array_equal(table.order, order)
    np.testing.assert_array_equal(table.rank_of, rank_of)
    np.testing.assert_array_equal(table.tie_groups(), groups)
    np.testing.assert_array_equal(table.pmf().view(np.int64), np.exp(logp[order]).view(np.int64))
    assert table.order.dtype == np.uint32 and table.rank_of.dtype == rank_of.dtype
    return table


@st.composite
def full_support_sources(draw):
    """Sources with k in 2..6; integer weights make bit-equal levels across classes."""
    k = draw(st.integers(2, 6))
    weight = st.one_of(
        st.floats(min_value=0.01, max_value=1.0, allow_nan=False),
        st.integers(1, 4).map(float),
    )
    raw = np.array(draw(st.lists(weight, min_size=k, max_size=k)))
    return tl.CategoricalSource(tl.letters(k), raw / raw.sum())


@settings(max_examples=40, deadline=None)
@given(full_support_sources(), st.integers(1, 8))
def test_iid_tables_match_reference(source, n):
    assert_matches_reference(source, n)


@pytest.mark.parametrize(
    "name,n",
    [("s2", 1), ("s2", 9), ("s2", 16), ("s3", 1), ("s3", 7), ("s3", 10),
     ("s77_sample", 1), ("s77_sample", 3),
     ("s3_markov", 1), ("s3_markov", 8), ("s3_hmm", 1), ("s3_hmm", 8)],
)
def test_shipped_specs_match_reference(name, n):
    assert_matches_reference(tl.load_source(tl.builtin_spec_path(name)), n)


def test_near_equal_class_levels_merge_into_one_tie_group():
    # 3003 distinct class levels at n=2; 41 tie groups hold more than one
    # of them, each within TIE_TOL_PER_SYMBOL * n of its neighbour
    table = assert_matches_reference(tl.load_source(tl.builtin_spec_path("s77_sample")), 2)
    sorted_logp = table.log_probs[table.order]
    groups = table.tie_groups()
    _, first = np.unique(groups, return_index=True)
    merged = [g for g in np.split(sorted_logp, first[1:]) if np.unique(g).size > 1]
    assert np.unique(sorted_logp).size == 3003
    assert len(merged) == 41


def assert_classes_match_reference(source, n):
    levels, level_of = _type_classes(source, n)
    expected_levels, expected_level_of = reference_type_classes(source, n)
    assert levels.dtype == expected_levels.dtype == np.float64
    np.testing.assert_array_equal(levels.view(np.int64), expected_levels.view(np.int64))
    assert level_of.dtype == expected_level_of.dtype
    np.testing.assert_array_equal(level_of, expected_level_of)


@st.composite
def class_sources(draw):
    """k in 2..40, real or small integer weights (bit-equal class levels), some 0."""
    k = draw(st.integers(2, 40))
    weight = st.one_of(
        st.floats(min_value=0.01, max_value=1.0, allow_nan=False),
        st.integers(0, 3).map(float),
    )
    raw = np.array(draw(st.lists(weight, min_size=k, max_size=k)))
    raw[draw(st.integers(0, k - 1))] += 1.0  # some weight is positive
    symbols = tl.Alphabet(tuple(f"s{i}" for i in range(k)))
    return tl.CategoricalSource(symbols, raw / raw.sum())


@settings(max_examples=40, deadline=None)
@given(class_sources())
def test_class_levels_match_the_unranking_reference(source):
    k, n = len(source.alphabet), 1
    while k**n <= 2**20:
        assert_classes_match_reference(source, n)
        n += 1


@pytest.mark.parametrize("n", [1, 2, 3])
def test_s77_class_levels_match_the_unranking_reference(n):
    assert_classes_match_reference(tl.load_source(tl.builtin_spec_path("s77_sample")), n)


def test_classes_are_numbered_in_sorted_tuple_order():
    source = tl.CategoricalSource(tl.letters(4), [0.1, 0.2, 0.3, 0.4])
    levels, level_of = _type_classes(source, 3)
    tuples = list(itertools.combinations_with_replacement(range(4), 3))
    assert levels.size == len(tuples)
    for index, word in enumerate(itertools.product(range(4), repeat=3)):
        assert tuples[level_of[index]] == tuple(sorted(word))


def test_class_build_searches_only_the_padded_classes(monkeypatch):
    # the class levels come from the sorted tuples; only the successor table
    # unranks, and it covers the C(n+k-2, k-1) classes that hold padding
    source = tl.load_source(tl.builtin_spec_path("s77_sample"))
    n, k = 3, len(source.alphabet)
    padded = math.comb(n + k - 2, k - 1)
    searchsorted, sizes = np.searchsorted, []

    def guarded(a, v, *args, **kwargs):
        sizes.append(max(np.size(a), np.size(v)))
        assert sizes[-1] <= padded, "searched more than the padded classes"
        return searchsorted(a, v, *args, **kwargs)

    monkeypatch.setattr(np, "searchsorted", guarded)
    _type_classes(source, n)
    assert sizes


class TestZeroProbabilitySymbol:
    SOURCE = tl.CategoricalSource(tl.letters(3), [0.0, 0.4, 0.6])

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_zero_probability_strings_rank_last_in_lex_order(self, n):
        probs = {"a": Fraction(0), "b": Fraction(2, 5), "c": Fraction(3, 5)}
        words = ["".join(w) for w in itertools.product("abc", repeat=n)]
        expected = sorted(words, key=lambda w: (-math.prod(probs[c] for c in w), w))
        table = tl.build_rank_table(self.SOURCE, n)
        assert [table.string_at(int(i)) for i in table.order] == expected
        uses_a = np.array(["a" in w for w in words])
        assert not np.any(np.isnan(table.log_probs))
        assert np.all(np.isneginf(table.log_probs[uses_a]))
        assert np.all(np.isfinite(table.log_probs[~uses_a]))
        assert table.pmf().sum() == pytest.approx(1.0, abs=1e-12)
        assert table.tie_groups()[-1] == table.tie_groups()[-int(uses_a.sum())]

    def test_string_log_prob(self):
        assert tl.string_log_prob(self.SOURCE, "bc") == pytest.approx(math.log(0.24))
        assert tl.string_log_prob(self.SOURCE, "ab") == -math.inf

    def test_cli_guesswork_writes_no_nan(self, tmp_path):
        spec = tmp_path / "zero.json"
        spec.write_text('{"kind": "categorical", "alphabet": ["a", "b", "c"], '
                        '"probs": [0, 0.4, 0.6]}')
        out = tmp_path / "ranks.csv"
        assert main(["guesswork", "--source", str(spec), "--n", "2", "--out", str(out)]) == 0
        rows = out.read_text().splitlines()[2:]
        assert "nan" not in out.read_text().lower()
        assert [r.split(",")[0] for r in rows[-5:]] == ["aa", "ab", "ac", "ba", "ca"]


def _peak_traced_bytes(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# tracemalloc peak of the per-string reference build, in bytes per string
@pytest.mark.parametrize(
    "name,n,reference_bytes", [("s2", 20, 49), ("s3", 12, 49), ("s77_sample", 3, 186)]
)
def test_rank_table_peak_memory_per_string(name, n, reference_bytes):
    source = tl.load_source(tl.builtin_spec_path(name))
    source.log_theta
    peak = _peak_traced_bytes(lambda: tl.build_rank_table(source, n))
    assert peak / len(source.alphabet) ** n <= reference_bytes


def test_budget_refuses_before_allocating():
    source = tl.load_source(tl.builtin_spec_path("s77_sample"))

    def over_budget():
        with pytest.raises(BudgetExceeded):
            tl.build_rank_table(source, 5)

    assert _peak_traced_bytes(over_budget) < 64 * 1024

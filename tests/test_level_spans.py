"""The per-level first rank, last rank and size the typical-set ledger reads.

`RankTable._level_spans` takes them from the runs of equal levels in rank
order, once per table; the run walk (`_level_runs`) is cached too, read-only
and in the smallest types, and `pmf()` and `tie_groups()` read it.  Per string, a level's first and last rank are the least and the
greatest rank of the strings at that level, and its size is their count;
the drawn geometric sources give near-tied levels whose strings interleave,
and -inf levels.
"""
import numpy as np
import pytest
from hypothesis import given, settings

import tiltlab as tl
from test_class_level import geometric_sources


def assert_spans_match_strings(table):
    first, last, sizes = table._level_spans
    assert first.dtype == last.dtype == sizes.dtype == np.int64
    for level in range(table.levels.size):
        ranks = table.rank_of[table.level_of == level]
        assert (first[level], last[level], sizes[level]) == (ranks.min(), ranks.max(), ranks.size)


@pytest.mark.parametrize(
    "name, n_max",
    [("s2", 10), ("s3", 7), ("s77_sample", 2), ("s3_markov", 5), ("s3_hmm", 5)],
)
def test_shipped_tables(name, n_max):
    source = tl.load_source(tl.builtin_spec_path(name))
    for n in range(1, n_max + 1):
        assert_spans_match_strings(tl.build_rank_table(source, n))


@settings(max_examples=150, deadline=None)
@given(geometric_sources())
def test_near_tied_interleaved_and_infinite_levels(drawn):
    source, n = drawn
    assert_spans_match_strings(tl.build_rank_table(source, n))



def test_spans_are_walked_once_per_table(s3):
    table = tl.build_rank_table(s3, 6)
    spans = table._level_spans
    for alpha in (1.0, 0.5, -1.0):
        tl.typical_set(s3, tl.TypicalSetSpec(alpha, 0.1, 6), table=table)
    assert table._level_spans is spans
    assert not any(arr.flags.writeable for arr in spans)


@pytest.mark.parametrize("name, n", [("s2", 10), ("s3", 7), ("s77_sample", 2), ("s3_hmm", 8)])
def test_runs_are_walked_once_read_only_in_the_smallest_types(name, n):
    table = tl.build_rank_table(tl.load_source(tl.builtin_spec_path(name)), n)
    runs = table._level_runs
    table.pmf(), table.tie_groups(), table._level_spans
    assert table._level_runs is runs
    run_levels, lengths, groups = runs
    assert not any(arr.flags.writeable for arr in runs)
    assert run_levels.dtype == table.level_of.dtype
    assert lengths.dtype == np.min_scalar_type(int(lengths.max()))
    assert groups.dtype == np.min_scalar_type(int(groups[-1]))
    assert lengths.dtype.kind == groups.dtype.kind == "u"
    np.testing.assert_array_equal(np.repeat(run_levels, lengths), table.level_of[table.order])
    assert np.all(run_levels[1:] != run_levels[:-1])

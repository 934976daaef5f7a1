"""The run walk that every level reader of a rank table shares.

`RankTable._level_runs` walks the runs of equal levels in rank order once
per table, read-only and in the smallest types; `pmf()`, `tie_groups()` and
the typical-set ledger read it.  The ledger takes a class's span of ranks
and its size from its runs, which `tests/test_ledger_oracle.py` checks bit
for bit against the per-string reference ledger, on near-tied classes whose
strings interleave over several runs too.
"""
import numpy as np
import pytest

import tiltlab as tl


def test_ledger_queries_walk_the_runs_once_per_table(s3):
    table = tl.build_rank_table(s3, 6)
    runs = table._level_runs
    for alpha in (1.0, 0.5, -1.0):
        tl.typical_set(s3, tl.TypicalSetSpec(alpha, 0.1, 6), table=table)
    assert table._level_runs is runs
    assert not any(arr.flags.writeable for arr in runs)


@pytest.mark.parametrize("name, n", [("s2", 10), ("s3", 7), ("s77_sample", 2), ("s3_hmm", 8)])
def test_runs_are_walked_once_read_only_in_the_smallest_types(name, n):
    table = tl.build_rank_table(tl.load_source(tl.builtin_spec_path(name)), n)
    runs = table._level_runs
    table.pmf(), table.tie_groups()
    assert table._level_runs is runs
    run_levels, lengths, groups = runs
    assert not any(arr.flags.writeable for arr in runs)
    assert run_levels.dtype == table.level_of.dtype
    assert lengths.dtype == np.min_scalar_type(int(lengths.max()))
    assert groups.dtype == np.min_scalar_type(int(groups[-1]))
    assert lengths.dtype.kind == groups.dtype.kind == "u"
    np.testing.assert_array_equal(np.repeat(run_levels, lengths), table.level_of[table.order])
    assert np.all(run_levels[1:] != run_levels[:-1])

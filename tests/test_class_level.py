"""Level readers of a rank table against the per-string rules.

`RankTable.tie_groups()` and `pmf()` read the levels (`levels`, `level_of`)
of every table, and `typical_set` reads an i.i.d. table's levels, its type
classes; each must give the bits that the per-string log-probs in rank order
give.  A Markov or hidden Markov table's levels are the distinct bit
patterns of its strings' log-probs, so its build must also keep the
reference rank order and the enumerated log-prob bits.
"""
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import tiltlab as tl
from tiltlab.errors import TiltlabError
from tiltlab.guesswork import TIE_TOL_PER_SYMBOL, _tie_group_ids

import reference_ledger as ref
from conftest import geometric_sources, random_hmm, random_markov
from reference_rank_table import reference_rank_table, reference_tie_groups
from test_ledger_oracle import check_against_reference, report_key

#: largest table a drawn source builds
MAX_STRINGS = 5000


def assert_class_readers_match_strings(table):
    sorted_logp = table.log_probs[table.order]
    groups = table.tie_groups()
    expected = reference_tie_groups(sorted_logp, TIE_TOL_PER_SYMBOL * table.n)
    assert groups.dtype == np.min_scalar_type(expected[-1])  # the smallest type for the count
    np.testing.assert_array_equal(groups, expected)
    pmf = table.pmf()
    assert pmf.dtype == np.float64
    np.testing.assert_array_equal(pmf.view(np.int64), np.exp(sorted_logp).view(np.int64))


def assert_chain_table_matches_strings(source, n):
    table = tl.build_rank_table(source, n)
    logp, _, rank_of, _ = reference_rank_table(source, n)
    np.testing.assert_array_equal(table.rank_of, rank_of)
    np.testing.assert_array_equal(table.log_probs.view(np.int64), logp.view(np.int64))
    np.testing.assert_array_equal(table.levels[table.level_of].view(np.int64), logp.view(np.int64))
    assert np.unique(table.levels.view(np.int64)).size == table.levels.size
    assert not any(a.flags.writeable for a in (table.log_probs, table.levels, table.level_of))
    assert_class_readers_match_strings(table)
    return table


def interleaved_classes(table):
    """Whether some tie group holds two levels whose strings alternate in rank order."""
    classes = table.level_of[table.order]
    groups = table.tie_groups()
    runs = np.flatnonzero(np.r_[True, classes[1:] != classes[:-1]])
    distinct = {(g, c) for g, c in zip(groups[runs].tolist(), classes[runs].tolist())}
    return runs.size > len(distinct)


@settings(max_examples=150, deadline=None)
@given(geometric_sources(), st.data())
def test_tie_groups_and_pmf_match_the_per_string_rules(source, data):
    n = data.draw(st.integers(1, int(math.log(MAX_STRINGS) / math.log(len(source.alphabet)))))
    assert_class_readers_match_strings(tl.build_rank_table(source, n))


@pytest.mark.parametrize(
    "theta, n",
    [
        ([0.25, 0.5, 0.125, 0.125 + 1e-15], 5),  # near-equal classes, every level finite
        ([0.0, 0.3, 0.6, 0.1], 4),  # -inf levels
        ([4 / 7, 2 / 7, 1 / 7], 7),  # geometric: many near-equal classes
    ],
)
def test_interleaved_and_infinite_levels(theta, n):
    table = tl.build_rank_table(tl.CategoricalSource(tl.letters(len(theta)), theta), n)
    assert_class_readers_match_strings(table)
    assert interleaved_classes(table) or not np.isfinite(table.levels).all()


@pytest.mark.parametrize("n", range(1, 9))
@pytest.mark.parametrize("name", ["s3_markov", "s3_hmm"])
def test_shipped_chain_tables_match_the_per_string_rules(name, n):
    assert_chain_table_matches_strings(tl.load_source(tl.builtin_spec_path(name)), n)


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("make", [random_markov, random_hmm])
def test_random_chain_tables_match_the_per_string_rules(make, seed):
    source = make(seed)
    n = int(math.log(MAX_STRINGS) / math.log(len(source.alphabet)))
    table = assert_chain_table_matches_strings(source, n)
    # zero transitions give every random Markov table -inf levels
    assert make is random_hmm or not np.isfinite(table.levels).all()


def test_chain_levels_one_ulp_apart_interleave(s3_markov):
    # two distinct levels one ulp apart, in one tie group, whose strings
    # alternate in rank order: the level walk must keep them one group
    table = assert_chain_table_matches_strings(s3_markov, 8)
    idx = [table.index_of(x) for x in ("bbcbaaaa", "bcaaaacb", "bcbbaaaa")]
    ranks = table.rank_of[idx]
    np.testing.assert_array_equal(np.diff(ranks), [1, 1])
    first, middle, last = table.level_of[idx]
    assert first == last != middle
    bits = table.levels[[first, middle]].view(np.int64)
    assert abs(int(bits[0]) - int(bits[1])) == 1
    assert len(set(table.tie_groups()[ranks - 1].tolist())) == 1
    assert interleaved_classes(table)


def test_s77_tie_groups_split_blocks_the_build_ordered_as_one():
    # Pins today's tie_groups(): it chains the rank-ordered log-probs, so on
    # s77_sample n=3 it reports 73,319 groups where the build key has 71,999
    # blocks (rank_of is unaffected).  ROADMAP item 9 mends this together with
    # the benchmark digest rank_s77/tie_classes; until then the class walk must
    # keep the count.
    table = tl.build_rank_table(tl.load_source(tl.builtin_spec_path("s77_sample")), 3)
    assert interleaved_classes(table)
    build_blocks = _tie_group_ids(np.sort(table.levels)[::-1], TIE_TOL_PER_SYMBOL * 3)
    assert build_blocks[-1] == 71_999
    assert table.tie_groups()[-1] == 73_319


@st.composite
def tied_ledger_queries(draw):
    """Small integer weights make bit-equal levels across classes, so several
    classes can share the tilted level at the boundary of B."""
    k = draw(st.integers(2, 5))
    raw = np.array(draw(st.lists(st.integers(1, 6).map(float), min_size=k, max_size=k)))
    source = tl.CategoricalSource(tl.letters(k), raw / raw.sum())
    try:
        tl.validate(source)
    except TiltlabError:
        assume(False)
    n = draw(st.integers(1, int(math.log(MAX_STRINGS) / math.log(k))))
    alpha = draw(st.sampled_from((-3.0, -1.0, -0.5, 1e-14, 0.5, 1.0, 2.0, 7.0)))
    eps = draw(st.floats(1e-3, 1.5))
    return source, tl.TypicalSetSpec(alpha=alpha, epsilon=eps, n=n)


@settings(max_examples=150, deadline=None)
@given(tied_ledger_queries())
def test_ledger_on_tied_classes_matches_reference_bits(query):
    source, spec = query
    check_against_reference(source, spec, tl.build_rank_table(source, spec.n))


@pytest.mark.parametrize("name, n", [("s2", 12), ("s3", 8), ("s77_sample", 2)])
def test_ledger_sorts_no_strings(name, n, monkeypatch):
    source = tl.load_source(tl.builtin_spec_path(name))
    table = tl.build_rank_table(source, n)
    specs = [
        tl.TypicalSetSpec(alpha=alpha, epsilon=eps, n=n)
        for alpha in (-2.0, -0.5, 1e-14, 0.5, 1.0, 2.0)
        for eps in (0.02, 0.1, 0.3)
    ]
    expected = [report_key(ref.typical_set(source, spec, table=table)) for spec in specs]

    def lexsort(*args, **kwargs):
        raise AssertionError("typical_set sorted its strings")

    def small_only(sort):
        def guarded(a, *args, **kwargs):
            assert np.size(a) <= table.levels.size, "typical_set sorted its strings"
            return sort(a, *args, **kwargs)
        return guarded

    monkeypatch.setattr(np, "lexsort", lexsort)
    monkeypatch.setattr(np, "argsort", small_only(np.argsort))
    monkeypatch.setattr(np, "sort", small_only(np.sort))
    for spec, key in zip(specs, expected):
        assert report_key(tl.typical_set(source, spec, table=table)) == key


#: the 15-query ledger of the benchmark's typical_ledger job
LEDGER_SPECS = [(alpha, eps) for alpha in (-2.0, -0.5, 0.5, 1.0, 2.0) for eps in (0.05, 0.1, 0.2)]


def test_d_and_e_members_are_not_built_for_the_bounds(s3):
    table = tl.build_rank_table(s3, 8)
    for alpha, eps in LEDGER_SPECS:
        report = tl.typical_set(s3, tl.TypicalSetSpec(alpha=alpha, epsilon=eps, n=8), table=table)
        assert [b.flag for b in report.bounds] and report.probability >= 0.0
        report.members("A"), report.members("B"), report.all_passed
        assert "d_members" not in vars(report) and "e_members" not in vars(report)


@pytest.mark.parametrize("name, n", [("s2", 10), ("s3", 7), ("s77_sample", 2)])
def test_first_read_of_d_and_e_members_matches_reference_and_is_kept(name, n):
    source = tl.load_source(tl.builtin_spec_path(name))
    table = tl.build_rank_table(source, n)
    for alpha, eps in LEDGER_SPECS:
        spec = tl.TypicalSetSpec(alpha=alpha, epsilon=eps, n=n)
        report = tl.typical_set(source, spec, table=table)
        expected = ref.typical_set(source, spec, table=table)
        for set_name, attr in (("D", "d_members"), ("E", "e_members")):
            members = report.members(set_name)
            np.testing.assert_array_equal(members, expected.members(set_name))
            assert members.dtype == expected.members(set_name).dtype
            assert vars(report)[attr] is members and getattr(report, attr) is members


def test_ledger_reports_hold_no_d_or_e_members(s3):
    # the 15 reports of the s3 n=12 ledger held 116.8 MB while every report
    # kept its D and E members; A and B members alone take about 34 MB
    table = tl.build_rank_table(s3, 12)
    table.log_probs, table._level_runs  # the table's own arrays stay out of the count
    specs = [tl.TypicalSetSpec(alpha=alpha, epsilon=eps, n=12) for alpha, eps in LEDGER_SPECS]
    tracemalloc.start()
    try:
        reports = [tl.typical_set(s3, spec, table=table) for spec in specs]
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(reports) == 15
    assert held < 40 * 2**20

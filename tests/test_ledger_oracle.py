"""The typical-set bound ledger against the reference ledger, bit for bit."""
import math
import types
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tiltlab as tl
from tiltlab import cli
from tiltlab.measures import _cross_entropy, _on_support
from tiltlab.numeric import _exp_or_inf, log_sum_exp

import reference_ledger as ref
from conftest import categorical_sources, geometric_sources

#: largest table a drawn query builds, so that every example stays fast
MAX_STRINGS = 6**6

#: bounds whose rhs is exp(h_tilt + |alpha| n eps) or exp(-D + |1 - alpha| n eps)
SIZE_HI_BOUNDS = ("set_size_upper", "guesswork_upper", "guesswork_in_outer")
PROB_HI_BOUNDS = ("_prob_upper", "_prob_cover")


def as_bits(value):
    return int(np.float64(value).view(np.int64))


def report_key(report):
    """Every row (id, lhs/rhs bits and types, flags), the members, probability and size."""
    rows = [
        (b.bound_id, as_bits(b.lhs), as_bits(b.rhs), type(b.lhs), b.passed, b.vacuous)
        for b in report.bounds
    ]
    members = [report.members(name).tolist() for name in "ABDE"]
    return rows, members, as_bits(report.probability), report.size


def reference_with_exp_or_inf(source, spec, table):
    """The reference ledger with its math.exp overflowing to inf instead of raising."""
    safe_math = types.SimpleNamespace(exp=_exp_or_inf, inf=math.inf)
    with mock.patch.object(ref, "math", safe_math):
        return ref.typical_set(source, spec, table=table)


def overflows(x):
    try:
        math.exp(x)
    except OverflowError:
        return True
    return False


def check_against_reference(source, spec, table):
    report = tl.typical_set(source, spec, table=table)
    try:
        expected = ref.typical_set(source, spec, table=table)
    except OverflowError:
        # the thresholds that overflow are inf, and every bound against them passes
        n, alpha, eps = spec.n, spec.alpha, spec.epsilon
        tilted = tl.tilt(source, alpha)
        size_hi_inf = overflows(n * tl.entropy(tilted) + abs(alpha) * n * eps)
        prob_hi_inf = overflows(
            -n * tl.relative_entropy(tilted, source) + abs(1.0 - alpha) * n * eps
        )
        assert size_hi_inf or prob_hi_inf
        for b in report.bounds:
            if b.bound_id.endswith(PROB_HI_BOUNDS):
                assert math.isinf(b.rhs) == prob_hi_inf
            elif b.bound_id.endswith(SIZE_HI_BOUNDS):
                assert math.isinf(b.rhs) == size_hi_inf
            if math.isinf(b.rhs):
                assert b.passed
        expected = reference_with_exp_or_inf(source, spec, table)
    assert report_key(report) == report_key(expected)
    return report


@st.composite
def ledger_queries(draw, sources):
    source = draw(sources)
    k = len(source.alphabet)
    n = draw(st.integers(1, min(8, int(math.log(MAX_STRINGS) / math.log(k)))))
    alpha = draw(st.floats(0.01, 200.0)) * draw(st.sampled_from((-1.0, 1.0)))
    eps = draw(st.floats(1e-3, 2.0))
    return source, tl.TypicalSetSpec(alpha=alpha, epsilon=eps, n=n)


@settings(max_examples=150, deadline=None)
@given(ledger_queries(categorical_sources(2, 6)))
def test_ledger_matches_reference_bits(query):
    source, spec = query
    check_against_reference(source, spec, tl.build_rank_table(source, spec.n))


@settings(max_examples=150, deadline=None)
@given(ledger_queries(geometric_sources(drop=False)))
def test_ledger_on_classes_split_over_runs_matches_reference_bits(query):
    # near-tied classes interleave in rank order, so a class's span of ranks
    # and its size gather several runs
    source, spec = query
    check_against_reference(source, spec, tl.build_rank_table(source, spec.n))


def _empty_a(report):
    return report.size == 0


def _cheby_not_positive(report):
    return report.bounds[2].bound_id == "set_size_lower" and report.bounds[2].vacuous


def _all_in_d(report):
    return report.d_members.size == report.table.size


def _all_in_e(report):
    return report.e_members.size == report.table.size


def _threshold_inf(report):
    return any(math.isinf(b.rhs) for b in report.bounds)


EDGE_CASES = {
    "empty A": ("s2", 1.0, 0.1, 1, _empty_a),
    "empty A, reverse ranks": ("s3", -2.0, 0.01, 3, _empty_a),
    "cheby <= 0": ("s3", 1.0, 0.01, 6, _cheby_not_positive),
    "cheby <= 0, reverse ranks": ("s3", -0.5, 0.02, 8, _cheby_not_positive),
    "empty complement of D": ("s3", 2.0, 2.0, 6, _all_in_d),
    "empty complement of E": ("s3", 0.5, 2.0, 6, _all_in_e),
    "empty complements, reverse ranks": ("s2", -1.0, 2.0, 8, _all_in_e),
    "overflowing size threshold": ("s3", 1000.0, 1.0, 6, _threshold_inf),
    "overflowing thresholds, reverse ranks": ("s2", -1000.0, 1.0, 8, _threshold_inf),
}


@pytest.mark.parametrize("case", EDGE_CASES.values(), ids=EDGE_CASES.keys())
def test_edge_cases_match_reference_bits(case):
    name, alpha, eps, n, holds = case
    source = tl.load_source(tl.builtin_spec_path(name))
    spec = tl.TypicalSetSpec(alpha=alpha, epsilon=eps, n=n)
    report = check_against_reference(source, spec, tl.build_rank_table(source, n))
    assert holds(report)


@pytest.mark.parametrize("name, n", [("s2", 8), ("s3", 6), ("s77_sample", 2)])
@pytest.mark.parametrize("alpha", [-1e4, -1e-14, 1e-14, 1e4])
def test_extreme_orders_match_reference_bits(name, n, alpha):
    source = tl.load_source(tl.builtin_spec_path(name))
    table = tl.build_rank_table(source, n)
    for epsilon in (0.02, 0.3):
        check_against_reference(source, tl.TypicalSetSpec(alpha=alpha, epsilon=epsilon, n=n), table)


def test_overflowing_threshold_raised_in_the_reference():
    s3 = tl.load_source(tl.builtin_spec_path("s3"))
    with pytest.raises(OverflowError):
        ref.typical_set(s3, tl.TypicalSetSpec(alpha=1000.0, epsilon=1.0, n=6))


def test_cli_typical_prints_inf_thresholds(capsys):
    path = str(tl.builtin_spec_path("s3"))
    code = cli.main(
        ["typical", "--source", path, "--n", "6", "--alpha", "1000", "--epsilon", "1"]
    )
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err == ""
    assert "set_size_upper,729,inf,pass" in captured.out.splitlines()


def split_threshold(source, table, alpha, which):
    """(eps, mates): a width that puts the D (or E) threshold, computed as
    `typical_set` computes it, strictly between the tilted levels of two
    levels of one tie group whose strings interleave in rank order (the
    group has more runs than levels), and the levels of that group."""
    n = table.n
    p, lp, _ = _on_support(tl.tilt(source, alpha), source)
    h_tilt = float(_cross_entropy(p, lp, n))
    tilted = alpha * table.levels - n * log_sum_exp(alpha * source.log_theta)
    sign = -1.0 if which == "D" else 1.0  # D's threshold lies below -h_tilt, E's above
    run_levels, _, run_groups = table._level_runs
    for group in np.unique(run_groups).tolist():
        mates = np.unique(run_levels[run_groups == group])
        if np.count_nonzero(run_groups == group) <= mates.size:
            continue  # its strings do not interleave
        ordered = np.unique(tilted[mates])
        for lo, hi in zip(ordered[:-1].tolist(), ordered[1:].tolist()):
            eps = sign * ((lo + hi) / 2 + h_tilt) / (abs(alpha) * n)
            for _ in range(64):
                if not eps > 0:
                    break
                threshold = -h_tilt + sign * (abs(alpha) * n * eps)
                if lo < threshold < hi:
                    return eps, mates
                eps = np.nextafter(eps, sign * (math.inf if threshold <= lo else -math.inf))
    raise AssertionError(f"no tie group of interleaved strings is split by {which}")


#: (weights, n, alpha, set) of the queries whose D or E threshold falls
#: between the levels of a tie group whose strings interleave: weights
#: 1 : r : r^2, one nudged, make classes of equal position sums a few ulps apart
SPLIT_GROUPS = {
    "D, forward ranks": ((1.0, 0.5 * (1 + 2e-15), 0.25), 6, 2.0, "D"),
    "E, forward ranks": ((1.0, 0.5 * (1 + 2e-15), 0.25), 6, 0.5, "E"),
    "D, reverse ranks": ((1.0, 0.4 * (1 - 3e-15), 0.16), 6, -1.5, "D"),
    "E, reverse ranks": ((1.0, 0.4 * (1 - 3e-15), 0.16), 6, -0.5, "E"),
}


@pytest.mark.parametrize("case", SPLIT_GROUPS.values(), ids=SPLIT_GROUPS.keys())
def test_a_threshold_inside_a_tie_group_matches_reference_bits(case):
    """The rank bounds take each string's run of equal levels, not its tie
    group: a class's span of ranks differs from its group's exactly where a
    threshold splits a group whose strings interleave."""
    weights, n, alpha, which = case
    source = tl.CategoricalSource(tl.letters(3), np.array(weights) / sum(weights))
    table = tl.build_rank_table(source, n)
    eps, mates = split_threshold(source, table, alpha, which)
    report = check_against_reference(source, tl.TypicalSetSpec(alpha, eps, n), table)
    inside = (report.d_classes if which == "D" else report.e_classes)[mates]
    assert inside.any() and not inside.all()

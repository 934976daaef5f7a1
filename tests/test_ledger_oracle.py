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
from tiltlab.numeric import _exp_or_inf

import reference_ledger as ref
from conftest import categorical_sources

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
def ledger_queries(draw):
    source = draw(categorical_sources(2, 6))
    k = len(source.alphabet)
    n = draw(st.integers(1, min(8, int(math.log(MAX_STRINGS) / math.log(k)))))
    alpha = draw(st.floats(0.01, 200.0)) * draw(st.sampled_from((-1.0, 1.0)))
    eps = draw(st.floats(1e-3, 2.0))
    return source, tl.TypicalSetSpec(alpha=alpha, epsilon=eps, n=n)


@settings(max_examples=150, deadline=None)
@given(ledger_queries())
def test_ledger_matches_reference_bits(query):
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

import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import tiltlab as tl
from tiltlab.errors import (
    BoundaryViolation,
    BudgetExceeded,
    NotNormalized,
    SourceSpecError,
    TieViolation,
    UnknownSymbol,
)
from tiltlab.sources import enumerate_word_log_probs

from conftest import categorical_sources

LOG5 = 1.6094379124341004


class TestValidate:
    def test_interior_source_accepted(self):
        tl.validate(tl.CategoricalSource(tl.letters(2), [0.2, 0.8]))

    def test_tied_extremes_rejected(self):
        with pytest.raises(TieViolation):
            tl.validate(tl.CategoricalSource(tl.letters(2), [0.5, 0.5]))

    def test_uniform_rejected(self):
        with pytest.raises(TieViolation):
            tl.validate(tl.uniform(3))

    def test_boundary_rejected(self):
        with pytest.raises(BoundaryViolation):
            tl.validate(tl.CategoricalSource(tl.letters(2), [0.0, 1.0]))

    def test_unnormalized_rejected(self):
        with pytest.raises(NotNormalized):
            tl.validate(tl.CategoricalSource(tl.letters(2), [0.2, 0.9]))

    def test_slack_within_tolerance_accepted(self):
        tl.validate(tl.CategoricalSource(tl.letters(2), [0.2, 0.8 + 5e-13]))


class TestTilt:
    def test_order_one_is_identity(self, s2):
        assert tl.tilt(s2, 1.0) is s2

    def test_order_zero_is_uniform(self, s2):
        assert np.array_equal(tl.tilt(s2, 0.0).theta, [0.5, 0.5])

    def test_order_two_binary(self, s2):
        # hand evaluation: (0.04, 0.64) / 0.68 = (1/17, 16/17)
        np.testing.assert_allclose(
            tl.tilt(s2, 2.0).theta, [1 / 17, 16 / 17], rtol=0, atol=1e-15
        )

    def test_order_two_ternary(self, s3):
        np.testing.assert_allclose(
            tl.tilt(s3, 2.0).theta, [4 / 38, 9 / 38, 25 / 38], rtol=0, atol=1e-15
        )

    def test_extreme_orders_stay_finite(self, s3):
        for alpha in (-200.0, 200.0, -1e4, 1e4):
            theta = tl.tilt(s3, alpha).theta
            assert np.all(np.isfinite(theta))
            assert abs(theta.sum() - 1.0) < 1e-12

    def test_reverse_binary(self, s2):
        np.testing.assert_allclose(tl.reverse(s2).theta, [0.8, 0.2], atol=1e-15)

    def test_reverse_ternary(self, s3):
        np.testing.assert_allclose(
            tl.reverse(s3).theta,
            [0.48387096774193548, 0.32258064516129032, 0.19354838709677419],
            atol=1e-15,
        )

    def test_reverse_of_uniform_is_uniform(self):
        np.testing.assert_allclose(tl.reverse(tl.uniform(3)).theta, 1 / 3, atol=1e-15)

    def test_family_sample_preserves_order(self, s3):
        alphas = [1.0, 2.0, 0.5]
        family = tl.tilted_family_sample(s3, alphas)
        assert len(family) == 3
        assert family[0] is s3
        np.testing.assert_allclose(family[1].theta, tl.tilt(s3, 2.0).theta)

    def test_family_limits(self, s3):
        near_uniform = tl.tilt(s3, 1e-9)
        assert np.max(np.abs(near_uniform.theta - 1 / 3)) < 1e-8
        point_mass = tl.tilt(s3, 300.0)
        assert point_mass.theta[2] > 1.0 - 1e-12  # piles onto the likeliest symbol

    def test_negative_order_needs_full_support(self):
        source = tl.CategoricalSource(tl.letters(3), [0.0, 0.4, 0.6])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(BoundaryViolation, match="full support"):
                tl.tilt(source, -1.0)
            with pytest.raises(BoundaryViolation, match="full support"):
                tl.reverse(source)
            np.testing.assert_allclose(
                tl.tilt(source, 2.0).theta, [0.0, 16 / 52, 36 / 52], rtol=0, atol=1e-15
            )


@settings(max_examples=60, deadline=None)
@given(categorical_sources(), st.floats(-4, 4), st.floats(-4, 4))
def test_tilt_composition(source, alpha, beta):
    lhs = tl.tilt(tl.tilt(source, alpha), beta).theta
    rhs = tl.tilt(source, alpha * beta).theta
    assert np.max(np.abs(lhs - rhs)) < 1e-12


@settings(max_examples=60, deadline=None)
@given(categorical_sources(), st.floats(1e-3, 4), st.booleans())
def test_non_zero_tilts_stay_valid(source, magnitude, negate):
    # orders too close to 0 push the tilt against the 1e-12 uniqueness floor,
    # as do sources whose extremes are barely distinct to begin with
    ordered = np.sort(source.theta)
    assume(ordered[1] - ordered[0] > 1e-6 and ordered[-1] - ordered[-2] > 1e-6)
    tl.validate(tl.tilt(source, -magnitude if negate else magnitude))


@settings(max_examples=60, deadline=None)
@given(categorical_sources())
def test_reverse_is_an_involution(source):
    assert np.max(np.abs(tl.reverse(tl.reverse(source)).theta - source.theta)) < 1e-12


@settings(max_examples=60, deadline=None)
@given(categorical_sources(), st.floats(0.1, 4))
def test_tilt_preserves_or_reverses_sort_order(source, alpha):
    gaps = np.diff(np.sort(source.theta))
    assume(np.min(gaps) > 1e-6)  # interior ties make the sort order ambiguous
    base = np.argsort(source.theta, kind="stable")
    assert np.array_equal(np.argsort(tl.tilt(source, alpha).theta, kind="stable"), base)
    reversed_order = np.argsort(tl.tilt(source, -alpha).theta, kind="stable")
    assert np.array_equal(reversed_order, base[::-1])


class TestStringLogProb:
    def test_binary_word(self, s2):
        assert tl.string_log_prob(s2, "bb") == pytest.approx(
            -0.44628710262841951, abs=1e-15
        )

    def test_markov_stationary_start(self, s3_markov):
        np.testing.assert_allclose(
            s3_markov.initial, [33 / 73, 21 / 73, 19 / 73], atol=1e-12
        )
        assert tl.string_log_prob(s3_markov, "a") == pytest.approx(
            math.log(33 / 73), abs=1e-12
        )

    def test_hmm_single_symbol(self, s3_hmm):
        np.testing.assert_allclose(s3_hmm.initial, [2 / 3, 1 / 3], atol=1e-12)
        assert tl.string_log_prob(s3_hmm, "b") == pytest.approx(
            math.log(0.4), abs=1e-12
        )

    def test_unknown_symbol(self, s2):
        with pytest.raises(UnknownSymbol):
            tl.string_log_prob(s2, "az")

    def test_information_positive(self, s2):
        assert tl.information(s2, "aa") == pytest.approx(2 * LOG5, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(categorical_sources(), st.data())
def test_log_prob_depends_only_on_type_class(source, data):
    k = len(source.alphabet)
    word = data.draw(st.lists(st.integers(0, k - 1), min_size=2, max_size=12))
    perm = data.draw(st.permutations(word))
    symbols = source.alphabet.symbols
    a = tl.string_log_prob(source, [symbols[i] for i in word])
    b = tl.string_log_prob(source, [symbols[i] for i in perm])
    assert a == b  # bit-identical by construction


class TestEnumeration:
    @pytest.mark.parametrize("name,n", [("s2", 5), ("s3", 4), ("s3_markov", 4), ("s3_hmm", 4)])
    def test_matches_single_string_path(self, name, n, request):
        source = request.getfixturevalue(name)
        logp = enumerate_word_log_probs(source, n)
        k = len(source.alphabet)
        assert logp.size == k**n
        assert np.exp(logp).sum() == pytest.approx(1.0, abs=1e-12)
        symbols = source.alphabet.symbols
        for lex in range(0, k**n, 7):
            digits = []
            v = lex
            for _ in range(n):
                v, d = divmod(v, k)
                digits.append(d)
            word = "".join(symbols[d] for d in reversed(digits))
            assert logp[lex] == pytest.approx(tl.string_log_prob(source, word), abs=5e-13)

    def test_budget_enforced(self, s2):
        with pytest.raises(BudgetExceeded):
            enumerate_word_log_probs(s2, 10, budget=1000)


class TestSpecFiles:
    def test_builtin_specs_load(self):
        for name in ("s2", "s3", "s3_markov", "s3_hmm", "s77_sample"):
            source = tl.load_source(tl.builtin_spec_path(name))
            assert len(source.alphabet) >= 2
        s77 = tl.load_source(tl.builtin_spec_path("s77_sample"))
        assert len(s77.alphabet) == 77
        tl.validate(s77)

    def test_parser_renormalizes_within_slack(self):
        source = tl.source_from_dict(
            {"kind": "categorical", "alphabet": ["a", "b"], "probs": [0.2, 0.8 + 9e-13]}
        )
        assert source.theta.sum() == pytest.approx(1.0, abs=1e-15)

    def test_parser_rejects_beyond_slack(self):
        with pytest.raises(SourceSpecError):
            tl.source_from_dict(
                {"kind": "categorical", "alphabet": ["a", "b"], "probs": [0.2, 0.9]}
            )

    def test_parser_rejects_unknown_kind(self):
        with pytest.raises(SourceSpecError):
            tl.source_from_dict({"kind": "mystery", "alphabet": ["a", "b"]})

    def test_markov_explicit_initial(self):
        source = tl.source_from_dict(
            {
                "kind": "markov",
                "alphabet": ["a", "b"],
                "transition": [[0.5, 0.5], [0.1, 0.9]],
                "initial": [0.25, 0.75],
            }
        )
        assert source.initial.tolist() == [0.25, 0.75]

    def test_hmm_states_consistency_checked(self):
        with pytest.raises(SourceSpecError):
            tl.source_from_dict(
                {
                    "kind": "hmm",
                    "states": 3,
                    "alphabet": ["a", "b"],
                    "transition": [[0.5, 0.5], [0.1, 0.9]],
                    "emission": [[0.5, 0.5], [0.2, 0.8]],
                }
            )

    def test_load_source_round_trip(self, tmp_path):
        path = tmp_path / "src.json"
        path.write_text(
            json.dumps(
                {"kind": "categorical", "alphabet": ["x", "y", "z"], "probs": [0.1, 0.2, 0.7]}
            )
        )
        source = tl.load_source(path)
        assert source.alphabet.symbols == ("x", "y", "z")

    def test_load_source_bad_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(SourceSpecError):
            tl.load_source(path)

    def test_duplicate_symbols_rejected(self):
        with pytest.raises(SourceSpecError):
            tl.Alphabet(("a", "b", "a"))

    def test_markov_rows_must_be_stochastic(self):
        with pytest.raises(SourceSpecError):
            tl.source_from_dict(
                {
                    "kind": "markov",
                    "alphabet": ["a", "b"],
                    "transition": [[0.5, 0.6], [0.5, 0.5]],
                    "initial": [0.5, 0.5],
                }
            )


def test_stationary_distribution_solves_fixed_point(s3_markov):
    pi = tl.stationary_distribution(s3_markov.transition)
    np.testing.assert_allclose(pi @ s3_markov.transition, pi, atol=1e-14)
    assert pi.sum() == pytest.approx(1.0, abs=1e-14)

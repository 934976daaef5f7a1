import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import tiltlab as tl
from tiltlab import guesswork as gw
from tiltlab import sources
from tiltlab.errors import BudgetExceeded, InvalidInput, UnknownString
from tiltlab.guesswork import TIE_TOL_PER_SYMBOL

from conftest import categorical_sources

H8_S2 = 4.003219388305503


def brute_force_ranks(symbols, probs, n):
    """Exact-rational oracle: sorted by (probability desc, lexicographic)."""
    words = ["".join(w) for w in itertools.product(symbols, repeat=n)]
    table = {w: math.prod(probs[symbols.index(c)] for c in w) for w in words}
    ordered = sorted(words, key=lambda w: (Fraction(-1) * table[w], w))
    return {w: r for r, w in enumerate(ordered, start=1)}


class TestRankTable:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_exact_rational_oracle_binary(self, s2, n):
        oracle = brute_force_ranks(("a", "b"), [Fraction(1, 5), Fraction(4, 5)], n)
        table = tl.build_rank_table(s2, n)
        for word, rank in oracle.items():
            assert table.guesswork(word) == rank

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_exact_rational_oracle_ternary(self, s3, n):
        oracle = brute_force_ranks(
            ("a", "b", "c"), [Fraction(1, 5), Fraction(3, 10), Fraction(1, 2)], n
        )
        table = tl.build_rank_table(s3, n)
        for word, rank in oracle.items():
            assert table.guesswork(word) == rank

    def test_uniform_table_is_lexicographic(self):
        table = tl.build_rank_table(tl.uniform(2), 2)
        assert [table.guesswork(w) for w in ("aa", "ab", "ba", "bb")] == [1, 2, 3, 4]

    def test_binary_n2_example(self, s2):
        table = tl.build_rank_table(s2, 2)
        assert [table.guesswork(w) for w in ("bb", "ab", "ba", "aa")] == [1, 2, 3, 4]
        assert [table.reverse_guesswork(w) for w in ("bb", "ab", "ba", "aa")] == [
            4,
            3,
            2,
            1,
        ]

    def test_ternary_n1_example(self, s3):
        table = tl.build_rank_table(s3, 1)
        assert (table.guesswork("c"), table.guesswork("b"), table.guesswork("a")) == (
            1,
            2,
            3,
        )

    def test_rank_functions(self, s2):
        table = tl.build_rank_table(s2, 2)
        assert table.guesswork("bb") == 1
        assert table.reverse_guesswork("aa") == 1
        assert table.log_guesswork("bb") == 0.0
        assert table.log_reverse_guesswork("bb") == math.log(4)

    def test_g_plus_r_constant(self, s3):
        table = tl.build_rank_table(s3, 3)
        ranks = table.rank_of
        assert np.all(ranks + (table.size + 1 - ranks) == table.size + 1)
        assert sorted(ranks.tolist()) == list(range(1, table.size + 1))

    def test_unknown_string(self, s2):
        table = tl.build_rank_table(s2, 2)
        with pytest.raises(UnknownString):
            table.guesswork("abc")
        with pytest.raises(UnknownString):
            table.guesswork("az")

    def test_budget(self, s2):
        with pytest.raises(BudgetExceeded):
            tl.build_rank_table(s2, 20, budget=2**10)

    def test_records_in_rank_order(self, s2):
        rows = list(tl.build_rank_table(s2, 2).records())
        assert rows[0] == ("bb", pytest.approx(math.log(0.64)), 1, 4)
        assert [g for _, _, g, _ in rows] == [1, 2, 3, 4]

    def test_records_decode_across_chunks(self, monkeypatch):
        source = tl.CategoricalSource(tl.Alphabet(("x", "yy", "zzz")), [0.2, 0.3, 0.5])
        table = tl.build_rank_table(source, 5)
        strings = ["".join(w) for w in itertools.product(source.alphabet.symbols, repeat=5)]
        expected = [
            (strings[i], float(table.log_probs[i]), r, table.size + 1 - r)
            for r, i in enumerate(table.order.tolist(), start=1)
        ]
        monkeypatch.setattr(sources, "_BLOCK", 7)  # 243 rows: 34 full chunks and 5 left
        rows = list(table.records())
        assert rows == expected
        assert {tuple(map(type, row)) for row in rows} == {(str, float, int, int)}
        assert [table.string_at(i) for i in range(table.size)] == strings


class TestGuessworkPmf:
    def test_uniform(self):
        pmf = tl.guesswork_pmf(tl.build_rank_table(tl.uniform(2), 2))
        np.testing.assert_allclose(pmf, 0.25)

    def test_binary_n2(self, s2):
        np.testing.assert_allclose(
            tl.guesswork_pmf(tl.build_rank_table(s2, 2)), [0.64, 0.16, 0.16, 0.04]
        )

    def test_ternary_n1(self, s3):
        np.testing.assert_allclose(
            tl.guesswork_pmf(tl.build_rank_table(s3, 1)), [0.5, 0.3, 0.2]
        )

    @pytest.mark.parametrize("name,n", [("s2", 6), ("s3", 5), ("s3_markov", 5), ("s3_hmm", 5)])
    def test_sums_to_one_and_non_increasing(self, name, n, request):
        source = request.getfixturevalue(name)
        pmf = tl.guesswork_pmf(tl.build_rank_table(source, n))
        assert pmf.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(np.diff(pmf) <= TIE_TOL_PER_SYMBOL * n)


class TestCorridorMass:
    @pytest.mark.parametrize("epsilon", [math.nan, -0.1, 0.0, math.inf])
    def test_width_must_be_positive_and_finite(self, s3, epsilon):
        table = tl.build_rank_table(s3, 4)
        with pytest.raises(InvalidInput, match="epsilon must be positive and finite"):
            gw.corridor_mass(table, [0.5], epsilon)

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_every_t_must_be_finite(self, s3, t):
        table = tl.build_rank_table(s3, 4)
        with pytest.raises(InvalidInput, match="must be finite"):
            gw.corridor_mass(table, np.array([0.5, t]), 0.1)

    @pytest.mark.parametrize("ts", [0.5, [[0.4, 0.7]]], ids=["scalar", "2-D"])
    def test_centres_must_be_one_dimensional(self, s3, ts):
        table = tl.build_rank_table(s3, 4)
        with pytest.raises(InvalidInput, match="^ts must be one-dimensional$"):
            gw.corridor_mass(table, ts, 0.1)
        with pytest.raises(InvalidInput, match="^ts must be one-dimensional$"):
            tl.rate_points(s3, "forward_g", ts)


class TestTypicalSet:
    def test_small_epsilon_empty(self, s2):
        report = tl.typical_set(s2, tl.TypicalSetSpec(alpha=1.0, epsilon=0.1, n=1))
        assert report.size == 0
        assert report.probability == 0.0

    def test_membership_is_a_type_class(self, s2):
        # at this width only the strings with exactly two low-probability
        # symbols fall inside the window (28 of them), checked by counting
        report = tl.typical_set(s2, tl.TypicalSetSpec(alpha=1.0, epsilon=0.1, n=8))
        members = report.member_strings("A")
        assert len(members) == 28
        assert all(w.count("a") == 2 for w in members)
        assert report.probability == pytest.approx(28 * 0.2**2 * 0.8**6, rel=1e-12)
        assert len(report.member_strings("B")) == 14

    def test_order_one_uniform_information_covers_everything(self):
        # validate rejects the exact uniform source, so use a near-uniform one
        nearly_uniform = tl.CategoricalSource(tl.letters(3), [0.333, 0.3333, 0.3337])
        report = tl.typical_set(nearly_uniform, tl.TypicalSetSpec(1.0, 0.1, 2))
        assert report.size == 9
        assert report.probability == pytest.approx(1.0, abs=1e-12)

    def test_subset_chain(self, s3):
        for alpha in (-2.0, -0.5, 0.5, 1.0, 2.0):
            report = tl.typical_set(s3, tl.TypicalSetSpec(alpha, 0.15, 6))
            a = set(report.a_members.tolist())
            assert set(report.b_members.tolist()) <= a
            assert a <= set(report.d_members.tolist())
            assert a <= set(report.e_members.tolist())
            assert len(report.b_members) == len(report.a_members) // 2

    def test_b_holds_the_least_likely_half_under_the_tilt(self, s3):
        report = tl.typical_set(s3, tl.TypicalSetSpec(2.0, 0.2, 5))
        tilted = tl.tilt(s3, 2.0)
        table = report.table
        b = set(report.member_strings("B"))
        rest = [w for w in report.member_strings("A") if w not in b]
        worst_b = max(tl.string_log_prob(tilted, w) for w in b)
        best_rest = min(tl.string_log_prob(tilted, w) for w in rest)
        assert worst_b <= best_rest + 1e-12

    def test_tilted_set_equivalence(self, s3, s2):
        # the order-alpha set of the source is the order-1 set of its tilt
        for source in (s2, s3):
            for alpha in (-2.0, -0.5, 0.5, 2.0):
                for eps in (0.1, 0.2):
                    lhs = tl.typical_set(source, tl.TypicalSetSpec(alpha, eps, 6))
                    rhs = tl.typical_set(
                        tl.tilt(source, alpha),
                        tl.TypicalSetSpec(1.0, abs(alpha) * eps, 6),
                    )
                    assert np.array_equal(lhs.a_members, rhs.a_members)

    def test_chebyshev_coverage(self, s3):
        for eps in (0.1, 0.2, 0.4):
            for n in (4, 8):
                report = tl.typical_set(s3, tl.TypicalSetSpec(1.0, eps, n))
                floor = 1.0 - tl.varentropy(s3, n) / (n * eps) ** 2
                assert report.probability >= floor

    def test_every_string_is_typical_for_some_order(self, s3):
        n, eps = 6, 0.1
        covered = np.zeros(3**n, dtype=bool)
        table = tl.build_rank_table(s3, n)
        for alpha in np.linspace(-25, 25, 201):
            if alpha == 0:
                continue
            report = tl.typical_set(
                s3, tl.TypicalSetSpec(float(alpha), eps, n), table=table
            )
            covered[report.a_members] = True
        assert covered.all()

    def test_table_of_another_length_is_rejected(self, s3):
        with pytest.raises(InvalidInput, match="length-8"):
            tl.typical_set(s3, tl.TypicalSetSpec(1.0, 0.1, 6), table=tl.build_rank_table(s3, 8))

    def test_table_without_type_classes_is_rejected(self, s3, s3_markov):
        # a Markov table has levels too, but they are no type classes of s3
        with pytest.raises(InvalidInput, match="another source"):
            tl.typical_set(s3, tl.TypicalSetSpec(1.0, 0.1, 6), table=tl.build_rank_table(s3_markov, 6))

    def test_table_of_another_source_is_rejected(self, s3):
        other = tl.CategoricalSource(s3.alphabet, [0.1, 0.3, 0.6])
        with pytest.raises(InvalidInput, match="another source"):
            tl.typical_set(s3, tl.TypicalSetSpec(1.0, 0.1, 6), table=tl.build_rank_table(other, 6))

    def test_table_of_a_reloaded_spec_is_accepted(self, s3):
        spec = tl.TypicalSetSpec(1.0, 0.1, 6)
        reloaded = tl.load_source(tl.builtin_spec_path("s3"))
        assert reloaded is not s3
        report = tl.typical_set(s3, spec, table=tl.build_rank_table(reloaded, 6))
        expected = tl.typical_set(s3, spec)
        assert report.size == expected.size == 266
        assert report.probability == expected.probability
        assert [b.lhs for b in report.bounds] == [b.lhs for b in expected.bounds]

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            tl.TypicalSetSpec(alpha=0.0, epsilon=0.1, n=2)
        with pytest.raises(ValueError):
            tl.TypicalSetSpec(alpha=1.0, epsilon=0.0, n=2)
        with pytest.raises(ValueError):
            tl.TypicalSetSpec(alpha=1.0, epsilon=0.1, n=0)


class TestBoundLedger:
    @pytest.mark.parametrize("alpha", [2.0, -1.0])
    def test_ternary_bounds_all_pass(self, s3, alpha):
        bounds = tl.bound_ledger(s3, tl.TypicalSetSpec(alpha, 0.2, 8))
        assert all(b.passed for b in bounds)
        rank_tag = "guesswork" if alpha > 0 else "reverse_guesswork"
        ids = {b.bound_id for b in bounds}
        assert f"median_{rank_tag}_lower" in ids
        assert {"member_logprob_lower", "set_size_upper", "set_prob_lower"} <= ids

    def test_flags(self, s3):
        bounds = tl.bound_ledger(s3, tl.TypicalSetSpec(0.5, 0.05, 6))
        by_id = {b.bound_id: b for b in bounds}
        # the concentration prefactor is negative here, so lower bounds are vacuous
        assert by_id["set_size_lower"].flag == "vacuous-pass"
        assert by_id["set_size_upper"].flag == "pass"

    def test_window_width_underflow_takes_the_limit(self, s2):
        # n*n*eps*eps underflows to 0: the Chebyshev factor is -inf, so every
        # lower bound is a vacuous pass at -inf
        report = tl.typical_set(s2, tl.TypicalSetSpec(1.0, 1e-200, 2))
        by_id = {b.bound_id: b for b in report.bounds}
        for bound_id in ("set_size_lower", "set_prob_lower", "small_guesswork_in_inner"):
            assert by_id[bound_id].rhs == -math.inf
            assert by_id[bound_id].flag == "vacuous-pass"
        assert by_id["median_guesswork_lower"].rhs == -math.inf
        assert report.all_passed and report.size == 0

    def test_set_prob_lower_holds_with_equality(self, s3):
        # at alpha = 1 the bound is Chebyshev's P(A) >= 1 - V/(n eps)^2, here 1 >= 1
        report = tl.typical_set(s3, tl.TypicalSetSpec(alpha=1.0, epsilon=1e308, n=4))
        bound = {b.bound_id: b for b in report.bounds}["set_prob_lower"]
        assert (bound.lhs, bound.rhs, bound.flag) == (1.0, 1.0, "pass")
        assert report.all_passed

    def test_both_regimes_reported_at_order_one(self, s3):
        ids = [b.bound_id for b in tl.bound_ledger(s3, tl.TypicalSetSpec(1.0, 0.2, 6))]
        assert "inner_prob_upper" in ids and "outer_prob_upper" in ids
        assert len(ids) == len(set(ids))


class TestOrderEquivalence:
    def test_tilt_is_equivalent(self, s2):
        res = tl.order_equivalent(s2, tl.tilt(s2, 2.0), n_max=6)
        assert res.equivalent
        assert res.alpha == pytest.approx(2.0, abs=1e-12)
        assert res.residual < 1e-9
        assert res.witness is None

    def test_reverse_is_not_equivalent(self, s2):
        res = tl.order_equivalent(s2, tl.reverse(s2), n_max=4)
        assert not res.equivalent
        assert res.witness is not None
        n, x, y = res.witness
        assert n == 1 and {x, y} == {"a", "b"}

    def test_non_tilt_pair_detected_with_witness(self, s3):
        other = tl.CategoricalSource(s3.alphabet, [0.25, 0.3, 0.45])
        res = tl.order_equivalent(s3, other, n_max=8)
        assert not res.equivalent
        assert res.residual > 1e-9
        n, x, y = res.witness
        ta = tl.build_rank_table(s3, n)
        tb = tl.build_rank_table(other, n)
        assert (ta.guesswork(x) < ta.guesswork(y)) != (tb.guesswork(x) < tb.guesswork(y))


    @pytest.mark.parametrize("n_max", [2.5, True, 0, -3, "4"])
    def test_n_max_is_an_integer_of_at_least_one(self, s2, n_max):
        with pytest.raises(InvalidInput, match="n_max must be an integer"):
            tl.order_equivalent(s2, tl.tilt(s2, 2.0), n_max=n_max)

    def test_n_max_takes_numpy_integers(self, s2):
        res = tl.order_equivalent(s2, tl.reverse(s2), n_max=np.int64(2))
        assert res.witness is not None and res.witness[0] == 1


def rank_of_witness(mu, rho, n_max):
    """The witness rule on `rank_of`: among the strings whose ranks differ,
    the one mu ranks first, and the string rho puts at that rank."""
    for n in range(1, n_max + 1):
        t_mu, t_rho = tl.build_rank_table(mu, n), tl.build_rank_table(rho, n)
        if np.array_equal(t_mu.rank_of, t_rho.rank_of):
            continue
        diff = np.flatnonzero(t_mu.rank_of != t_rho.rank_of)
        first = diff[np.argmin(t_mu.rank_of[diff])]
        partner = int(t_rho.order[int(t_mu.rank_of[first]) - 1])
        return n, t_mu.string_at(int(first)), t_mu.string_at(partner)
    return None


@settings(max_examples=60, deadline=None)
@given(st.data(), st.integers(2, 4), st.booleans())
def test_order_witness_matches_the_rank_of_rule(data, k, reverse):
    mu = data.draw(categorical_sources(min_size=k, max_size=k))
    rho = tl.reverse(mu) if reverse else data.draw(categorical_sources(min_size=k, max_size=k))
    n_max = 6 - k
    assert tl.order_equivalent(mu, rho, n_max=n_max).witness == rank_of_witness(mu, rho, n_max)


@settings(max_examples=25, deadline=None)
@given(categorical_sources(max_size=3), st.floats(0.2, 3.0), st.integers(1, 4))
def test_positive_tilts_never_change_ranks(source, alpha, n):
    # near-coincident log-probs would trip the numeric tie guard at different
    # scales before and after tilting
    gaps = np.diff(np.sort(np.log(source.theta)))
    assume(np.min(gaps) > 1e-8)
    base = tl.build_rank_table(source, n)
    tilted = tl.build_rank_table(tl.tilt(source, alpha), n)
    assert np.array_equal(base.rank_of, tilted.rank_of)

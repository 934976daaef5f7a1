import math

import numpy as np
import pytest

import tiltlab as tl
from tiltlab.errors import DegenerateVariance, NegativeVariance, OutOfRange

# frozen: closed-form rank at the untilted level of the binary source, n=8
G_S2_N8 = 11.483056163001106
H8_S2 = 4.003219388305503
V8_S2 = 2.4599194312611913
H1_MARKOV = 1.0676640805354035
H1_HMM = 0.99083538644384915


class TestApproxRank:
    def test_zero_varentropy_reduces_exactly(self):
        # the denominator collapses to exactly 2
        for h in (0.7, 3.0, 11.2):
            assert tl.approx_rank(h, 0.0) == math.exp(h) / 2.0

    def test_half_the_strings_at_the_uniform_point(self):
        for k, n in ((2, 8), (3, 8), (2, 16)):
            total = k**n
            assert tl.approx_rank(math.log(float(total)), 0.0) == pytest.approx(
                total / 2.0, rel=1e-12
            )

    def test_binary_value(self, s2):
        assert tl.approx_rank(H8_S2, V8_S2) == pytest.approx(G_S2_N8, rel=1e-12)

    def test_negative_varentropy_rejected(self):
        with pytest.raises(NegativeVariance):
            tl.approx_rank(1.0, -1e-9)

    def test_entropy_beyond_the_float_range_gives_inf(self):
        assert tl.approx_rank(800.0, 1.0) == math.inf
        # the largest finite e^h keeps its bits
        assert tl.approx_rank(709.78, 0.0) == math.exp(709.78) / 2.0


class TestApproxGuesswork:
    def test_forward_branch(self, s2):
        measures = tl.word_measures(s2, 8)
        assert tl.approx_guesswork(measures, "forward") == pytest.approx(
            G_S2_N8, rel=1e-12
        )

    def test_reverse_branch_folds_through_the_total(self, s2):
        # the reversed source has the same word measures by symbol swap
        measures = tl.word_measures(tl.reverse(s2), 8)
        assert tl.approx_guesswork(measures, "reverse", 2) == pytest.approx(
            2**8 + 1 - G_S2_N8, rel=1e-12
        )

    def test_unknown_branch(self, s2):
        with pytest.raises(ValueError):
            tl.approx_guesswork(tl.word_measures(s2, 4), "sideways")


class TestWordMeasures:
    def test_iid_scales(self, s2):
        wm = tl.word_measures(s2, 8)
        assert wm.entropy == pytest.approx(H8_S2, abs=1e-12)
        assert wm.varentropy == pytest.approx(V8_S2, abs=1e-12)

    def test_markov_word_entropy(self, s3_markov):
        assert tl.word_measures(s3_markov, 1).entropy == pytest.approx(
            H1_MARKOV, abs=1e-12
        )

    def test_hmm_word_entropy(self, s3_hmm):
        assert tl.word_measures(s3_hmm, 1).entropy == pytest.approx(H1_HMM, abs=1e-12)

    @pytest.mark.parametrize("n", [0, -3])
    def test_n_below_one_rejected(self, s2, s3_markov, n):
        for source in (s2, s3_markov):
            with pytest.raises(ValueError, match="n must be >= 1"):
                tl.word_measures(source, n)

    def test_markov_matches_enumeration_against_iid_wrapping(self, s3_markov):
        wm = tl.word_measures(s3_markov, 6)
        logp = tl.enumerate_word_log_probs(s3_markov, 6)
        p = np.exp(logp)
        assert wm.entropy == pytest.approx(float(-(p * logp).sum()), abs=1e-12)


class TestApproxSetSize:
    def test_against_exact_count_binary(self, s2):
        exact = tl.typical_set(s2, tl.TypicalSetSpec(1.0, 0.1, 8)).size
        approx = tl.approx_set_size(s2, 1.0, 0.1, 8)
        assert 0.5 < approx / exact < 2.0

    def test_against_exact_count_ternary(self, s3):
        exact = tl.typical_set(s3, tl.TypicalSetSpec(1.0, 0.2, 8)).size
        approx = tl.approx_set_size(s3, 1.0, 0.2, 8)
        assert 0.5 < approx / exact < 2.0

    def test_exact_set_collapses_for_extreme_orders(self, s3):
        # the exact window around the order-20 level holds only the single
        # most likely string; the endpoint-form estimate stays finite but
        # overshoots out here (its derivation assumes the window edge, not
        # the density peak, dominates)
        assert tl.typical_set(s3, tl.TypicalSetSpec(20.0, 0.05, 8)).size == 1
        value = tl.approx_set_size(s3, 20.0, 0.05, 8)
        assert np.isfinite(value) and value > 0

    def test_positive_for_negative_orders(self, s3):
        assert tl.approx_set_size(s3, -1.0, 0.1, 8) > 0.0

    def test_size_beyond_the_float_range_is_inf(self, s3):
        assert tl.approx_set_size(s3, 5.0, 1.0, 200) == math.inf
        finite = tl.approx_set_size(s3, 5.0, 1.0, 100)
        tilted = tl.tilt(s3, 5.0)
        v = tl.varentropy(tilted, 100)
        a = 5.0 * 100 * 1.0
        expected = (1.0 - math.exp(-2.0 * a)) / math.sqrt(2.0 * math.pi * v)
        assert finite == expected * math.exp(tl.entropy(tilted, 100) + a)

    def test_degenerate_variance_rejected(self, s3):
        tilted_to_nothing = tl.CategoricalSource(tl.letters(2), [0.5, 0.5])
        with pytest.raises((DegenerateVariance, Exception)):
            tl.approx_set_size(tilted_to_nothing, 1.0, 0.1, 4)


class TestApproxPmfCurve:
    def test_grid_must_cover_both_signs(self, s2):
        with pytest.raises(ValueError):
            tl.approx_pmf_curve(s2, 4, alpha_grid=[0.5, 1.0, 2.0])
        with pytest.raises(ValueError):
            tl.approx_pmf_curve(s2, 4, alpha_grid=[-1.0, 0.0, 1.0])

    def test_points_sorted_and_clamped(self, s2):
        points = tl.approx_pmf_curve(s2, 8)
        ranks = [p.guesswork_rank for p in points]
        assert ranks == sorted(ranks)
        assert ranks[0] >= 1.0 and ranks[-1] <= 256.0
        assert {p.branch for p in points} == {"forward", "reverse"}

    def test_branch_ranks_increase_toward_zero_order(self, s2):
        points = tl.approx_pmf_curve(s2, 8)
        fwd = [p for p in points if p.branch == "forward"]
        fwd.sort(key=lambda p: -p.alpha)  # alpha decreasing toward 0+
        raw = [p.approx_rank for p in fwd if 1.0 < p.approx_rank < 256.0]
        assert all(a < b for a, b in zip(raw, raw[1:]))
        rev = [p for p in points if p.branch == "reverse"]
        rev.sort(key=lambda p: p.alpha)  # alpha increasing toward 0-
        raw = [p.approx_rank for p in rev if 1.0 < p.approx_rank < 256.0]
        assert all(a < b for a, b in zip(raw, raw[1:]))

    def test_branches_agree_near_zero_order(self, s2):
        points = tl.approx_pmf_curve(s2, 8, alpha_grid=[-1e-9, 1e-9])
        by_branch = {p.branch: p for p in points}
        gap = abs(
            by_branch["forward"].guesswork_rank - by_branch["reverse"].guesswork_rank
        )
        assert gap <= 1.0 + 1e-6

    def test_probability_levels_match_cross_entropy(self, s2):
        points = tl.approx_pmf_curve(s2, 8, alpha_grid=[-2.0, 1.0, 2.0])
        for p in points:
            if p.branch == "forward":
                tilted = tl.tilt(s2, p.alpha)
                assert p.level_nats == pytest.approx(
                    tl.cross_entropy(tilted, s2, 8), abs=1e-10
                )
            assert p.probability == pytest.approx(math.exp(-p.level_nats), rel=1e-12)

    def test_tilted_word_varentropy_consistent_with_scaling(self, s2):
        # word-level tilted varentropy equals alpha^2 times the cross variance
        points = tl.approx_pmf_curve(s2, 8, alpha_grid=[-2.0, 0.5, 2.0])
        for p in points:
            tilted = tl.tilt(s2, p.alpha)
            assert p.tilted_varentropy_nats2 == pytest.approx(
                p.alpha**2 * tl.cross_varentropy(tilted, s2, 8), abs=1e-10
            )

    @pytest.mark.parametrize("n", [0, -3])
    def test_n_below_one_rejected(self, s2, n):
        with pytest.raises(ValueError, match="n must be >= 1"):
            tl.approx_pmf_curve(s2, n)

    def test_string_count_beyond_the_float_range(self, s2):
        with pytest.raises(OutOfRange, match=r"2\^1100 strings"):
            tl.approx_pmf_curve(s2, 1100)

    def test_non_iid_needs_budget(self, s3_hmm):
        with pytest.raises(Exception):
            tl.approx_pmf_curve(s3_hmm, 20, budget=2**10)


class TestInterpolation:
    def test_exact_hit_on_a_curve_point(self, s2):
        points = tl.approx_pmf_curve(s2, 8)
        target = points[30]
        got = tl.interpolated_log_rank(points, -target.level_nats)
        assert got[0] == pytest.approx(math.log(target.guesswork_rank), abs=1e-9)

    def test_monotone_in_level(self, s2):
        points = tl.approx_pmf_curve(s2, 8)
        levels = np.linspace(2.0, 12.0, 50)
        values = tl.interpolated_log_rank(points, -levels)
        assert np.all(np.diff(values) >= 0)

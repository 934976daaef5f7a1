import dataclasses
import math

import numpy as np
import pytest

import tiltlab as tl
from tiltlab import rates as rt
from tiltlab import verify
from tiltlab.errors import OutOfRange, TieViolation
from tiltlab.rates import KINDS

LOG2 = math.log(2.0)
LOG5 = 1.6094379124341004
T_MINUS_S2 = 0.22314355131420976
H_TILT_HALF_S2 = 0.63651416829481282  # entropy of the order-1/2 tilt of s2
D_UNIFORM_S2 = 0.22314355131420976
VX_U2_S2 = 0.48045301391820142


class TestAlphaForEntropy:
    def test_at_the_entropy_the_order_is_one(self, s2):
        assert tl.alpha_for_entropy(s2, tl.entropy(s2), "positive") == pytest.approx(
            1.0, abs=1e-9
        )

    def test_round_trip_through_a_tilt(self, s2):
        t = tl.entropy(tl.tilt(s2, 0.5))
        assert t == pytest.approx(H_TILT_HALF_S2, abs=1e-14)
        assert tl.alpha_for_entropy(s2, t, "positive") == pytest.approx(0.5, abs=1e-10)

    def test_negative_branch_round_trip(self, s3):
        t = tl.entropy(tl.tilt(s3, -1.7))
        assert tl.alpha_for_entropy(s3, t, "negative") == pytest.approx(-1.7, abs=1e-9)

    def test_near_uniform_entropy_gives_small_order(self, s2):
        alpha = tl.alpha_for_entropy(s2, LOG2 - 1e-6, "positive")
        assert 0 < alpha < 5e-3
        assert tl.entropy(tl.tilt(s2, alpha)) == pytest.approx(LOG2 - 1e-6, abs=1e-10)

    def test_out_of_range(self, s2):
        with pytest.raises(OutOfRange):
            tl.alpha_for_entropy(s2, LOG2 + 0.1, "positive")
        with pytest.raises(OutOfRange):
            tl.alpha_for_entropy(s2, -0.1, "negative")

    def test_residual_within_tolerance_across_domain(self, s3):
        logk = math.log(3)
        for frac in np.linspace(0.02, 0.98, 25):
            t = float(frac * logk)
            for branch in ("positive", "negative"):
                alpha = tl.alpha_for_entropy(s3, t, branch)
                assert abs(tl.entropy(tl.tilt(s3, alpha)) - t) <= 1e-10


class TestAlphaForCrossEntropy:
    def test_at_the_entropy(self, s2):
        assert tl.alpha_for_cross_entropy(s2, tl.entropy(s2)) == pytest.approx(
            1.0, abs=1e-9
        )

    def test_at_the_uniform_level_the_order_vanishes(self, s2):
        t = tl.cross_entropy(tl.uniform(2), s2)
        assert abs(tl.alpha_for_cross_entropy(s2, t)) < 1e-6

    def test_inverse_of_the_order_two_cross_entropy(self, s2):
        assert tl.alpha_for_cross_entropy(s2, 0.3046902784389092) == pytest.approx(
            2.0, abs=1e-9
        )

    def test_out_of_range(self, s2):
        with pytest.raises(OutOfRange):
            tl.alpha_for_cross_entropy(s2, 0.1)


class TestCrossEntropyRange:
    def test_binary(self, s2):
        rng = tl.cross_entropy_range(s2)
        assert rng.t_minus == pytest.approx(T_MINUS_S2, abs=1e-9)
        assert rng.t_plus == pytest.approx(LOG5, abs=1e-9)

    def test_ternary(self, s3):
        rng = tl.cross_entropy_range(s3)
        assert rng.t_minus == pytest.approx(LOG2, abs=1e-9)
        assert rng.t_plus == pytest.approx(LOG5, abs=1e-9)

    def test_entropy_sits_inside(self, s3):
        rng = tl.cross_entropy_range(s3)
        assert rng.t_minus < tl.entropy(s3) < rng.t_plus

    def test_uniform_rejected(self):
        with pytest.raises(TieViolation):
            tl.cross_entropy_range(tl.uniform(3))


class TestRateValues:
    def test_zero_at_the_entropy(self, s2, s3):
        for source in (s2, s3):
            h = tl.entropy(source)
            assert tl.rate_g(source, h) == pytest.approx(0.0, abs=1e-12)
            assert tl.rate_i(source, h) == pytest.approx(0.0, abs=1e-12)

    def test_reverse_rate_is_positive_at_the_entropy(self, s2, s3):
        # the negative branch never passes through the source itself, so the
        # reverse curve stays strictly positive; for the binary source the
        # order -1 tilt has the same entropy by symbol swap
        assert tl.rate_r(s2, tl.entropy(s2)) == pytest.approx(
            tl.relative_entropy(tl.reverse(s2), s2), abs=1e-9
        )
        assert tl.rate_r(s3, tl.entropy(s3)) > 0.1

    def test_endpoints_binary(self, s2):
        assert tl.rate_g(s2, LOG2) == pytest.approx(D_UNIFORM_S2, abs=1e-9)
        assert tl.rate_g(s2, LOG2 - 1e-8) == pytest.approx(D_UNIFORM_S2, abs=1e-5)
        assert tl.rate_g(s2, 0.0) == pytest.approx(T_MINUS_S2, abs=1e-12)
        assert tl.rate_r(s2, 0.0) == pytest.approx(LOG5, abs=1e-12)
        assert tl.rate_r(s2, 1e-6) == pytest.approx(LOG5, abs=1e-4)

    def test_information_rate_domain(self, s2):
        rng = tl.cross_entropy_range(s2)
        assert tl.rate_i(s2, rng.t_minus) == pytest.approx(T_MINUS_S2, abs=1e-12)
        assert tl.rate_i(s2, rng.t_plus) == pytest.approx(LOG5, abs=1e-12)
        mid = tl.cross_entropy(tl.uniform(2), s2)
        assert tl.rate_i(s2, mid) == pytest.approx(D_UNIFORM_S2, abs=1e-9)

    def test_out_of_range(self, s2):
        with pytest.raises(OutOfRange):
            tl.rate_g(s2, -0.01)
        with pytest.raises(OutOfRange):
            tl.rate_r(s2, LOG2 + 0.01)
        with pytest.raises(OutOfRange):
            tl.rate_i(s2, 0.1)


class TestRateDerivatives:
    def test_zero_slope_at_the_entropy(self, s3):
        d1, _ = tl.rate_derivatives(s3, tl.entropy(s3), "forward_g")
        assert d1 == pytest.approx(0.0, abs=1e-9)

    def test_slope_at_order_two(self, s2):
        t = tl.entropy(tl.tilt(s2, 2.0))
        d1, d2 = tl.rate_derivatives(s2, t, "forward_g")
        assert d1 == pytest.approx(-0.5, abs=1e-9)
        assert d2 == pytest.approx(1.0 / (2.0 * tl.varentropy(tl.tilt(s2, 2.0))), rel=1e-9)

    def test_information_slope_at_the_uniform_level(self, s2):
        t = tl.cross_entropy(tl.uniform(2), s2)
        d1, d2 = tl.rate_derivatives(s2, t, "information_i")
        assert d1 == pytest.approx(1.0, abs=1e-6)
        assert d2 == pytest.approx(1.0 / VX_U2_S2, rel=1e-6)

    def test_endpoint_slopes_tend_to_minus_one(self, s3):
        d1_g, _ = tl.rate_derivatives(s3, 1e-4, "forward_g")
        d1_r, _ = tl.rate_derivatives(s3, 1e-4, "reverse_r")
        assert abs(d1_g - (-1.0)) < 0.05
        assert abs(d1_r - (-1.0)) < 0.05


class TestRateCurve:
    @pytest.mark.parametrize("kind", KINDS)
    def test_shape_and_monotone_alpha(self, s3, kind):
        curve = tl.rate_curve(s3, kind, 41)
        assert curve.t.size == 41
        assert np.all(np.isfinite(curve.rate))
        assert np.all(curve.rate >= 0.0)
        diffs = np.diff(curve.alpha)
        assert np.all(diffs < 0) or np.all(diffs > 0)
        second = curve.rate[:-2] - 2 * curve.rate[1:-1] + curve.rate[2:]
        if kind == "reverse_r":
            assert np.max(second) <= 1e-9
        else:
            assert np.min(second) >= -1e-9

    def test_passes_through_the_entropy_with_zero_rate(self, s2):
        curve = tl.rate_curve(s2, "forward_g", 101)
        i = int(np.argmin(np.abs(curve.t - tl.entropy(s2))))
        assert curve.rate[i] < 5e-4
        assert abs(curve.d_rate[i]) < 0.05

    def test_bad_kind(self, s2):
        with pytest.raises(ValueError):
            tl.rate_curve(s2, "sideways", 5)

    @pytest.mark.parametrize("kind", KINDS)
    def test_verify_names_the_violated_shape(self, s2, monkeypatch, kind):
        sampled = rt.rate_curve
        concave = kind == "reverse_r"

        def kinked(source, kind, n_samples):  # one sample moved against the shape
            curve = sampled(source, kind, n_samples=n_samples)
            rate = curve.rate.copy()
            rate[16] += -1.0 if concave else 1.0
            return dataclasses.replace(curve, rate=rate)

        monkeypatch.setattr(rt, "rate_curve", kinked)
        failures = []
        verify._check_curve(s2, kind, failures, "s2")
        rate = kinked(s2, kind, 33).rate
        second = rate[:-2] - 2.0 * rate[1:-1] + rate[2:]
        shape, violation = ("concavity", second.max()) if concave else ("convexity", -second.min())
        assert f"s2/{kind}: {shape} violated by {violation:.3e}" in failures


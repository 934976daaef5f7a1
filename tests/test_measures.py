import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tiltlab as tl
from tiltlab.errors import AlphabetMismatch, InvalidInput

from conftest import categorical_sources

# frozen values from high-precision direct-definition evaluation
H1_S2 = 0.50040242353818788
V1_S2 = 0.30748992890764891
H1_S3 = 1.0296530140645735
V1_S3 = 0.13296441044982442
HX_U2_S2 = 0.91629073187415507
VX_U2_S2 = 0.48045301391820142
D_U2_S2 = 0.22314355131420976
HX_T22_S2 = 0.3046902784389092
D_T22_S2 = 0.080972202373075465
VX_T22_S2 = 0.10639789927600308
V_T22 = 0.42559159710401233
RENYI2_S2 = 0.38566248081198467
RENYI2_S3 = 0.9675840262617056
LOG5 = 1.6094379124341004


@pytest.fixture
def u2():
    return tl.uniform(2)


class TestEntropy:
    def test_uniform_is_maximal(self):
        assert tl.entropy(tl.uniform(3)) == pytest.approx(math.log(3), abs=1e-15)

    def test_ternary(self, s3):
        assert tl.entropy(s3) == pytest.approx(H1_S3, abs=1e-15)

    def test_scales_with_length(self, s2):
        assert tl.entropy(s2, 8) == pytest.approx(8 * H1_S2, abs=1e-12)


class TestVarentropy:
    def test_uniform_is_zero(self):
        assert tl.varentropy(tl.uniform(4), 5) == pytest.approx(0.0, abs=1e-15)

    def test_binary(self, s2):
        assert tl.varentropy(s2) == pytest.approx(V1_S2, abs=1e-14)

    def test_ternary(self, s3):
        assert tl.varentropy(s3) == pytest.approx(V1_S3, abs=1e-14)


class TestCrossMeasures:
    def test_cross_entropy_of_self_is_entropy(self, s3):
        assert tl.cross_entropy(s3, s3, 4) == pytest.approx(tl.entropy(s3, 4), abs=1e-12)

    def test_cross_entropy_under_uniform(self, s2, u2):
        assert tl.cross_entropy(u2, s2) == pytest.approx(HX_U2_S2, abs=1e-14)

    def test_cross_entropy_of_tilt(self, s2):
        assert tl.cross_entropy(tl.tilt(s2, 2.0), s2) == pytest.approx(
            HX_T22_S2, abs=1e-14
        )

    def test_cross_varentropy_of_self(self, s2):
        assert tl.cross_varentropy(s2, s2, 3) == pytest.approx(
            tl.varentropy(s2, 3), abs=1e-12
        )

    def test_cross_varentropy_under_uniform(self, s2, u2):
        assert tl.cross_varentropy(u2, s2) == pytest.approx(VX_U2_S2, abs=1e-14)

    def test_cross_varentropy_of_tilt_scaling(self, s2):
        # variance of the tilted source equals alpha^2 times the cross variance
        assert tl.cross_varentropy(tl.tilt(s2, 2.0), s2) == pytest.approx(
            tl.varentropy(tl.tilt(s2, 2.0)) / 4.0, abs=1e-13
        )
        assert tl.cross_varentropy(tl.tilt(s2, 2.0), s2) == pytest.approx(
            VX_T22_S2, abs=1e-14
        )

    def test_relative_entropy_of_self_is_zero(self, s3):
        assert tl.relative_entropy(s3, s3, 7) == 0.0

    def test_relative_entropy_uniform(self, s2, u2):
        assert tl.relative_entropy(u2, s2) == pytest.approx(D_U2_S2, abs=1e-14)

    def test_relative_entropy_of_tilt(self, s2):
        assert tl.relative_entropy(tl.tilt(s2, 2.0), s2) == pytest.approx(
            D_T22_S2, abs=1e-14
        )

    def test_alphabet_mismatch(self, s2, s3):
        with pytest.raises(AlphabetMismatch):
            tl.cross_entropy(s2, s3)


class TestRenyiEntropy:
    def test_uniform(self):
        assert tl.renyi_entropy(tl.uniform(4), 2.7, 3) == pytest.approx(
            3 * math.log(4), abs=1e-12
        )

    def test_order_two(self, s2, s3):
        assert tl.renyi_entropy(s2, 2.0) == pytest.approx(RENYI2_S2, abs=1e-14)
        assert tl.renyi_entropy(s3, 2.0) == pytest.approx(RENYI2_S3, abs=1e-14)

    def test_order_one_is_shannon(self, s3):
        assert tl.renyi_entropy(s3, 1.0, 2) == tl.entropy(s3, 2)
        assert tl.renyi_entropy(s3, 1.0 + 1e-12, 2) == tl.entropy(s3, 2)

    def test_near_one_expansion(self, s3):
        # H_alpha = H - (alpha-1) V / 2 + O((alpha-1)^2)
        h = 1e-4
        expected = tl.entropy(s3) - h * tl.varentropy(s3) / 2
        assert tl.renyi_entropy(s3, 1.0 + h) == pytest.approx(expected, abs=1e-8)

    def test_monotone_decreasing_in_order(self, s3):
        grid = [-3.0, -2.0, -1.0, -0.5, 0.0, 0.5, 0.9999, 1.0001, 2.0, 3.0]
        values = [tl.renyi_entropy(s3, a) for a in grid]
        assert all(x > y for x, y in zip(values, values[1:]))


class TestMeasureBundle:
    def test_bundle_fields(self, s2):
        bundle = tl.measure_bundle(tl.tilt(s2, 2.0), s2, 8)
        assert bundle.n == 8
        assert bundle.cross_entropy == pytest.approx(8 * HX_T22_S2, abs=1e-12)
        assert bundle.relative_entropy == pytest.approx(8 * D_T22_S2, abs=1e-12)
        assert bundle.as_dict()["entropy_nats"] == bundle.entropy

    def test_bundle_non_negative(self, s2):
        bundle = tl.measure_bundle(tl.tilt(s2, -1.5), s2, 4)
        assert bundle.entropy >= 0
        assert bundle.varentropy >= 0
        assert bundle.relative_entropy >= 0


@settings(max_examples=60, deadline=None)
@given(categorical_sources(), st.floats(-3, 3), st.integers(1, 8))
def test_cross_entropy_splits_into_entropy_plus_divergence(source, alpha, n):
    rho = tl.tilt(source, alpha)
    lhs = tl.cross_entropy(rho, source, n)
    rhs = tl.entropy(rho, n) + tl.relative_entropy(rho, source, n)
    assert abs(lhs - rhs) < 1e-10


class TestTiltLimits:
    def test_cross_varentropy_limit_at_zero_order(self, s3):
        # order -> 0 limit equals the cross varentropy under the uniform source
        got = tl.cross_varentropy(tl.tilt(s3, 1e-6), s3, 2)
        want = tl.cross_varentropy(tl.uniform(s3.alphabet), s3, 2)
        assert got == pytest.approx(want, abs=1e-4)

    def test_entropy_collapses_at_extreme_orders(self, s3):
        assert tl.entropy(tl.tilt(s3, 200.0)) < 1e-3
        assert tl.entropy(tl.tilt(s3, -200.0)) < 1e-3


S3 = tl.load_source(tl.builtin_spec_path("s3"))

#: every information measure that scales by a string length, called at n
LENGTH_MEASURES = {
    "entropy": lambda n: tl.entropy(S3, n),
    "varentropy": lambda n: tl.varentropy(S3, n),
    "cross_entropy": lambda n: tl.cross_entropy(S3, S3, n),
    "cross_varentropy": lambda n: tl.cross_varentropy(S3, S3, n),
    "relative_entropy": lambda n: tl.relative_entropy(S3, S3, n),
    "renyi_entropy": lambda n: tl.renyi_entropy(S3, 0.5, n),
    "measure_bundle": lambda n: tl.measure_bundle(S3, S3, n),
}


@pytest.mark.parametrize("measure", LENGTH_MEASURES.values(), ids=LENGTH_MEASURES.keys())
@pytest.mark.parametrize(
    "n, message",
    [(2.5, "n must be an integer"), (True, "n must be an integer"), ("2", "n must be an integer"),
     (0, "n must be >= 1"), (-3, "n must be >= 1")],
    ids=["2.5", "True", "str", "0", "-3"],
)
def test_a_length_must_be_an_integer_of_at_least_1(measure, n, message):
    with pytest.raises(InvalidInput, match=message):
        measure(n)


@pytest.mark.parametrize("measure", LENGTH_MEASURES.values(), ids=LENGTH_MEASURES.keys())
def test_numpy_integer_lengths_are_taken(measure):
    got, want = measure(np.int64(3)), measure(3)
    assert got == want

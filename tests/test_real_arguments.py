"""Every real argument and every grid of reals of the library takes one rule:
ints and floats (numpy's included) pass, strings, bools and ragged nesting
are InvalidInput."""
import math

import numpy as np
import pytest

import tiltlab as tl
from tiltlab import guesswork as gw
from tiltlab.errors import InvalidInput


def corridor_table(source):
    return tl.build_rank_table(source, 2)


#: (entry point, parameter) -> a call with the parameter set to `value`
REAL_ARGUMENTS = {
    ("tilt", "alpha"): lambda s, value: tl.tilt(s, value),
    ("renyi_entropy", "alpha"): lambda s, value: tl.renyi_entropy(s, value),
    ("TypicalSetSpec", "alpha"): lambda s, value: tl.TypicalSetSpec(value, 0.1, 2),
    ("TypicalSetSpec", "epsilon"): lambda s, value: tl.TypicalSetSpec(1.0, value, 2),
    ("approx_set_size", "alpha"): lambda s, value: tl.approx_set_size(s, value, 0.1, 4),
    ("approx_set_size", "epsilon"): lambda s, value: tl.approx_set_size(s, 1.0, value, 4),
    ("corridor_mass", "epsilon"):
        lambda s, value: gw.corridor_mass(corridor_table(s), [0.5], value),
    ("rate_g", "t"): lambda s, value: tl.rate_g(s, value),
    ("rate_r", "t"): lambda s, value: tl.rate_r(s, value),
    ("rate_i", "t"): lambda s, value: tl.rate_i(s, value),
    ("rate_derivatives", "t"): lambda s, value: tl.rate_derivatives(s, value, "forward_g"),
    ("alpha_for_entropy", "t"): lambda s, value: tl.alpha_for_entropy(s, value),
    ("alpha_for_cross_entropy", "t"): lambda s, value: tl.alpha_for_cross_entropy(s, value),
    ("approx_rank", "entropy_nats"): lambda s, value: tl.approx_rank(value, 0.5),
    ("approx_rank", "varentropy_nats2"): lambda s, value: tl.approx_rank(1.0, value),
    ("default_alpha_grid", "low"): lambda s, value: tl.default_alpha_grid(value, 20.0),
    ("default_alpha_grid", "high"): lambda s, value: tl.default_alpha_grid(0.01, value),
}

#: (entry point, parameter) -> a call with the grid parameter set to `values`
REAL_GRIDS = {
    ("rate_points", "ts"): lambda s, values: tl.rate_points(s, "forward_g", values),
    ("corridor_mass", "ts"): lambda s, values: gw.corridor_mass(corridor_table(s), values, 0.1),
    ("approx_pmf_curve", "alpha_grid"): lambda s, values: tl.approx_pmf_curve(s, 4, values),
    ("tilted_family_sample", "alphas"): lambda s, values: tl.tilted_family_sample(s, values),
}


@pytest.mark.parametrize("value", ["1", "0.5", True, False, None, [0.5]])
@pytest.mark.parametrize("key", sorted(REAL_ARGUMENTS), ids="-".join)
def test_a_real_argument_refuses_anything_but_an_int_or_float(s3, key, value):
    with pytest.raises(InvalidInput, match=f"^{key[1]} must be a real number, not "):
        REAL_ARGUMENTS[key](s3, value)


@pytest.mark.parametrize(
    "values", [[[0.4], 0.7], ["x"], ["0.5", 0.7], [True, 0.5], np.array([True, False])],
    ids=["ragged", "text", "numeric text", "bool", "bool array"],
)
@pytest.mark.parametrize("key", sorted(REAL_GRIDS), ids="-".join)
def test_a_grid_refuses_anything_but_ints_and_floats(s3, key, values):
    with pytest.raises(InvalidInput):
        REAL_GRIDS[key](s3, values)


def test_a_generator_of_tilt_orders_is_invalid_input(s3):
    with pytest.raises(InvalidInput, match="^each entry of alphas must be a real number, not "):
        tl.tilted_family_sample(s3, (a for a in [0.5]))


def test_ints_and_numpy_reals_are_read_as_their_floats(s3):
    assert tl.tilt(s3, 2).theta.tolist() == tl.tilt(s3, 2.0).theta.tolist()
    assert tl.tilt(s3, np.int8(1)) is s3
    assert tl.renyi_entropy(s3, np.int64(2)) == tl.renyi_entropy(s3, 2.0)
    t = np.float32(0.5)
    assert tl.rate_g(s3, t) == tl.rate_g(s3, float(t))
    assert tl.alpha_for_entropy(s3, 1) == tl.alpha_for_entropy(s3, 1.0)
    assert tl.approx_rank(np.float64(2.0), 0) == tl.approx_rank(2.0, 0.0)
    grid = tl.default_alpha_grid(np.float32(0.25), np.int32(20))
    assert grid.tolist() == tl.default_alpha_grid(0.25, 20.0).tolist()
    grid = tl.rate_points(s3, "forward_g", np.array([1, 0.5], dtype=np.float32))
    assert grid.t.tolist() == [1.0, 0.5]
    ints = tl.rate_points(s3, "forward_g", [1, 0.5])
    assert ints.alpha.tolist() == grid.alpha.tolist()


def test_an_int_beyond_the_float_range_is_refused(s3):
    with pytest.raises(InvalidInput, match="^alpha must lie within the float range$"):
        tl.tilt(s3, 10**400)
    with pytest.raises(InvalidInput, match="^each entry of ts must lie within the float range$"):
        tl.rate_points(s3, "forward_g", [10**400])


def test_the_finite_and_range_rules_keep_their_messages(s3):
    with pytest.raises(InvalidInput, match="^tilt order nan must be finite$"):
        tl.renyi_entropy(s3, math.nan)
    with pytest.raises(InvalidInput, match="^alpha must be non-zero and finite$"):
        tl.TypicalSetSpec(0, 0.1, 2)
    with pytest.raises(InvalidInput, match="^epsilon must be positive and finite$"):
        tl.TypicalSetSpec(1.0, -1, 2)
    with pytest.raises(InvalidInput, match="^ts must be one-dimensional$"):
        tl.rate_points(s3, "forward_g", [[0.4, 0.7]])

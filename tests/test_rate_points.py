"""The lockstep rate solver against the scalar reference solver, bit for bit."""
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import tiltlab as tl
from tiltlab import cli
from tiltlab import rates as rt
from tiltlab.errors import (
    BracketFailure,
    BudgetExceeded,
    DegenerateVariance,
    OutOfRange,
    TiltlabError,
)
from tiltlab.measures import _on_support, _tilted_rows
from tiltlab.sources import DEFAULT_BUDGET

import reference_rates as ref
from reference_csv import rate_rows
from reference_measures import tilted_theta as reference_tilted_theta
from conftest import categorical_sources

SHIPPED = ("s2", "s3", "s77_sample")
FIELDS = ("alpha", "t", "rate", "d_rate", "d2_rate")
RATE_FNS = {
    "forward_g": (rt.rate_g, ref.rate_g),
    "reverse_r": (rt.rate_r, ref.rate_r),
    "information_i": (rt.rate_i, ref.rate_i),
}


def shipped(name):
    return tl.load_source(tl.builtin_spec_path(name))


def as_bits(values):
    return np.asarray(values, dtype=np.float64).view(np.int64).tolist()


def outcome(fn, *args):
    """Float results as int64 bits, rows as they are, or the error's type and message."""
    try:
        value = fn(*args)
    except DegenerateVariance:  # the message names t; the reference's cannot
        return DegenerateVariance
    except Exception as exc:  # compared with the reference's, not handled
        return type(exc), str(exc)
    return value if isinstance(value, list) else as_bits(value)


def reference_outcome(fn, *args):
    """outcome() of the reference solver, whose d2 divides by a zero tilted
    varentropy where the library raises DegenerateVariance instead."""
    expected = outcome(fn, *args)
    if expected == (ZeroDivisionError, "float division by zero"):
        return DegenerateVariance
    return expected


def row_bits(rows):
    return [(row[0], *as_bits(row[1:])) for row in rows]


def lockstep_rows(source, kind, ts):
    return row_bits(rate_rows(rt.rate_points(source, kind, ts)))


def reference_rows(source, kind, ts):
    return row_bits(ref.reference_points(source, kind, ts))


@pytest.mark.parametrize("name", SHIPPED)
@pytest.mark.parametrize("kind", rt.KINDS)
@pytest.mark.parametrize("n_samples", [3, 33, 201])
def test_rate_curve_matches_reference(name, kind, n_samples):
    source = shipped(name)
    curve = rt.rate_curve(source, kind, n_samples)
    expected = ref.rate_curve(source, kind, n_samples)
    assert curve.kind == expected.kind
    for field in FIELDS:
        assert as_bits(getattr(curve, field)) == as_bits(getattr(expected, field)), field


#: every bracket start and ladder point of the three kinds
LADDER = sorted(
    sign * a
    for sign in (1.0, -1.0)
    for a in [1e-6 * 0.5**j for j in range(27)] + [2.0**j for j in range(14)]
)


@st.composite
def wide_sources(draw):
    """Full-support sources with up to 200 symbols whose weights span six decades."""
    k = draw(st.integers(2, 200))
    weights = np.array(draw(st.lists(st.floats(1e-6, 1.0), min_size=k, max_size=k)))
    return tl.CategoricalSource(tl.Alphabet(tuple(f"s{i}" for i in range(k))), weights / weights.sum())


def satisfies_assumptions(source):
    try:
        tl.validate(source)
    except TiltlabError:
        return False
    return True


@settings(max_examples=60, deadline=None)
@given(
    # wide sources reach the dot product's blocking (from 16 symbols on)
    st.one_of(categorical_sources(2, 8), wide_sources().filter(satisfies_assumptions)),
    st.sampled_from(rt.KINDS),
    st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), max_size=8),
    st.floats(1e-12, 1e-7),
    st.floats(1e-12, 1e-7),
)
def test_random_grids_match_reference(source, kind, fractions, near_lo, near_hi):
    lo, hi = rt._domain(source, kind)
    ts = [lo + near_lo, *(lo + f * (hi - lo) for f in fractions), hi - near_hi]
    ts = [t for t in ts if lo < t < hi]
    assume(ts)
    expected = reference_outcome(reference_rows, source, kind, ts)
    assert outcome(lockstep_rows, source, kind, ts) == expected


@pytest.mark.parametrize("name", ["s2", "s3"])
@pytest.mark.parametrize("kind", rt.KINDS)
def test_rate_functions_at_and_near_the_clamps(name, kind):
    source = shipped(name)
    lo, hi = rt._domain(source, kind)
    clamp = rt.ENDPOINT_CLAMP
    lockstep, reference = RATE_FNS[kind]
    ts = [
        lo - 2e-12, lo - 1e-12, lo, lo + clamp, lo + 2 * clamp, lo + 1e-7,
        0.5 * (lo + hi),
        hi - 1e-7, hi - 2 * clamp, hi - clamp, hi, hi + 1e-12, hi + 2e-12,
    ]
    for t in ts:
        assert outcome(lockstep, source, t) == reference_outcome(reference, source, t), t


@pytest.mark.parametrize("name", ["s2", "s3"])
@pytest.mark.parametrize("kind", rt.KINDS)
def test_rate_derivatives_match_reference(name, kind):
    source = shipped(name)
    lo, hi = rt._domain(source, kind)
    for t in (lo, lo + 1e-9, lo + 1e-6, lo + 0.3 * (hi - lo), hi - 1e-6, hi - 1e-9, hi):
        got = outcome(rt.rate_derivatives, source, t, kind)
        assert got == reference_outcome(ref.rate_derivatives, source, t, kind), t


@pytest.mark.parametrize("name", ["s2", "s3"])
def test_alpha_solvers_match_reference(name):
    source = shipped(name)
    log_k = math.log(len(source.alphabet))
    for t in (-0.1, 0.0, 1e-7, 0.3, 0.6, log_k - 1e-7, log_k - 1e-15, log_k, 2.0):
        for branch in ("positive", "negative"):
            got = outcome(rt.alpha_for_entropy, source, t, branch)
            expected = reference_outcome(ref.alpha_for_entropy, source, t, branch)
            assert got == expected, (t, branch)
    rng = rt.cross_entropy_range(source)
    for t in (rng.t_minus, rng.t_minus + 1e-7, 0.7, tl.entropy(source), rng.t_plus - 1e-7):
        got = outcome(rt.alpha_for_cross_entropy, source, t)
        assert got == reference_outcome(ref.alpha_for_cross_entropy, source, t), t


@pytest.mark.parametrize(
    "alpha", [1e-6, 1.0, 2.0, 1.5, 0.5, -1e-6, -1.0, -2.0, -1.5, 0.0, 1e-14, -1e-14, 1e4, -1e4]
)
def test_levels_hit_exactly_at_ladder_points_and_midpoints(s3, alpha):
    # t equal to the exact level at a start point, a ladder point or a first
    # midpoint ends the solve there, with a zero difference; the level, built
    # on no source, is the tilted source's, bit for bit
    for kind in rt.KINDS:
        t = float(rt._levels(s3, kind, np.array([alpha]))[0])
        assert as_bits(t) == as_bits(ref.level(s3, kind, alpha))
        expected = reference_outcome(reference_rows, s3, kind, [t])
        assert outcome(lockstep_rows, s3, kind, [t]) == expected


#: the rungs of each kind's two ladders
RUNGS = {
    "forward_g": [a for a in LADDER if a > 0.0],
    "reverse_r": [a for a in LADDER if a < 0.0],
    "information_i": [a for a in LADDER if abs(a) >= 1.0],
}


def seeded_source(seed):
    """2..11 symbols whose weights span three decades."""
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 12))
    weights = 10.0 ** rng.uniform(-3.0, 0.0, k)
    alphabet = tl.Alphabet(tuple(f"s{i}" for i in range(k)))
    return tl.CategoricalSource(alphabet, weights / weights.sum())


@pytest.mark.parametrize("name", [*SHIPPED, *(f"seeded_{seed}" for seed in range(10))])
def test_brackets_stop_where_the_walk_stops_at_every_rung_level(name):
    # a t at a rung's level, or one ulp off it, is where an end's stopping
    # rung changes; near alpha = 0 the levels are not monotone in floats
    source = seeded_source(int(name[7:])) if name.startswith("seeded_") else shipped(name)
    tl.validate(source)
    for kind in rt.KINDS:
        lo, hi = rt._domain(source, kind)
        for level in rt._levels(source, kind, np.array(RUNGS[kind])).tolist():
            for t in (np.nextafter(level, -math.inf), level, np.nextafter(level, math.inf)):
                if lo < t < hi:
                    expected = reference_outcome(reference_rows, source, kind, [float(t)])
                    assert outcome(lockstep_rows, source, kind, [float(t)]) == expected, (kind, t)


def test_one_ulp_below_log_77_keeps_the_walks_root():
    source = shipped("s77_sample")
    t = 4.343805421853683
    assert t == np.nextafter(math.log(77), 0.0)
    assert rt.rate_points(source, "forward_g", [t]).alpha.tolist() == [6.25e-08]
    assert ref.reference_points(source, "forward_g", [t])[0][1] == 6.25e-08


# top two and bottom two symbols 2e-9 apart: roots near t = 0 and near
# either end of the cross-entropy range run past the bracket caps
NEAR_TIES = tl.CategoricalSource(tl.letters(4), [0.1 - 1e-9, 0.1 + 1e-9, 0.4 - 1e-9, 0.4 + 1e-9])
T_MINUS, T_PLUS = -math.log(0.4 + 1e-9), -math.log(0.1 - 1e-9)


@pytest.mark.parametrize(
    "kind,ts,error",
    [
        ("forward_g", [1.0, 0.1, 5.0], "t is too close to 0"),
        ("forward_g", [1.0, 5.0, 0.1], "t=5.0 outside (0, 1.3862943611198906)"),
        ("reverse_r", [1.0, 0.1], "t is too close to 0"),
        ("reverse_r", [1.0, float("nan"), 0.1], "t=nan outside"),
        ("information_i", [1.5, T_PLUS - 1e-12, T_MINUS + 1e-12],
         "t is too close to the max-cross entropy"),
        ("information_i", [1.5, T_MINUS + 1e-12, T_PLUS - 1e-12],
         "t is too close to the min-cross entropy"),
        ("information_i", [1.5, 0.1, T_MINUS + 1e-12], "t=0.1 outside (0.9162"),
    ],
)
def test_first_failing_t_raises_as_the_reference_does(kind, ts, error):
    expected = reference_outcome(reference_rows, NEAR_TIES, kind, ts)
    assert expected[0] in (BracketFailure, OutOfRange) and error in expected[1]
    assert outcome(lockstep_rows, NEAR_TIES, kind, ts) == expected


@pytest.mark.parametrize(
    "name,kind,grid",
    [
        ("s2", "g", "lin:0.05:0.65:13"),
        ("s3", "r", "log:0.01:1.05:9"),
        ("s3", "i", "0.7,0.9,1.2,1.5"),
    ],
)
def test_cli_t_grid_bytes_unchanged(capsys, name, kind, grid):
    path = str(tl.builtin_spec_path(name))
    assert cli.main(["rate", "--source", path, "--kind", kind, "--t-grid", grid]) == 0
    lines = capsys.readouterr().out.splitlines()
    full_kind = {"g": "forward_g", "r": "reverse_r", "i": "information_i"}[kind]
    source = shipped(name)
    rows = ref.reference_points(source, full_kind, cli._parse_grid(grid, source, "levels of t"))
    assert lines[1] == "kind,alpha,t_nats,J_nats,dJdt,d2Jdt2"
    assert lines[2:] == [",".join(cli._fmt(v) for v in row) for row in rows]


@settings(max_examples=40, deadline=None)
@given(
    wide_sources(),
    st.lists(st.floats(-rt.ALPHA_CAP, rt.ALPHA_CAP), max_size=8),
    st.booleans(),
    st.booleans(),
)
def test_tilted_rows_match_the_per_order_arrays(source, extra_alphas, empty, zero_symbol):
    # the ladder, both special orders and drawn orders, some of whose tilts
    # underflow a symbol to 0; or no order at all; or a source with a
    # zero-probability symbol, at the orders that allow it (alpha >= 0)
    alphas = np.array([] if empty else LADDER + [0.0, 1.0] + extra_alphas)
    if zero_symbol:
        theta = source.theta.copy()
        theta[0] = 0.0
        source = tl.CategoricalSource(source.alphabet, theta / theta.sum())
        alphas = alphas[alphas >= 0.0]
    seen = []
    for rows, p, lp, lq in _tilted_rows(source, alphas):
        for j, i in enumerate(np.atleast_1d(rows).tolist()):
            one = (p, lp, lq) if np.ndim(rows) == 0 else (p[j], lp[j], lq)
            want = _on_support(tl.tilt(source, alphas[i]), source)
            assert [as_bits(a) for a in one] == [as_bits(a) for a in want], alphas[i]
            theta = reference_tilted_theta(source, alphas[i])
            assert as_bits(want[0]) == as_bits(theta[theta > 0])
            seen.append(i)
    assert sorted(seen) == list(range(alphas.size))
    for kind in rt.KINDS:
        want = [ref.level(source, kind, a) for a in alphas.tolist()]
        assert as_bits(rt._levels(source, kind, alphas)) == as_bits(want), kind


@pytest.mark.parametrize("kind", ["forward_g", "reverse_r"])
def test_zero_tilted_varentropy_raises_degenerate_variance(s2, kind):
    # at t = 5e-324 the root's tilt is a point mass to within float precision
    with pytest.raises(DegenerateVariance, match="t=5e-324"):
        rt.rate_points(s2, kind, [0.3, 5e-324])
    assert reference_outcome(reference_rows, s2, kind, [0.3, 5e-324]) is DegenerateVariance


@pytest.mark.parametrize("kind", ["g", "r"])
def test_cli_zero_tilted_varentropy_exits_1_with_one_line(capsys, kind):
    path = str(tl.builtin_spec_path("s2"))
    assert cli.main(["rate", "--source", path, "--kind", kind, "--t-grid", "5e-324"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("tiltlab: t=5e-324: ") and err.count("\n") == 1


def test_grid_just_over_the_budget_is_refused_before_solving():
    source = shipped("s77_sample")
    over = DEFAULT_BUDGET // len(source.alphabet) + 1  # (t x symbols) entries
    lo, hi = rt._domain(source, "reverse_r")
    with pytest.raises(BudgetExceeded, match="rate grid budget"):
        rt.rate_points(source, "reverse_r", np.full(over, 0.5 * (lo + hi)))
    with pytest.raises(BudgetExceeded, match="rate grid budget"):
        rt.rate_curve(source, "reverse_r", n_samples=over)


@pytest.mark.parametrize("name", ["s3", "s3_markov"])
def test_tilt_sweeps_just_over_the_grid_budget_are_refused_before_tilting(name):
    source = shipped(name)
    over = DEFAULT_BUDGET // len(source.alphabet) + 1  # (order x symbols) entries
    refused = "tilt orders over 3 symbols exceed the rate grid budget"
    # read-only views of one order: nothing grid-sized is allocated here
    with pytest.raises(BudgetExceeded, match=refused):
        tl.approx_pmf_curve(source, 4, alpha_grid=np.broadcast_to(2.0, over))
    if name == "s3":  # an order that tilt rejects: no tilt is built before the rule
        with pytest.raises(BudgetExceeded, match=refused):
            tl.tilted_family_sample(source, np.broadcast_to(np.nan, over))


def test_cli_grid_over_the_budget_exits_1(capsys, tmp_path):
    path = str(tl.builtin_spec_path("s77_sample"))
    out = tmp_path / "rate.csv"
    argv = ["rate", "--source", path, "--kind", "r", "--samples", "100000000", "--out", str(out)]
    assert cli.main(argv) == 1
    assert "rate grid budget" in capsys.readouterr().err
    assert not out.exists()


def test_rate_csv_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    # each row's sums are single-threaded dots, so the thread pool size
    # cannot move a digit
    root = Path(__file__).resolve().parents[1]
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    written = []
    for threads in ("1", "2"):
        out = tmp_path / f"rate_{threads}.csv"
        done = subprocess.run(
            [sys.executable, "-m", "tiltlab.cli", "rate", "--kind", "r",
             "--source", str(tl.builtin_spec_path("s77_sample")), "--out", str(out)],
            capture_output=True, text=True, timeout=300,
            env=dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=threads),
        )
        assert done.returncode == 0, done.stderr
        written.append(out.read_bytes())
    assert written[0] == written[1]

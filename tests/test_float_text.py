"""The numpy float formatter against repr, byte for byte, and every float
field the CLI writes against the library value it stands for."""
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import tiltlab as tl
from tiltlab import approx as ax
from tiltlab import cli
from tiltlab import rates as rt
from tiltlab.errors import TiltlabError

from conftest import categorical_sources
from test_csv_columns import SPECIALS

#: tracemalloc peak of formatting the s77_sample n=3 probabilities (79,079
#: levels) when each was formatted with repr; the numpy formatter peaks at 5.8 MiB
S77_PEAK_MIB = 11.6


def assert_repr_bytes(values) -> None:
    """`_repr_bytes` gives the matrix `_text_bytes` gives for the reprs."""
    values = np.asarray(values, np.float64)
    got = cli._repr_bytes(values)
    want = cli._text_bytes(list(map(repr, values.tolist())))
    if got.shape == want.shape and np.array_equal(got, want):
        return
    for x, row in zip(values.tolist(), got):
        text = row[row != cli._PAD].tobytes().decode("latin-1")
        assert text == repr(x), f"{x!r} (bits {np.float64(x).view(np.uint64):#018x})"
    pytest.fail(f"same texts, but a {got.shape} matrix where _text_bytes gives {want.shape}")


def neighbours(values, steps=2) -> np.ndarray:
    """Each value and the floats up to `steps` ulps either side of it."""
    values = np.asarray(values, np.float64)
    out = [values]
    for direction in (-np.inf, np.inf):
        near = values
        for _ in range(steps):
            near = np.nextafter(near, direction)
            out.append(near)
    return np.concatenate(out)


def test_random_bit_patterns():
    """A million random bit patterns of both signs: every exponent, subnormals,
    infinities and nans with any payload."""
    rng = np.random.default_rng(20240)
    bits = rng.integers(-(2**63), 2**63, 1_000_000, dtype=np.int64, endpoint=False)
    assert (bits < 0).any() and (bits > 0).any()
    assert_repr_bytes(bits.view(np.float64))


def test_every_power_of_two():
    powers = np.ldexp(1.0, np.arange(-1074, 1024))
    assert powers[0] == 5e-324 and np.isfinite(powers).all()
    assert_repr_bytes(np.concatenate([powers, -powers]))


def test_integers_around_two_to_the_53():
    """Integers where floats stop holding every integer, and past it: each
    2**k for k in 50..66 and the 600 floats from 300 below it."""
    values = [2.0**k + np.arange(-300, 300, dtype=np.float64) for k in range(50, 67)]
    assert_repr_bytes(np.concatenate(values))


def test_powers_of_ten_and_their_neighbours():
    tens = np.array([float(f"1e{k}") for k in range(-300, 301)])
    assert_repr_bytes(neighbours(tens))
    assert_repr_bytes(neighbours(-tens))


def test_fixed_and_scientific_edges():
    """repr writes fixed point for 1e-4 <= |x| < 1e16."""
    edges = neighbours([1e-5, 1e-4, 1e16, 9999999999999998.0, 1e17, 0.1, 1.0, 0.5], steps=3)
    assert_repr_bytes(np.concatenate([edges, -edges]))
    texts = [repr(x) for x in (1e-5, 1e-4, 1e16, 9999999999999998.0)]
    assert texts == ["1e-05", "0.0001", "1e+16", "9999999999999998.0"]


def test_specials():
    assert_repr_bytes(np.concatenate([SPECIALS, SPECIALS[::-1]]))


def test_short_and_long_digit_counts():
    """Every digit count from 1 to 17, at decimal exponents across both layouts."""
    rng = np.random.default_rng(7)
    digits = rng.integers(1, 10**17, 20_000, dtype=np.int64)
    counts = rng.integers(1, 18, digits.size)
    values = [float(f"{d}"[:c] + f"e{e}") for d, c, e in
              zip(digits.tolist(), counts.tolist(), rng.integers(-30, 30, digits.size).tolist())]
    assert_repr_bytes(values)


@settings(max_examples=500, deadline=None)
@given(hnp.arrays(np.float64, st.integers(0, 40), elements=st.floats()))
def test_hypothesis_floats(values):
    assert_repr_bytes(values)


@pytest.mark.parametrize("floats", [1, 2, 3, 7])
def test_blocks_of_any_size(floats):
    """Blocks of 1 to 7 values: specials, widths and digit counts differ
    from block to block."""
    values = np.concatenate([SPECIALS, [1e300, 0.5, -1e-7, 123456.789, 2.0**60], SPECIALS[:3]])
    with mock.patch.object(cli, "_FLOATS", floats):
        assert_repr_bytes(values)
        assert_repr_bytes(values[:4])


def test_importing_the_cli_builds_no_table():
    """The formatter's tables are built on first use, not on import."""
    tables = "(cli._ryu_table, cli._repr_layouts, cli._lane_masks, cli._quads)"
    code = ("import numpy as np; import tiltlab.cli as cli; "
            f"sizes = lambda: [f.cache_info().currsize for f in {tables}]; "
            "print(sizes()); cli._repr_bytes(np.array([0.5])); print(sizes())")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, env=dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1])))
    assert done.returncode == 0, done.stderr
    assert done.stdout.split("\n")[:2] == ["[0, 0, 0, 0]", "[1, 1, 1, 1]"]


def test_s77_probabilities_peak():
    """Formatting the 79,079 s77_sample n=3 probabilities stays under the
    peak of formatting them with repr."""
    table = tl.build_rank_table(tl.load_source(tl.builtin_spec_path("s77_sample")), 3)
    probabilities, ranked = np.exp(table.levels), table._ranked_levels()
    cli._repr_bytes(probabilities[:1])  # tables built outside the measurement
    tracemalloc.start()
    try:
        cli._coded_bytes(probabilities, ranked)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= S77_PEAK_MIB * 2**20, f"{peak / 2**20:.2f} MiB"


# ---------------------------------------------------------------------------
# every float field a subcommand writes is the repr of the library's value
# ---------------------------------------------------------------------------

def rows(path: Path) -> list[list[str]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0].startswith("# ")
    return [line.split(",") for line in lines[2:]]


def assert_fields(fields, values) -> None:
    """Each field is repr of its value, and reads back to the value's bits."""
    values = np.asarray(values, np.float64)
    assert list(fields) == [repr(float(v)) for v in values]
    read = np.array([float(f) for f in fields], np.float64)
    finite = ~np.isnan(values)
    assert np.array_equal(read[finite].view(np.int64), values[finite].view(np.int64))


@contextlib.contextmanager
def spec_of(source):
    """A spec file of `source` in a new directory, and the source it loads as
    (loading normalizes the probabilities again)."""
    with tempfile.TemporaryDirectory() as tmp:
        spec = Path(tmp) / "spec.json"
        spec.write_text(json.dumps({"kind": "categorical", "probs": source.theta.tolist(),
                                    "alphabet": list(source.alphabet.symbols)}))
        yield spec, tl.load_source(spec)


def run_cli(spec: Path, *argv) -> Path:
    out = spec.with_name("out.csv")
    with contextlib.redirect_stderr(io.StringIO()) as err:
        code = cli.main([argv[0], "--source", str(spec), *argv[1:], "--out", str(out)])
    assert code == 0, err.getvalue()
    return out


@settings(max_examples=25, deadline=None)
@given(categorical_sources(), st.lists(st.floats(-6, 6), min_size=1, max_size=8))
def test_tilt_fields(source, alphas):
    with spec_of(source) as (spec, source):
        out = rows(run_cli(spec, "tilt", "--alpha-grid=" + ",".join(map(repr, alphas))))
    assert_fields([r[0] for r in out], alphas)
    thetas = np.array([tl.tilt(source, a).theta for a in alphas])
    for j in range(thetas.shape[1]):
        assert_fields([r[1 + j] for r in out], thetas[:, j])


@settings(max_examples=25, deadline=None)
@given(categorical_sources(), st.sampled_from(["g", "r"]),
       st.lists(st.floats(0.05, 0.95), min_size=1, max_size=6))
def test_rate_t_grid_fields(source, kind, fractions):
    ts = np.array(fractions) * np.log(len(source.alphabet))
    curve_kind = {"g": "forward_g", "r": "reverse_r"}[kind]
    with spec_of(source) as (spec, source):
        try:
            curve = rt.rate_points(source, curve_kind, ts)
        except TiltlabError:
            assume(False)
        grid = ",".join(map(repr, ts.tolist()))
        out = rows(run_cli(spec, "rate", "--kind", kind, "--t-grid", grid))
    assert {r[0] for r in out} == {curve_kind}
    for j, values in enumerate([curve.alpha, curve.t, curve.rate, curve.d_rate, curve.d2_rate]):
        assert_fields([r[1 + j] for r in out], values)


@settings(max_examples=20, deadline=None)
@given(categorical_sources(max_size=4), st.integers(1, 4))
def test_approx_fields(source, n):
    with spec_of(source) as (spec, source):
        try:
            points = ax.approx_pmf_curve(source, n)
        except TiltlabError:
            assume(False)
        table = tl.build_rank_table(source, n)
        path = run_cli(spec, "approx", "--n", str(n))
        curve, overlay = rows(path), rows(path.with_name("out_overlay.csv"))
    fields = ("alpha", "level_nats", "approx_rank", "guesswork_rank", "probability")
    assert [r[0] for r in curve] == [p.branch for p in points]
    for j, f in enumerate(fields):
        assert_fields([r[1 + j] for r in curve], [getattr(p, f) for p in points])
    exact, stitched = overlay[:table.size], overlay[table.size:]
    assert [r[1] for r in exact] == [str(g) for g in range(1, table.size + 1)]
    assert_fields([r[2] for r in exact], table.pmf())
    assert_fields([r[1] for r in stitched], [p.guesswork_rank for p in points])
    assert_fields([r[2] for r in stitched], [p.probability for p in points])


@settings(max_examples=25, deadline=None)
@given(categorical_sources(), st.integers(1, 5))
def test_guesswork_fields(source, n):
    assume(len(source.alphabet) ** n <= 4096)
    with spec_of(source) as (spec, source):
        table = tl.build_rank_table(source, n)
        path = run_cli(spec, "guesswork", "--n", str(n))
        ranks, pmf = rows(path), rows(path.with_name("out_pmf.csv"))
    assert_fields([r[1] for r in ranks], table.log_probs[table.order])
    assert_fields([r[1] for r in pmf], table.pmf())

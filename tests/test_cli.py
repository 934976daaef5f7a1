import json
import time
import tracemalloc

import numpy as np
import pytest

import tiltlab as tl
from tiltlab import approx as ax
from tiltlab import guesswork as gw
from tiltlab import measures as ms
from tiltlab import rates as rt
from tiltlab.cli import main
from tiltlab.errors import InvalidInput
from tiltlab.sources import DEFAULT_BUDGET, _require_length


@pytest.fixture()
def s2_path():
    return str(tl.builtin_spec_path("s2"))


@pytest.fixture()
def s3_path():
    return str(tl.builtin_spec_path("s3"))


def run(*argv):
    return main(list(argv))


class TestGuessworkCommand:
    def test_rank_table_and_pmf(self, tmp_path, s2_path):
        out = tmp_path / "ranks.csv"
        assert run("guesswork", "--source", s2_path, "--n", "2", "--out", str(out)) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# source_sha256=")
        assert lines[1] == "string,logprob_nats,G,R"
        assert len(lines) == 6
        assert lines[2].startswith("bb,") and lines[2].endswith(",1,4")
        pmf_lines = (tmp_path / "ranks_pmf.csv").read_text().splitlines()
        assert pmf_lines[1] == "rank,probability"
        assert pmf_lines[2] == "1,0.64"

    def test_deterministic_output(self, tmp_path, s3_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run("guesswork", "--source", s3_path, "--n", "3", "--out", str(a))
        run("guesswork", "--source", s3_path, "--n", "3", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_budget_exceeded_exits_1(self, tmp_path, s2_path):
        code = run(
            "guesswork", "--source", s2_path, "--n", "20", "--budget", "100",
            "--out", str(tmp_path / "x.csv"),
        )
        assert code == 1

    def test_env_budget_override(self, tmp_path, s2_path, monkeypatch):
        monkeypatch.setenv("TILTLAB_BUDGET", "100")
        code = run("guesswork", "--source", s2_path, "--n", "20", "--out", str(tmp_path / "x.csv"))
        assert code == 1
        monkeypatch.setenv("TILTLAB_BUDGET", str(2**21))
        code = run("guesswork", "--source", s2_path, "--n", "4", "--out", str(tmp_path / "y.csv"))
        assert code == 0

    @pytest.mark.parametrize("budget", ["-5", "0"])
    def test_non_positive_budget_is_a_config_error(self, tmp_path, s3_path, capsys, budget):
        out = tmp_path / "x.csv"
        assert run("guesswork", "--source", s3_path, "--n", "2", "--budget", budget,
                   "--out", str(out)) == 2
        assert capsys.readouterr().err == (
            f"tiltlab: config error: --budget must be at least 1, got {budget}\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("budget", ["-5", "0"])
    def test_non_positive_env_budget_is_a_config_error(
        self, tmp_path, s3_path, capsys, monkeypatch, budget
    ):
        monkeypatch.setenv("TILTLAB_BUDGET", budget)
        for argv in (["guesswork", "--n", "2"], ["approx", "--n", "2"],
                     ["typical", "--n", "2", "--alpha", "1", "--epsilon", "0.1"]):
            out = tmp_path / f"{argv[0]}.csv"
            assert run(*argv, "--source", s3_path, "--out", str(out)) == 2
            assert capsys.readouterr().err == (
                f"tiltlab: config error: TILTLAB_BUDGET must be at least 1, got {budget}\n"
            )
            assert not out.exists()


class TestTiltCommand:
    def test_family_csv(self, tmp_path, s3_path):
        out = tmp_path / "family.csv"
        assert run(
            "tilt", "--source", s3_path, "--alpha-grid", "lin:0.5:2:4", "--out", str(out)
        ) == 0
        lines = out.read_text().splitlines()
        assert lines[1] == "alpha,theta_a,theta_b,theta_c"
        assert len(lines) == 6

    def test_bad_grid_exits_2(self, tmp_path, s3_path):
        assert run(
            "tilt", "--source", s3_path, "--alpha-grid", "nope:1:2", "--out", str(tmp_path / "x")
        ) == 2

    @pytest.mark.parametrize("grid", ["1,nan,inf", "0.5,inf,nan", "-2,-inf,nan,2"])
    def test_first_bad_order_in_grid_order_is_reported(self, capsys, s3_path, grid):
        """One batched tilt reports the order a lone tilt per order reports first."""
        source = tl.load_source(s3_path)
        with pytest.raises(InvalidInput) as lone:
            tl.tilted_family_sample(source, [float(a) for a in grid.split(",")])
        assert run("tilt", "--source", s3_path, f"--alpha-grid={grid}") == 2
        assert capsys.readouterr().err == f"tiltlab: config error: {lone.value}\n"


class TestMeasuresCommand:
    def test_json_payload(self, tmp_path, s2_path):
        out = tmp_path / "m.json"
        assert run(
            "measures", "--source", s2_path, "--n", "8", "--alpha", "2.0", "--out", str(out)
        ) == 0
        payload = json.loads(out.read_text())
        assert payload["n"] == 8
        assert payload["alpha"] == 2.0
        assert payload["cross_entropy_nats"] == pytest.approx(8 * 0.3046902784389092)
        assert payload["relative_entropy_nats"] == pytest.approx(8 * 0.080972202373075465)

    def test_invalid_source_assumptions_exit_2(self, tmp_path):
        spec = tmp_path / "uniform.json"
        spec.write_text('{"kind": "categorical", "alphabet": ["a", "b"], "probs": [0.5, 0.5]}')
        assert run("measures", "--source", str(spec), "--n", "2", "--out", str(tmp_path / "m.json")) == 2

    def test_missing_file_exits_2(self, tmp_path):
        assert run(
            "measures", "--source", str(tmp_path / "absent.json"), "--n", "2",
            "--out", str(tmp_path / "m.json"),
        ) == 2

    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_n_below_one_exits_2(self, capsys, s2_path, n):
        assert run("measures", "--source", s2_path, "--n", n) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "tiltlab: config error: n must be >= 1\n"

    def test_internal_value_error_is_not_a_config_error(self, capsys, monkeypatch, s2_path):
        def broken(*args, **kwargs):
            raise ValueError("internal fault")

        monkeypatch.setattr(ms, "measure_bundle", broken)
        with pytest.raises(ValueError, match="internal fault"):
            run("measures", "--source", s2_path, "--n", "2")
        assert "config error" not in capsys.readouterr().err


S3 = tl.load_source(tl.builtin_spec_path("s3"))

INPUT_RULES = {
    "length": lambda: _require_length(0),
    "typical order": lambda: tl.TypicalSetSpec(alpha=0.0, epsilon=0.1, n=2),
    "typical width": lambda: tl.TypicalSetSpec(alpha=1.0, epsilon=0.0, n=2),
    "grid holds 0": lambda: ax._sweep_grid(S3, 2, [-1.0, 0.0, 1.0]),
    "grid of one sign": lambda: ax._sweep_grid(S3, 2, [1.0, 2.0]),
    "negative orders on zero words": lambda: list(ax._tilted_word_stats(
        np.array([-np.inf, 0.0]), np.array([-1.0, 1.0]))),
    "rate kind": lambda: rt.rate_points(S3, "g", [0.5]),
    "rate grid shape": lambda: rt.rate_points(S3, "forward_g", [[0.5]]),
    "curve kind": lambda: rt.rate_curve(S3, "g"),
    "sample count": lambda: rt.rate_curve(S3, "forward_g", n_samples=2),
    "fractional sample count": lambda: rt.rate_curve(S3, "forward_g", n_samples=5.5),
    "approx branch": lambda: ax.approx_guesswork(ax.WordMeasures(4, 2.0, 1.0), "sideways"),
    "reverse branch without the alphabet size": lambda: ax.approx_guesswork(
        ax.WordMeasures(4, 2.0, 1.0), "reverse"),
    "entropy branch": lambda: rt.alpha_for_entropy(S3, 0.5, "zero"),
}


@pytest.mark.parametrize("rule", INPUT_RULES.values(), ids=INPUT_RULES.keys())
def test_input_rules_raise_invalid_input(rule):
    with pytest.raises(InvalidInput):
        rule()


def test_renyi_order_is_refused_as_tilt_refuses_it():
    for alpha in (np.inf, -np.inf, np.nan):
        with pytest.raises(InvalidInput) as lone:
            tl.tilt(S3, alpha)
        with pytest.raises(InvalidInput, match=f"^{lone.value}$"):
            ms.renyi_entropy(S3, alpha)


@pytest.mark.parametrize("index", [4, 2**40, -1, 1.5, True, "0"])
def test_string_at_refuses_indices_outside_the_table(index):
    table = tl.build_rank_table(tl.load_source(tl.builtin_spec_path("s2")), 2)
    with pytest.raises(InvalidInput, match=r"lexicographic index must be an integer in \[0, 4\)"):
        table.string_at(index)


def test_string_at_takes_numpy_integers():
    table = tl.build_rank_table(tl.load_source(tl.builtin_spec_path("s2")), 2)
    assert table.string_at(np.int64(3)) == table.string_at(np.uint8(3)) == table.string_at(3)


S3_PATH = str(tl.builtin_spec_path("s3"))
S3_MARKOV_PATH = str(tl.builtin_spec_path("s3_markov"))
S77_PATH = str(tl.builtin_spec_path("s77_sample"))

NON_FINITE_INPUTS = {
    "measures order": (
        ("measures", "--source", S3_PATH, "--n", "2", "--alpha", "nan"),
        "tilt order nan must be finite",
    ),
    "tilt grid": (("tilt", "--source", S3_PATH, "--alpha-grid", "nan"), "tilt order nan must be finite"),
    "approx grid, words": (
        ("approx", "--source", S3_MARKOV_PATH, "--n", "4", "--alpha-grid", "nan,1,-1"),
        "alpha grid must be finite and exclude 0",
    ),
    "approx grid, i.i.d.": (
        ("approx", "--source", S3_PATH, "--n", "4", "--alpha-grid", "inf,1,-1"),
        "alpha grid must be finite and exclude 0",
    ),
    "typical order": (
        ("typical", "--source", S3_PATH, "--n", "4", "--alpha", "nan", "--epsilon", "0.1"),
        "alpha must be non-zero and finite",
    ),
    "typical width": (
        ("typical", "--source", S3_PATH, "--n", "4", "--alpha", "1", "--epsilon", "inf"),
        "epsilon must be positive and finite",
    ),
    # finite orders whose tilts overflow: no numpy warning comes before the error
    "tilt grid, huge orders": (
        ("tilt", "--source", S77_PATH, "--alpha-grid=0,1,-0.0,1e308,-1e308"),
        "probs entries must be finite and non-negative",
    ),
}


@pytest.mark.parametrize("argv, message", NON_FINITE_INPUTS.values(), ids=NON_FINITE_INPUTS.keys())
def test_non_finite_orders_and_widths_exit_2(tmp_path, capsys, argv, message):
    assert run(*argv, "--out", str(tmp_path / "out")) == 2
    assert capsys.readouterr().err == f"tiltlab: config error: {message}\n"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("spacing", ["lin", "log"])
@pytest.mark.parametrize("argv", [("tilt",), ("approx", "--n", "2")], ids=["tilt", "approx"])
def test_order_grid_past_the_budget_fails_before_it_is_built(tmp_path, capsys, argv, spacing):
    grid = f"--alpha-grid={spacing}:0.1:2:10000000"  # 80 MB of float64 when built
    tracemalloc.start()
    try:
        code = run(*argv, "--source", S77_PATH, grid, "--out", str(tmp_path / "out.csv"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    assert capsys.readouterr().err == (
        f"tiltlab: 10000000 tilt orders over 77 symbols exceed the rate grid budget "
        f"{DEFAULT_BUDGET}\n"
    )
    assert not list(tmp_path.iterdir())
    assert peak < 8_000_000


def test_a_huge_n_is_rejected_without_building_k_to_the_n(capsys):
    start = time.perf_counter()
    assert run("guesswork", "--source", S3_PATH, "--n", "30000000") == 1
    assert time.perf_counter() - start < 1.0  # building 3^30000000 takes about 27 s
    assert capsys.readouterr().err == (
        f"tiltlab: 3^30000000 strings exceed the enumeration budget {DEFAULT_BUDGET}\n"
    )


#: one run of each subcommand, all but its --out
SUBCOMMANDS = {
    "tilt": ("tilt", "--source", S3_PATH, "--alpha-grid", "1,2"),
    "measures": ("measures", "--source", S3_PATH, "--n", "2"),
    "guesswork": ("guesswork", "--source", S3_PATH, "--n", "3"),
    "typical": ("typical", "--source", S3_PATH, "--n", "4", "--alpha", "2", "--epsilon", "0.2"),
    "rate": ("rate", "--source", S3_PATH, "--kind", "g"),
    "approx": ("approx", "--source", S3_PATH, "--n", "4"),
    "verify": ("verify", "--quick"),
}


@pytest.fixture()
def no_work(monkeypatch):
    """Every subcommand starts its work by loading its source or running the
    suite; either fails the test."""
    def work(*args, **kwargs):
        raise AssertionError("work started before --out was checked")

    monkeypatch.setattr("tiltlab.sources.load_source", work)
    monkeypatch.setattr("tiltlab.verify.run_all", work)


@pytest.mark.parametrize("argv", SUBCOMMANDS.values(), ids=SUBCOMMANDS.keys())
def test_an_out_path_in_a_missing_directory_exits_2_before_any_work(
    tmp_path, capsys, no_work, argv
):
    out = tmp_path / "missing" / "out.csv"
    assert run(*argv, "--out", str(out)) == 2
    assert capsys.readouterr().err == (
        f"tiltlab: config error: cannot write {str(out)!r}: its directory does not exist\n"
    )
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("name, suffix", [("guesswork", "_pmf"), ("typical", "_bounds"),
                                          ("approx", "_overlay")])
def test_a_sibling_that_cannot_be_written_exits_2_and_writes_nothing(
    tmp_path, capsys, no_work, name, suffix
):
    sibling = tmp_path / f"out{suffix}.csv"
    sibling.mkdir()
    assert run(*SUBCOMMANDS[name], "--out", str(tmp_path / "out.csv")) == 2
    assert capsys.readouterr().err == (
        f"tiltlab: config error: cannot write {str(sibling)!r}: it is a directory\n"
    )
    assert list(tmp_path.iterdir()) == [sibling]


class TestTypicalCommand:
    def test_members_and_bounds(self, tmp_path, s3_path):
        out = tmp_path / "typ.csv"
        assert run(
            "typical", "--source", s3_path, "--n", "6", "--alpha", "2.0",
            "--epsilon", "0.2", "--out", str(out),
        ) == 0
        lines = out.read_text().splitlines()
        assert lines[1] == "set_name,member"
        assert any(line.startswith("A,") for line in lines)
        bounds = (tmp_path / "typ_bounds.csv").read_text().splitlines()
        assert bounds[1] == "bound_id,lhs,rhs,pass"
        flags = {line.split(",")[-1] for line in bounds[2:]}
        assert flags <= {"pass", "vacuous-pass"}


    def test_window_width_underflow_exits_0(self, tmp_path, s2_path, capsys):
        out = tmp_path / "typ.csv"
        assert run(
            "typical", "--source", s2_path, "--n", "2", "--alpha", "1",
            "--epsilon", "1e-200", "--out", str(out),
        ) == 0
        assert capsys.readouterr().err == ""
        bounds = (tmp_path / "typ_bounds.csv").read_text().splitlines()
        assert "set_size_lower,0,-inf,vacuous-pass" in bounds

    def test_probability_bound_met_with_equality_exits_0(self, tmp_path, capsys):
        out = tmp_path / "typ.csv"
        argv = ("typical", "--source", S3_PATH, "--n", "4", "--alpha", "1", "--epsilon", "1e308")
        assert run(*argv, "--out", str(out)) == 0
        assert capsys.readouterr().err == ""
        bounds = (tmp_path / "typ_bounds.csv").read_text().splitlines()
        assert "set_prob_lower,1.0,1.0,pass" in bounds

    def test_order_beyond_the_float_range_of_the_tilted_levels_exits_1(self, tmp_path, capsys):
        argv = ("typical", "--source", S3_PATH, "--n", "4", "--alpha", "1e308", "--epsilon", "0.1")
        assert run(*argv, "--out", str(tmp_path / "typ.csv")) == 1
        assert capsys.readouterr().err == (
            "tiltlab: tilt order 1e+308 overflows the tilted log-probs at n=4\n"
        )
        assert not list(tmp_path.iterdir())


class TestRateCommand:
    def test_curve_csv(self, tmp_path, s2_path):
        out = tmp_path / "rate.csv"
        assert run(
            "rate", "--source", s2_path, "--kind", "g", "--samples", "21", "--out", str(out)
        ) == 0
        lines = out.read_text().splitlines()
        assert lines[1] == "kind,alpha,t_nats,J_nats,dJdt,d2Jdt2"
        assert len(lines) == 23
        assert lines[2].startswith("forward_g,")

    @pytest.mark.parametrize("spacing", ["lin", "log"])
    def test_grid_past_the_budget_fails_before_it_is_built(self, capsys, spacing):
        spec = str(tl.builtin_spec_path("s77_sample"))
        grid = f"{spacing}:0.1:0.5:10000000"  # 80 MB of float64 when built
        tracemalloc.start()
        try:
            code = run("rate", "--source", spec, "--kind", "r", "--t-grid", grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1
        assert capsys.readouterr().err == (
            f"tiltlab: 10000000 levels of t over 77 symbols exceed the rate grid budget "
            f"{DEFAULT_BUDGET}\n"
        )
        assert peak < 8_000_000

    def test_explicit_t_grid(self, tmp_path, s2_path):
        out = tmp_path / "rate.csv"
        assert run(
            "rate", "--source", s2_path, "--kind", "i",
            "--t-grid", "0.5,0.9,1.2", "--out", str(out),
        ) == 0
        assert len(out.read_text().splitlines()) == 5


class TestApproxCommand:
    def test_curve_and_overlay(self, tmp_path, s2_path):
        out = tmp_path / "approx.csv"
        assert run("approx", "--source", s2_path, "--n", "6", "--out", str(out)) == 0
        lines = out.read_text().splitlines()
        assert lines[1] == "branch,alpha,level_nats,approx_rank,guesswork_rank,probability"
        overlay = (tmp_path / "approx_overlay.csv").read_text().splitlines()
        assert overlay[1] == "series,rank,probability"
        series = {line.split(",")[0] for line in overlay[2:]}
        assert series == {"exact", "forward", "reverse"}

    @pytest.mark.parametrize("name", ["s3_markov", "s3_hmm"])
    def test_words_enumerated_once(self, tmp_path, monkeypatch, name):
        # the sweep takes the rank table's log-probs instead of enumerating again
        def enumerate_again(*args, **kwargs):
            raise AssertionError("words enumerated a second time")

        monkeypatch.setattr(ax, "enumerate_word_log_probs", enumerate_again)
        path = str(tl.builtin_spec_path(name))
        assert run("approx", "--source", path, "--n", "5", "--out", str(tmp_path / "a.csv")) == 0

    def test_iid_sweep_gathers_no_word_log_probs(self, tmp_path, monkeypatch):
        # the i.i.d. sweep tilts theta, so the table's log-probs stay unread
        tables, build = [], gw.build_rank_table

        def spy(*args, **kwargs):
            tables.append(build(*args, **kwargs))
            return tables[-1]

        monkeypatch.setattr(gw, "build_rank_table", spy)
        path = str(tl.builtin_spec_path("s77_sample"))
        assert run("approx", "--source", path, "--n", "3", "--out", str(tmp_path / "a.csv")) == 0
        assert len(tables) == 1
        assert "log_probs" not in vars(tables[0])

    def test_string_count_beyond_the_float_range_exits_1(self, capsys, s2_path):
        assert run("approx", "--source", s2_path, "--n", "1100") == 1
        assert capsys.readouterr().err == "tiltlab: 2^1100 strings exceed the float range\n"

    def test_word_sweep_order_beyond_the_float_range_exits_1(self, tmp_path, capsys):
        argv = ("approx", "--source", S3_MARKOV_PATH, "--n", "3", "--alpha-grid=1e200,-1e200")
        assert run(*argv, "--out", str(tmp_path / "a.csv")) == 1
        assert capsys.readouterr().err == (
            "tiltlab: tilt order 1e+200 overflows the tilted word log-probs\n"
        )
        assert not list(tmp_path.iterdir())


class TestVerifyCommand:
    def test_quick_verify_reports_the_known_gap(self, tmp_path):
        """The quick suite runs end to end; every check except the
        hidden-Markov concordance threshold passes (see README)."""
        out = tmp_path / "verify.json"
        code = run("verify", "--quick", "--out", str(out))
        payload = json.loads(out.read_text())
        failing = [c["name"] for c in payload["checks"] if not c["passed"]]
        assert failing == ["markov_hmm_concordance"]
        assert code == 3

    def test_negative_seed_exits_2(self, tmp_path, capsys):
        assert run("verify", "--seed", "-1", "--out", str(tmp_path / "verify.json")) == 2
        assert capsys.readouterr().err == (
            "tiltlab: config error: seed must be a non-negative integer, not -1\n"
        )
        assert not list(tmp_path.iterdir())


def test_unknown_command_exits_2(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["frobnicate"])
    assert excinfo.value.code == 2

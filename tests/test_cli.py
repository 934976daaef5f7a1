import json

import pytest

import tiltlab as tl
from tiltlab.cli import main


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

    def test_string_count_beyond_the_float_range_exits_1(self, capsys, s2_path):
        assert run("approx", "--source", s2_path, "--n", "1100") == 1
        assert capsys.readouterr().err == "tiltlab: 2^1100 strings exceed the float range\n"


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


def test_unknown_command_exits_2(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["frobnicate"])
    assert excinfo.value.code == 2

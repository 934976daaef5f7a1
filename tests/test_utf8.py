"""Spec files are read, and CSV and JSON files written, as UTF-8 whatever
the locale; text that UTF-8 cannot hold is a config error."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tiltlab as tl
from tiltlab import cli
from tiltlab.errors import SourceSpecError

SRC = str(Path(cli.__file__).parents[1])
#: an ASCII locale, set only in a child process's environment
ASCII_LOCALE = {"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}


def ascii_child(*args, cwd) -> subprocess.CompletedProcess:
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONIOENCODING", "LANG")}
    env.update(ASCII_LOCALE, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, *args], capture_output=True, timeout=120, env=env,
                          cwd=cwd)


@pytest.fixture()
def accented(tmp_path):
    """A spec whose alphabet holds a raw UTF-8 'é'."""
    path = tmp_path / "accented.json"
    text = '{"kind": "categorical", "alphabet": ["é", "b"], "probs": [0.3, 0.7]}'
    path.write_bytes(text.encode("utf-8"))
    return path


def test_the_child_locale_is_ascii(tmp_path):
    done = ascii_child("-c", "import locale; print(locale.getpreferredencoding(False))",
                       cwd=tmp_path)
    encoding = done.stdout.decode().strip().lower()
    if encoding in ("utf-8", "utf8"):
        pytest.skip("this platform keeps UTF-8 under LC_ALL=C")
    assert "utf" not in encoding


@pytest.mark.parametrize("argv", [["guesswork", "--n", "2"],
                                  ["tilt", "--alpha-grid", "0.5,2"],
                                  ["typical", "--n", "3", "--alpha", "0.5", "--epsilon", "0.2"]],
                         ids=lambda argv: argv[0])
def test_ascii_locale_reads_and_writes_utf8(tmp_path, accented, argv):
    """Under an ASCII locale the CLI reads the spec and writes its files
    byte for byte as it does in this process."""
    (tmp_path / "child").mkdir()
    (tmp_path / "here").mkdir()
    tail = ["--source", str(accented), *argv[1:]]
    done = ascii_child("-m", "tiltlab.cli", argv[0], *tail, "--out", "child/out.csv",
                       cwd=tmp_path)
    assert done.returncode in (0, 1), done.stderr.decode()
    assert cli.main([argv[0], *tail, "--out", str(tmp_path / "here" / "out.csv")]) == done.returncode
    names = sorted(p.name for p in (tmp_path / "here").iterdir())
    assert sorted(p.name for p in (tmp_path / "child").iterdir()) == names
    for name in names:
        child = (tmp_path / "child" / name).read_bytes()
        assert child == (tmp_path / "here" / name).read_bytes()
    assert "é" in (tmp_path / "child" / "out.csv").read_bytes().decode("utf-8")


def test_ascii_locale_loads_a_utf8_spec(tmp_path, accented):
    code = ("import tiltlab as tl, sys; s = tl.load_source(sys.argv[1]); "
            "print(ascii(s.alphabet.symbols))")
    done = ascii_child("-c", code, str(accented), cwd=tmp_path)
    assert done.returncode == 0, done.stderr.decode()
    assert done.stdout.decode().strip() == "('\\xe9', 'b')"


def test_spec_that_is_not_utf8_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"kind": "categorical", "alphabet": ["\xff", "b"], "probs": [0.5, 0.5]}')
    with pytest.raises(SourceSpecError, match="not UTF-8"):
        tl.load_source(path)
    out = tmp_path / "out.csv"
    assert cli.main(["guesswork", "--source", str(path), "--n", "1", "--out", str(out)]) == 2
    assert "not UTF-8" in capsys.readouterr().err
    assert not out.exists()


def test_lone_surrogate_symbol_is_refused():
    with pytest.raises(SourceSpecError, match="surrogate"):
        tl.Alphabet(("\ud800", "b"))
    with pytest.raises(SourceSpecError, match="surrogate"):
        tl.Alphabet(("a", "b\udcff"))


@pytest.mark.parametrize("argv", [["guesswork", "--n", "2"],
                                  ["typical", "--n", "2", "--alpha", "0.5", "--epsilon", "0.2"],
                                  ["tilt", "--alpha-grid", "0.5,2"],
                                  ["rate", "--kind", "g", "--samples", "5"],
                                  ["approx", "--n", "2"]],
                         ids=lambda argv: argv[0])
def test_lone_surrogate_spec_is_a_config_error(tmp_path, capsys, argv):
    """JSON "\\ud800" is a lone surrogate: every CSV subcommand exits 2
    before it writes a byte."""
    path = tmp_path / "surrogate.json"
    path.write_text(json.dumps({"kind": "categorical", "alphabet": ["\ud800", "b"],
                                "probs": [0.5, 0.5]}))
    assert "\\ud800" in path.read_text()
    out = tmp_path / "out.csv"
    assert cli.main([argv[0], "--source", str(path), *argv[1:], "--out", str(out)]) == 2
    assert "surrogate" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [path]

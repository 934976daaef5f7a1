"""The column-wise CSV writer against the row-wise reference writer, byte for byte."""
import contextlib
import io
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import tiltlab as tl
from tiltlab import cli, sources

import reference_csv as ref

META = {"source_sha256": "0123456789abcdef", "tiltlab_version": tl.__version__, "n": 3}

#: float64 values whose text is easy to get wrong: signed zeros and
#: infinities, nan with other payloads and signs, subnormals, extremes
SPECIAL_BITS = [
    0x0000000000000000,  # 0.0
    0x8000000000000000,  # -0.0
    0x7FF0000000000000,  # inf
    0xFFF0000000000000,  # -inf
    0x7FF8000000000000,  # nan
    0xFFF8000000000000,  # -nan
    0x7FF0000000000001,  # signalling nan
    0x7FF8DEADBEEF0000,  # nan with a payload
    0x0000000000000001,  # 5e-324
    0x8000000000000001,  # -5e-324
    0x000FFFFFFFFFFFFF,  # largest subnormal
    0x0010000000000000,  # smallest normal
    0x7FEFFFFFFFFFFFFF,  # largest finite
    0x3FF0000000000000,  # 1.0
    0x3FB999999999999A,  # 0.1
]
SPECIALS = np.array(
    [b - (1 << 64) if b >= 1 << 63 else b for b in SPECIAL_BITS], dtype=np.int64
).view(np.float64)


@st.composite
def float_arrays(draw, size):
    """float64 arrays drawn from a small pool, so that values repeat."""
    pool = draw(
        st.lists(
            st.one_of(
                st.sampled_from(SPECIALS.tolist()),
                st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
            ),
            min_size=1,
            max_size=8,
        )
    )
    pool = np.array(pool, dtype=np.float64)
    return pool[draw(hnp.arrays(np.intp, size, elements=st.integers(0, pool.size - 1)))]


def int_arrays(size, low=-(2**63)):
    return hnp.arrays(np.int64, size, elements=st.integers(low, 2**63 - 1))


def str_lists(size):
    text = st.text(st.characters(blacklist_characters=",\n\r"), max_size=6)
    return st.lists(text, min_size=size, max_size=size)


# Column strategies: each draws the values, encodes them with the encoder a
# subcommand would choose for them, and gives (encoded column, the cells the
# row-wise writer receives).

def float_columns(size):
    return float_arrays(size).map(lambda v: (cli._float_bytes(v), list(v)))


def int_columns(size):
    """Int columns are ranks, so `_int_bytes` takes non-negative ints only."""
    return int_arrays(size, 0).map(lambda v: (cli._int_bytes(v), list(v)))


def text_columns(size):
    return str_lists(size).map(lambda v: (cli._coded_bytes(v, np.arange(size)), v))


@st.composite
def coded_columns(draw, size):
    """A short sequence of values, drawn as any plain column is, and a code per row."""
    make = draw(st.sampled_from([float_arrays, int_arrays, str_lists]))
    values = draw(make(draw(st.integers(1, 6))))
    codes = draw(hnp.arrays(np.intp, size, elements=st.integers(0, len(values) - 1)))
    return cli._coded_bytes(values, codes), [values[code] for code in codes]


@st.composite
def tables(draw, kinds):
    """Row groups of one width; each column of each group is of a drawn kind,
    so that a field may hold ints in one group and floats in the next."""
    width = draw(st.integers(1, 5))
    sizes = draw(st.lists(st.integers(0, 40), min_size=1, max_size=3))
    return [[draw(draw(st.sampled_from(kinds))(size)) for _ in range(width)] for size in sizes]


def written(write, *args) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        write(None, *args)
    return out.getvalue()


def same_text_as_the_row_writer(groups, block) -> None:
    header = [f"c{i}" for i in range(len(groups[0]))]
    rows = [row for group in groups for row in zip(*(cells for _, cells in group))]
    expected = written(ref.write_csv, header, rows, META)
    columns = [[column for column, _ in group] for group in groups]
    with mock.patch.object(sources, "_BLOCK", block):
        assert written(cli._write_csv, header, META, *columns) == expected


@settings(max_examples=300, deadline=None)
@given(tables(kinds=(float_columns, int_columns, text_columns)), st.integers(1, 9))
def test_columns_match_the_row_writer(groups, block):
    same_text_as_the_row_writer(groups, block)


@settings(max_examples=300, deadline=None)
@given(tables(kinds=(coded_columns, int_columns)), st.integers(1, 9))
def test_coded_and_stacked_columns_match_the_row_writer(groups, block):
    """Coded columns, stacked as row groups one after another."""
    same_text_as_the_row_writer(groups, block)


@pytest.mark.parametrize("block", range(1, 10))
def test_blocks_split_a_tuple_between_its_parts(block):
    """A tuple of three row groups whose first fields differ in width: 5 ints,
    2 floats and 2 texts; the second field counts in sevens.
    Blocks of 1 to 9 rows split the parts inside and between them."""
    ints, floats, texts = [1, 20, 300, 4000, 50000], [0.5, -1e-300], ["x", "\u00e9"]
    firsts = [(cli._int_bytes(np.array(ints)), ints), (cli._float_bytes(np.array(floats)), floats),
              (cli._coded_bytes(texts, np.arange(2)), texts)]
    sevens = [7 * np.arange(a, b) for a, b in ((0, 5), (5, 7), (7, 9))]
    parts = tuple([first, (cli._int_bytes(s), list(s))] for first, s in zip(firsts, sevens))
    same_text_as_the_row_writer(parts, block)


def test_int_texts_are_str_at_the_int64_extremes():
    edges = [0, 1, 9999, 10000, 2**63 - 1]
    column = cli._int_bytes(np.array(edges, dtype=np.int64))
    assert written(cli._write_csv, ["n"], META, [column]).splitlines()[2:] == list(map(str, edges))


def test_texts_keep_surrogates_nul_and_multibyte_characters():
    texts = ["\ud800", "a\x00b", "\x00", "\u65e5\u672c", "\U0001f600", "", "\udcff\ud83d"]
    codes = np.array([6, 5, 4, 3, 2, 1, 0, 0])
    others = texts + ["z"]
    group = [(cli._coded_bytes(texts, codes), [texts[c] for c in codes]),
             (cli._coded_bytes(others, np.arange(len(others))), others)]
    same_text_as_the_row_writer([group], sources._BLOCK)


def test_rank_table_codes_give_the_pmf_and_log_prob_bits():
    """The CLI writes log_probs[order] and pmf() as level codes into levels
    and exp(levels); both must give every rank's bits."""
    for name, n in (("s2", 10), ("s3", 6), ("s3_markov", 6), ("s3_hmm", 5), ("s77_sample", 2)):
        table = tl.build_rank_table(tl.load_source(tl.builtin_spec_path(name)), n)
        ranked = table.level_of[table.order]
        assert np.array_equal(table.levels[ranked].view(np.int64),
                              table.log_probs[table.order].view(np.int64))
        assert np.array_equal(np.exp(table.levels)[ranked].view(np.int64),
                              table.pmf().view(np.int64))


def test_float_texts_keep_every_bit_pattern():
    column = np.concatenate([SPECIALS, SPECIALS[::-1]])
    got = written(cli._write_csv, ["x"], META, [cli._float_bytes(column)]).splitlines()[2:]
    assert got == [repr(float(x)) for x in column]
    assert got[:10] == ["0.0", "-0.0", "inf", "-inf", "nan", "nan", "nan", "nan", "5e-324", "-5e-324"]


def test_mixed_rank_column_keeps_int_and_float_text():
    """Int exact ranks, then float curve ranks, in blocks of two rows: one
    block boundary falls inside the first group and one between the groups."""
    exact, curve = [cli._int_bytes(np.arange(1, 4))], [cli._float_bytes(np.array([3.0, 17.0]))]
    with mock.patch.object(sources, "_BLOCK", 2):
        got = written(cli._write_csv, ["rank"], META, exact, curve)
    assert got.splitlines()[2:] == ["1", "2", "3", "3.0", "17.0"]


def test_rows_are_written_in_blocks_of_the_source_block():
    """One write for the two head lines, then one per `sources._BLOCK` rows."""
    class Writes(io.StringIO):
        calls = 0

        def write(self, text):
            self.calls += 1
            return super().write(text)

    out = Writes()
    with mock.patch.object(sources, "_BLOCK", 2), contextlib.redirect_stdout(out):
        cli._write_csv(None, ["n"], META, [cli._int_bytes(np.arange(5))])
    assert out.getvalue().splitlines()[2:] == ["0", "1", "2", "3", "4"]
    assert out.calls == 1 + 3


def test_file_and_stdout_agree(tmp_path):
    columns = [cli._float_bytes(np.array([0.5, -0.0])), cli._coded_bytes(["a", "b"], np.arange(2))]
    cli._write_csv(tmp_path / "x.csv", ["p", "s"], META, columns)
    assert (tmp_path / "x.csv").read_text() == written(cli._write_csv, ["p", "s"], META, columns)


def spec(name):
    return str(tl.builtin_spec_path(name))


CASES = [
    ["tilt", "--source", spec("s3"), "--alpha-grid", "lin:-6:6:41"],
    ["tilt", "--source", spec("s2"), "--alpha-grid", "log:0.01:20:9"],
    ["tilt", "--source", spec("s3"), "--alpha-grid", "lin:0:1:0"],
    ["guesswork", "--source", spec("s2"), "--n", "10"],
    ["guesswork", "--source", spec("s3"), "--n", "7"],
    ["guesswork", "--source", spec("s3_markov"), "--n", "6"],
    ["guesswork", "--source", spec("s3_hmm"), "--n", "6"],
    ["guesswork", "--source", spec("s77_sample"), "--n", "2"],
    ["typical", "--source", spec("s3"), "--n", "8", "--alpha", "0.5", "--epsilon", "0.1"],
    ["typical", "--source", spec("s2"), "--n", "10", "--alpha", "-2", "--epsilon", "0.05"],
    ["typical", "--source", spec("s3"), "--n", "6", "--alpha", "1000", "--epsilon", "1"],
    ["typical", "--source", spec("s2"), "--n", "4", "--alpha", "2", "--epsilon", "0.3"],
    ["rate", "--source", spec("s2"), "--kind", "g", "--samples", "41"],
    ["rate", "--source", spec("s3"), "--kind", "r", "--samples", "41"],
    ["rate", "--source", spec("s3"), "--kind", "i", "--t-grid", "0.7,0.9,1.2,1.5"],
    ["approx", "--source", spec("s2"), "--n", "8"],
    ["approx", "--source", spec("s3"), "--n", "6"],
    ["approx", "--source", spec("s3_markov"), "--n", "6"],
    ["approx", "--source", spec("s3_hmm"), "--n", "6"],
    ["approx", "--source", spec("s3_hmm"), "--n", "1"],
    ["approx", "--source", spec("s3"), "--n", "5", "--alpha-grid=-0.5,0.5,2"],
]


@pytest.mark.parametrize("argv", CASES, ids=lambda argv: " ".join(argv).replace(spec("s2")[:-7], ""))
def test_cli_matches_the_row_writer(tmp_path, argv):
    (tmp_path / "new").mkdir()
    (tmp_path / "old").mkdir()
    assert cli.main(argv + ["--out", str(tmp_path / "new" / "out.csv")]) == ref.main(
        argv + ["--out", str(tmp_path / "old" / "out.csv")]
    )
    old = sorted(p.name for p in (tmp_path / "old").iterdir())
    assert sorted(p.name for p in (tmp_path / "new").iterdir()) == old
    for name in old:
        assert (tmp_path / "new" / name).read_bytes() == (tmp_path / "old" / name).read_bytes()


#: symbols of several characters and of unequal UTF-8 byte lengths (2, 6, 2, 1)
WIDE_SYMBOLS = {"kind": "categorical", "alphabet": ["\u00e9", "\u65e5\u672c", "ab", "z"],
                "probs": [0.4, 0.25, 0.2, 0.15]}


def same_files_as_the_row_writer(tmp_path, argv) -> None:
    for side in ("new", "old"):
        (tmp_path / side).mkdir()
    assert cli.main(argv + ["--out", str(tmp_path / "new" / "out.csv")]) == ref.main(
        argv + ["--out", str(tmp_path / "old" / "out.csv")]
    )
    old = sorted(p.name for p in (tmp_path / "old").iterdir())
    assert sorted(p.name for p in (tmp_path / "new").iterdir()) == old
    for name in old:
        assert (tmp_path / "new" / name).read_bytes() == (tmp_path / "old" / name).read_bytes()


@pytest.fixture()
def wide_spec(tmp_path):
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(WIDE_SYMBOLS))
    return str(path)


@pytest.mark.parametrize("argv", [
    ["guesswork", "--n", "5"],
    ["typical", "--n", "5", "--alpha", "0.5", "--epsilon", "0.2"],
    ["approx", "--n", "4"],  # writes no strings, but its overlay codes the levels
], ids=lambda argv: argv[0])
def test_cli_matches_the_row_writer_on_multibyte_symbols(tmp_path, wide_spec, argv):
    same_files_as_the_row_writer(tmp_path, argv[:1] + ["--source", wide_spec] + argv[1:])
    if argv[0] != "approx":
        assert "\u65e5\u672c" in (tmp_path / "new" / "out.csv").read_text(encoding="utf-8")


@pytest.mark.parametrize("words", [1, 4, 16, 64])
def test_strings_gathered_in_words_of_any_length(tmp_path, wide_spec, words):
    """Word tables of 1, 1, 2 and 3 symbols: n = 5 splits into a shorter
    leading word and full ones, or into single symbols."""
    with mock.patch.object(cli, "_WORDS", words):
        same_files_as_the_row_writer(tmp_path, ["guesswork", "--source", wide_spec, "--n", "5"])


def test_cli_stdout_matches_the_row_writer(capsys):
    argv = ["guesswork", "--source", spec("s3"), "--n", "4"]
    assert cli.main(argv) == 0
    got = capsys.readouterr().out
    assert ref.main(argv) == 0
    assert got == capsys.readouterr().out

"""Multi-character symbols round-trip through strings.

`string_at`, `records` and `member_strings` join symbols into one `str`, so
`Alphabet.encode` splits a `str` by the alphabet's symbols: per character
when every symbol is one character, else by the string's one split.  An
alphabet under which some string splits in two ways is refused when it is
built (SourceSpecError), so every string has at most one split, and a
sequence of symbols is always read as given.
"""
import itertools
import json

import numpy as np
import pytest

import tiltlab as tl
from tiltlab.cli import main
from tiltlab.errors import InvalidInput, SourceSpecError, UnknownSymbol

WIDE = tl.Alphabet(("ab", "c", "d"))
#: alphabets with a string of two splits, and that string
AMBIGUOUS = [
    (("a", "b", "ab"), "ab"),  # "ab" is a|b: 26 distinct strings of 27 at n = 3
    (("ab", "ba", "a"), "aba"),  # no symbol joins others, yet ab|a = a|ba
    (("a", "ab", "bab"), "abab"),  # the second round of dangling suffixes finds it
    (("ab", "abc", "cd", "d"), "abcd"),
]
#: alphabets in which every string has at most one split
DECODABLE = [("ab", "c", "d"), ("a", "ab", "c"), ("a", "ab", "bb"),
             tuple(f"s{i}" for i in range(11)), ("p", "q", "r", "s")]


def wide_sources(alphabet):
    """An i.i.d., a Markov and a hidden-Markov source on a 3-symbol alphabet."""
    return [
        tl.CategoricalSource(alphabet, [0.5, 0.3, 0.2]),
        tl.MarkovSource(alphabet, [[0.6, 0.3, 0.1], [0.2, 0.5, 0.3], [0.3, 0.3, 0.4]],
                        [0.5, 0.2, 0.3]),
        tl.HiddenMarkovSource(alphabet, [[0.9, 0.1], [0.2, 0.8]],
                              [[0.7, 0.2, 0.1], [0.1, 0.3, 0.6]], [0.6, 0.4]),
    ]


@pytest.mark.parametrize("source", wide_sources(WIDE), ids=["iid", "markov", "hmm"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_every_string_round_trips(source, n):
    table = tl.build_rank_table(source, n)
    strings = [table.string_at(i) for i in range(table.size)]
    assert [table.index_of(x) for x in strings] == list(range(table.size))
    assert [table.guesswork(x) for x in strings] == table.rank_of.tolist()
    logps = np.array([tl.string_log_prob(source, x) for x in strings])
    if not isinstance(source, tl.HiddenMarkovSource):  # a hidden chain may move the last bits
        assert np.array_equal(logps.view(np.int64), table.log_probs.view(np.int64))
    else:
        np.testing.assert_allclose(logps, table.log_probs, rtol=1e-15)
    assert [(table.guesswork(x), table.reverse_guesswork(x)) for x, _, _, _ in table.records()] \
        == [(g, r) for _, _, g, r in table.records()]


@pytest.mark.parametrize("n", [2, 3, 5])
def test_member_strings_round_trip(n):
    source = wide_sources(WIDE)[0]
    table = tl.build_rank_table(source, n)
    report = tl.typical_set(source, tl.TypicalSetSpec(1.0, 0.2, n), table=table)
    for name in "ABDE":
        strings = report.member_strings(name)
        assert [table.index_of(x) for x in strings] == report.members(name).tolist()


def test_the_first_string_of_the_issue_example():
    table = tl.build_rank_table(wide_sources(WIDE)[0], 2)
    assert table.string_at(0) == "abab"
    assert table.guesswork("abab") == table.guesswork(["ab", "ab"]) == int(table.rank_of[0])
    assert tl.string_log_prob(table.source, "abab") == float(table.log_probs[0])


class TestAmbiguousSplits:
    def test_a_string_with_two_splits_is_refused(self):
        """The alphabet is refused, not the string: under it no split rule,
        even one that knows n, reads every table string back."""
        for symbols, string in AMBIGUOUS:
            splits = [seq for m in range(1, len(string) + 1)
                      for seq in itertools.product(symbols, repeat=m) if "".join(seq) == string]
            assert len(splits) == 2
            with pytest.raises(SourceSpecError, match="not uniquely decodable"):
                tl.Alphabet(symbols)

    def test_spec_files_with_such_an_alphabet_exit_2(self, tmp_path, capsys):
        for kind, fields in [
            ("categorical", {"probs": [0.5, 0.3, 0.2]}),
            ("markov", {"transition": [[0.5, 0.3, 0.2]] * 3}),
            ("hmm", {"transition": [[1.0]], "emission": [[0.5, 0.3, 0.2]]}),
        ]:
            spec = {"kind": kind, "alphabet": ["a", "b", "ab"], **fields}
            with pytest.raises(SourceSpecError, match="not uniquely decodable"):
                tl.source_from_dict(spec)
            path = tmp_path / f"{kind}.json"
            path.write_text(json.dumps(spec))
            assert main(["guesswork", "--source", str(path), "--n", "3"]) == 2
            assert "not uniquely decodable" in capsys.readouterr().err


#: alphabets with a symbol a CSV field cannot hold unquoted
CSV_BREAKING = [("x,y", "z"), ('a"', "b"), ("a", "b\r"), ("a\nb", "c"), ("a", ",")]


@pytest.mark.parametrize("symbols", CSV_BREAKING, ids=repr)
def test_a_symbol_that_breaks_a_csv_field_is_refused(symbols):
    with pytest.raises(SourceSpecError, match="CSV field cannot hold"):
        tl.Alphabet(symbols)


@pytest.mark.parametrize("command", [["guesswork", "--n", "2"], ["tilt", "--alpha-grid", "1,2"]])
def test_spec_files_with_a_csv_breaking_symbol_exit_2(tmp_path, capsys, command):
    spec = {"kind": "categorical", "alphabet": ["x,y", "z"], "probs": [0.6, 0.4]}
    with pytest.raises(SourceSpecError, match="CSV field cannot hold"):
        tl.source_from_dict(spec)
    path, out = tmp_path / "spec.json", tmp_path / "out.csv"
    path.write_text(json.dumps(spec))
    assert main([command[0], "--source", str(path), "--out", str(out), *command[1:]]) == 2
    captured = capsys.readouterr()
    assert "CSV field cannot hold" in captured.err and captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("symbols", DECODABLE, ids=lambda s: "-".join(s[:4]))
@pytest.mark.parametrize("n", [1, 2, 3])
def test_decodable_alphabets_read_every_table_string_back(symbols, n):
    source = tl.CategoricalSource(tl.Alphabet(symbols), np.full(len(symbols), 1 / len(symbols)))
    table = tl.build_rank_table(source, n)
    strings = [table.string_at(i) for i in range(table.size)]
    assert [table.index_of(x) for x in strings] == list(range(table.size))


def two_splits_within(symbols, max_symbols):
    """Whether two symbol sequences of at most `max_symbols` symbols join to one string."""
    seen = set()
    for m in range(1, max_symbols + 1):
        for seq in itertools.product(symbols, repeat=m):
            if (joined := "".join(seq)) in seen:
                return True
            seen.add(joined)
    return False


def test_the_refusal_is_the_brute_force_rule_on_small_alphabets():
    """Every alphabet of 2 to 4 symbols from the 14 words of length 1 to 3
    over {a, b}: it is refused exactly when two sequences of at most 6 of its
    symbols join to one string (here such a pair never needs more than 4)."""
    words = ["".join(w) for m in (1, 2, 3) for w in itertools.product("ab", repeat=m)]
    refused = 0
    for k in (2, 3, 4):
        for symbols in itertools.combinations(words, k):
            try:
                tl.Alphabet(symbols)
            except SourceSpecError:
                refused += 1
                assert two_splits_within(symbols, 6), symbols
            else:
                assert not two_splits_within(symbols, 6), symbols
    assert 0 < refused < 1456


def test_a_string_with_one_split_is_read():
    assert WIDE.encode("cabd").tolist() == [1, 0, 2]
    assert WIDE.encode(["c", "ab"]).tolist() == [1, 0]


def test_a_string_with_no_split_is_refused():
    with pytest.raises(UnknownSymbol, match="'abx' does not split"):
        WIDE.encode("abx")
    with pytest.raises(UnknownSymbol, match="does not split"):
        WIDE.encode("a")
    # one-character symbols keep the per-character reading and its message
    with pytest.raises(UnknownSymbol, match="symbol 'x' not in alphabet"):
        tl.letters(3).encode("abx")


def test_empty_string_is_invalid_input():
    for alphabet in (tl.letters(3), WIDE):
        with pytest.raises(InvalidInput, match="empty string"):
            alphabet.encode("")
    with pytest.raises(InvalidInput):  # a library error, not a bare ValueError
        tl.information(tl.load_source(tl.builtin_spec_path("s3")), "")

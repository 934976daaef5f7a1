"""Multi-character symbols round-trip through strings.

`string_at`, `records` and `member_strings` join symbols into one `str`, so
`Alphabet.encode` splits a `str` by the alphabet's symbols: per character
when every symbol is one character, else by the string's one split.  A string
with several splits is refused with UnknownSymbol, and a sequence of symbols
is always read as given.
"""
import numpy as np
import pytest

import tiltlab as tl
from tiltlab.errors import InvalidInput, UnknownString, UnknownSymbol

WIDE = tl.Alphabet(("ab", "c", "d"))
AMBIGUOUS = tl.Alphabet(("a", "b", "ab"))


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
        with pytest.raises(UnknownSymbol, match="more than one way; pass a sequence of symbols"):
            AMBIGUOUS.encode("ab")

    def test_the_refusal_reaches_the_table_and_the_log_prob(self):
        source = wide_sources(AMBIGUOUS)[0]
        table = tl.build_rank_table(source, 2)
        with pytest.raises(UnknownString, match="more than one way"):
            table.guesswork("ab")
        with pytest.raises(UnknownSymbol, match="more than one way"):
            tl.string_log_prob(source, "aab")
        # a sequence of symbols is read as given, and a string with one split is read
        assert table.index_of(["a", "b"]) == 1
        assert table.index_of(("ab", "a")) == 6
        assert [table.index_of(table.string_at(i)) for i in (0, 3, 4)] == [0, 3, 4]
        assert AMBIGUOUS.encode("bba").tolist() == [1, 1, 0]


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

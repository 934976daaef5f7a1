"""The approximation sweep takes its rank table, and one rule decides whether
a table fits a query.

`approx_pmf_curve(..., table=)` reads a chain table's word log-probs instead
of enumerating them, and tilts theta for an i.i.d. source.  Its points are
bit for bit the points without a table.  A table fits a query when it holds
the query's length and a source of the same kind on the same alphabet with
the same probability-array bytes; `approx_pmf_curve` and `typical_set` both
refuse any other table with InvalidInput.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tiltlab as tl
from tiltlab.errors import InvalidInput, TiltlabError

from conftest import random_hmm, random_markov

#: (shipped source, largest n) of the bit-identity check: n <= 8 within budget
SHIPPED = [("s2", 8), ("s3", 8), ("s3_markov", 8), ("s3_hmm", 8), ("s77_sample", 3)]

#: largest table a drawn source builds
MAX_STRINGS = 2000


def shipped(name):
    return tl.load_source(tl.builtin_spec_path(name))


def point_bits(points):
    """Each point's branch and the int64 bits of its floats (-0.0 is not 0.0)."""
    return [
        (p.branch, np.array([p.alpha, p.level_nats, p.tilted_entropy_nats,
                             p.tilted_varentropy_nats2, p.approx_rank, p.guesswork_rank,
                             p.probability]).view(np.int64).tolist())
        for p in points
    ]


def outcome(source, n, **kwargs):
    """The point bits of a sweep, or its library error's type and message."""
    try:
        return point_bits(tl.approx_pmf_curve(source, n, **kwargs))
    except TiltlabError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize(
    "name,n", [(name, n) for name, top in SHIPPED for n in range(1, top + 1)]
)
def test_table_gives_the_same_point_bits(name, n):
    source = shipped(name)
    table = tl.build_rank_table(source, n)
    assert outcome(source, n, table=table) == outcome(source, n)


def test_iid_sweep_reads_nothing_of_the_table():
    source = shipped("s3")
    table = tl.build_rank_table(source, 6)
    tl.approx_pmf_curve(source, 6, table=table)
    assert "log_probs" not in vars(table)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.booleans(), st.integers(1, 6))
def test_drawn_chains_give_the_same_point_bits(seed, hidden, n):
    source = (random_hmm if hidden else random_markov)(seed)
    while len(source.alphabet) ** n > MAX_STRINGS:
        n -= 1
    table = tl.build_rank_table(source, n)
    assert outcome(source, n, table=table) == outcome(source, n)


class TestRefusals:
    def test_table_of_another_length(self):
        source = shipped("s3_markov")
        with pytest.raises(InvalidInput, match="length-7 strings, the query asks n=8"):
            tl.approx_pmf_curve(source, 8, table=tl.build_rank_table(source, 7))

    def test_table_of_another_kind(self):
        table = tl.build_rank_table(shipped("s3_hmm"), 6)
        with pytest.raises(InvalidInput, match="another source"):
            tl.approx_pmf_curve(shipped("s3_markov"), 6, table=table)

    def test_table_of_another_chain_on_the_same_alphabet(self):
        source = shipped("s3_markov")
        other = tl.MarkovSource(source.alphabet, source.transition[::-1], source.initial)
        with pytest.raises(InvalidInput, match="another source"):
            tl.approx_pmf_curve(source, 6, table=tl.build_rank_table(other, 6))

    def test_table_of_another_hidden_chain_on_the_same_alphabet(self):
        source = shipped("s3_hmm")
        other = tl.HiddenMarkovSource(
            source.alphabet, source.transition, source.emission[::-1], source.initial
        )
        with pytest.raises(InvalidInput, match="another source"):
            tl.approx_pmf_curve(source, 6, table=tl.build_rank_table(other, 6))

    def test_iid_query_given_a_chain_table(self):
        table = tl.build_rank_table(shipped("s3_markov"), 6)
        with pytest.raises(InvalidInput, match="another source"):
            tl.approx_pmf_curve(shipped("s3"), 6, table=table)

    @pytest.mark.parametrize("name", ["s3", "s3_markov", "s3_hmm"])
    def test_table_of_a_reloaded_spec_is_accepted(self, name):
        source, reloaded = shipped(name), shipped(name)
        assert reloaded is not source
        table = tl.build_rank_table(reloaded, 6)
        assert outcome(source, 6, table=table) == outcome(source, 6)

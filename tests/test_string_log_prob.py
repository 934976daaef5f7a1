"""`string_log_prob` against the enumerated rank table, bit for bit.

Every string's log-prob must be the one `build_rank_table` stores for it:
the type-class sum for i.i.d. sources, the forward recursions for Markov and
hidden Markov sources, whatever the BLAS thread count.
"""
import hashlib
import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import tiltlab as tl

from conftest import random_hmm, random_markov

#: (shipped source, largest n); every string of every length up to n is checked
SHIPPED = (("s2", 8), ("s3", 8), ("s3_markov", 8), ("s3_hmm", 8), ("s77_sample", 2))

#: strings drawn from the 77^3 of `s77_sample` at n = 3
S77_SAMPLE = 3000

#: largest table a drawn source builds
MAX_STRINGS = 1024

#: (`random_hmm` seed, n) of the thread-count checks: 8 to 12 hidden states
#: (numpy's row sums), and 2^16 or 3^10 words, so the enumeration's matrix
#: products run on many rows
MANY_STATES = ((0, 8), (4, 8), (9, 10), (14, 16))

#: strings drawn from each of those tables
DRAWN = 600


def as_bits(values):
    return np.asarray(values, dtype=np.float64).view(np.int64)


def assert_table_bits(source, n, words=None):
    """string_log_prob(x) has the bits of the table entry at index_of(x) for
    every word (all |alphabet|^n when None), each a tuple of symbols."""
    table = tl.build_rank_table(source, n)
    if words is None:
        words = itertools.product(source.alphabet.symbols, repeat=n)
    words = list(words)
    got = as_bits([tl.string_log_prob(source, w) for w in words])
    want = as_bits(table.log_probs[[table.index_of(w) for w in words]])
    differ = np.flatnonzero(got != want)
    assert differ.size == 0, (
        f"{differ.size} of {len(words)} strings differ, first {''.join(words[differ[0]])}"
    )


@pytest.mark.parametrize("name, n_max", SHIPPED, ids=[name for name, _ in SHIPPED])
def test_shipped_strings_match_the_table(name, n_max):
    source = tl.load_source(tl.builtin_spec_path(name))
    for n in range(1, n_max + 1):
        assert_table_bits(source, n)


def test_s77_sample_strings_match_the_table():
    source = tl.load_source(tl.builtin_spec_path("s77_sample"))
    rng = np.random.default_rng(77)
    symbols = np.array(source.alphabet.symbols)
    words = [tuple(w) for w in symbols[rng.integers(0, len(symbols), (S77_SAMPLE, 3))]]
    assert_table_bits(source, 3, words)


@st.composite
def iid_with_zeros(draw):
    """An i.i.d. source whose probabilities may be 0, and a length n."""
    k = draw(st.integers(2, 5))
    raw = draw(
        st.lists(
            st.one_of(st.just(0.0), st.floats(1e-3, 1.0)), min_size=k, max_size=k
        )
    )
    assume(sum(raw) > 0)
    theta = np.asarray(raw) / sum(raw)
    n = draw(st.integers(1, int(np.log(MAX_STRINGS) / np.log(k))))
    return tl.CategoricalSource(tl.letters(k), theta), n


@settings(max_examples=80, deadline=None)
@given(iid_with_zeros())
def test_drawn_iid_strings_match_the_table(query):
    source, n = query
    assert_table_bits(source, n)


def chain_lengths(source):
    k = len(source.alphabet)
    return range(1, int(np.log(MAX_STRINGS / 4) / np.log(k)) + 1)


@pytest.mark.parametrize("seed", range(12))
def test_random_markov_strings_match_the_table(seed):
    source = random_markov(seed)
    for n in chain_lengths(source):
        assert_table_bits(source, n)


@pytest.mark.parametrize("seed", range(12))
def test_random_hmm_strings_match_the_table_to_the_last_bits(seed):
    source = random_hmm(seed)
    for n in chain_lengths(source):
        assert_table_bits(source, n)


def hmm_string_digest():
    """Check drawn strings of many-state hidden chains against their tables,
    bit for bit, and return a digest of the strings' bits; run in a
    subprocess per BLAS thread count."""
    digest = hashlib.sha256()
    for seed, n in MANY_STATES:
        source = random_hmm(seed)
        assert source.n_states >= 8
        symbols = np.array(source.alphabet.symbols)
        rng = np.random.default_rng(seed)
        words = [tuple(w) for w in symbols[rng.integers(0, len(symbols), (DRAWN, n))]]
        assert_table_bits(source, n, words)
        digest.update(as_bits([tl.string_log_prob(source, w) for w in words]).tobytes())
    return digest.hexdigest()


def test_hmm_string_bits_do_not_depend_on_the_blas_thread_count():
    tests = Path(__file__).resolve().parent
    path = os.pathsep.join(filter(None, [str(tests.parent / "src"), str(tests),
                                         os.environ.get("PYTHONPATH")]))
    digests = []
    for threads in ("1", "2"):
        done = subprocess.run(
            [sys.executable, "-c",
             "import test_string_log_prob as t; print(t.hmm_string_digest())"],
            capture_output=True, text=True, timeout=300,
            env=dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=threads),
        )
        assert done.returncode == 0, done.stderr
        digests.append(done.stdout.strip())
    assert digests[0] == digests[1]

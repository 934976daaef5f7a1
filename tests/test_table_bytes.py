"""Rank tables in few bytes per string, with every bit kept.

The Markov and hidden-Markov enumerations run in prefix blocks; their words
must have the old recursions' bits whatever the block height (and, for the
hidden chain, the BLAS thread count), and one word runs no block driver.  A chain table's level index is built from one
sort of the enumerated bits and must equal `np.unique`'s.  The build's
tracemalloc peak per string and the bytes a table holds per string are
bounded, and `tie_groups()` takes the smallest unsigned integer type that
holds the number of groups.
"""
import hashlib
import itertools
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import tiltlab as tl
from tiltlab import sources
from tiltlab.sources import _word_levels

from conftest import random_hmm, random_markov
from reference_sources import (
    reference_hmm_word_log_probs,
    reference_markov_word_log_probs,
    reference_word_levels,
)
from test_word_tables import enumeration_peak_per_word

#: largest n of the block-height checks
BLOCK_N_MAX = 8

#: block heights checked, in words; None is one prefix (k words), "7k" seven
BLOCKS = (1, None, "7k", 4096)

#: block heights checked under each BLAS thread count: those whose matrix
#: products have many rows (one prefix's product has k rows)
THREADED_BLOCKS = ("7k", 4096, sources._BLOCK)

#: tracemalloc peak per string allowed to a chain build at n = 12; the
#: `np.unique` level index peaked at 49 B, one sort of the bits at 24 B
CHAIN_BUILD_BYTES_PER_STRING = 30

#: the same for `s2` at n = 20: 25 B with an N-sized `arange` for `rank_of`
#: and int64 tie groups in the build, 17.5 B without, 10 B with an int64
#: order, 5.75 B with a uint32 order sorted in place (4 B the order, 1 B
#: `level_of`, and one block's gather temporaries)
S2_BUILD_BYTES_PER_STRING = 6.5

#: bytes per string a built table holds in `order`, `levels` and `level_of`:
#: a 4-byte order, a 1-byte `level_of` and 21 levels for `s2` at n = 20
#: (9 B with an int64 order); `s3_hmm` at n = 13 holds 8.38 B (12.38 B)
HELD_BYTES_PER_STRING = {("s2", 20): 5.01, ("s3_hmm", 13): 8.5}

#: tracemalloc peak per word allowed to the s3_hmm enumeration at n = 13:
#: 48 B with the last level whole, 12.2 B in a depth-first block stack,
#: 9.3 B in prefix blocks written into the output
HMM_BLOCK_PEAK_BYTES_PER_WORD = 10.5

#: the same for s3_markov: 10.75 B whole levels, 8.2 B in prefix blocks
MARKOV_BLOCK_PEAK_BYTES_PER_WORD = 9


def bits(values):
    return np.asarray(values, dtype=np.float64).view(np.int64)


def block_words(block, k):
    return {None: k, "7k": 7 * k}.get(block, block)


def shipped(name):
    return tl.load_source(tl.builtin_spec_path(name))


def hmm_sources():
    return [shipped("s3_hmm")] + [random_hmm(seed) for seed in range(12)]


def markov_sources():
    return [shipped("s3_markov")] + [random_markov(seed) for seed in range(12)]


def hmm_block_digest():
    """Check the multi-row block heights against the reference recursion, and
    return a digest of the words' bits; run in a subprocess per BLAS thread
    count, since it sets the block constant."""
    digest = hashlib.sha256()
    for source in hmm_sources():
        for n in range(1, BLOCK_N_MAX + 1):
            want = bits(reference_hmm_word_log_probs(source, n))
            for block in THREADED_BLOCKS:
                sources._BLOCK = block_words(block, len(source.alphabet))
                got = bits(tl.enumerate_word_log_probs(source, n))
                assert np.array_equal(got, want), (source, n, block)
            digest.update(want.tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("block", BLOCKS, ids=lambda b: f"block-{b or 'k'}")
def test_hmm_blocks_keep_the_reference_bits(block, monkeypatch):
    for source in hmm_sources():
        monkeypatch.setattr(sources, "_BLOCK", block_words(block, len(source.alphabet)))
        for n in range(1, BLOCK_N_MAX + 1):
            got = bits(tl.enumerate_word_log_probs(source, n))
            np.testing.assert_array_equal(got, bits(reference_hmm_word_log_probs(source, n)))


def test_s3_hmm_default_blocks_keep_the_reference_bits(s3_hmm):
    got = bits(tl.enumerate_word_log_probs(s3_hmm, 12))
    np.testing.assert_array_equal(got, bits(reference_hmm_word_log_probs(s3_hmm, 12)))


def test_hmm_block_bits_do_not_depend_on_the_blas_thread_count():
    tests = Path(__file__).resolve().parent
    path = os.pathsep.join(filter(None, [str(tests.parent / "src"), str(tests),
                                         os.environ.get("PYTHONPATH")]))
    digests = []
    for threads in ("1", "2"):
        done = subprocess.run(
            [sys.executable, "-c", "import test_table_bytes as t; print(t.hmm_block_digest())"],
            capture_output=True, text=True, timeout=300,
            env=dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=threads),
        )
        assert done.returncode == 0, done.stderr
        digests.append(done.stdout.strip())
    assert digests[0] == digests[1]


def test_hmm_block_enumeration_peak_per_word(s3_hmm):
    assert enumeration_peak_per_word(s3_hmm, 13) < HMM_BLOCK_PEAK_BYTES_PER_WORD


@pytest.mark.parametrize("block", BLOCKS, ids=lambda b: f"block-{b or 'k'}")
def test_markov_blocks_keep_the_reference_bits(block, monkeypatch):
    infinite = False
    for source in markov_sources():
        monkeypatch.setattr(sources, "_BLOCK", block_words(block, len(source.alphabet)))
        for n in range(1, BLOCK_N_MAX + 1):
            got = bits(tl.enumerate_word_log_probs(source, n))
            np.testing.assert_array_equal(got, bits(reference_markov_word_log_probs(source, n)))
            infinite |= bool(np.isneginf(got.view(np.float64)).any())
    assert infinite  # zero transitions give some words -inf


def test_markov_block_enumeration_peak_per_word(s3_markov):
    assert enumeration_peak_per_word(s3_markov, 13) < MARKOV_BLOCK_PEAK_BYTES_PER_WORD


#: (chain, its level loop, its oracle) of the block-edge checks
EDGES = [
    ("s3_markov", "_markov_forward", reference_markov_word_log_probs),
    ("s3_hmm", "_hmm_forward", reference_hmm_word_log_probs),
]


@pytest.mark.parametrize("name, loop, reference", EDGES, ids=[name for name, _, _ in EDGES])
def test_block_edges(name, loop, reference, monkeypatch):
    """k^n words in exactly one block run as one call from the empty prefix;
    one level more runs a one-level head and one call per prefix; n = 1 is
    one call whatever the block."""
    source, calls = shipped(name), []
    run = getattr(sources, loop)

    def spy(source, levels, start=None, *args, **kwargs):
        calls.append((len(levels), start is None))
        return run(source, levels, start, *args, **kwargs)

    monkeypatch.setattr(sources, loop, spy)
    k, n = len(source.alphabet), 5
    for block, length, want in [
        (k**n, n, [(n, True)]),
        (k**n, n + 1, [(1, True)] + [(n, False)] * k),
        (1, 1, [(1, True)]),
    ]:
        monkeypatch.setattr(sources, "_BLOCK", block)
        calls.clear()
        got = bits(tl.enumerate_word_log_probs(source, length))
        np.testing.assert_array_equal(got, bits(reference(source, length)))
        assert calls == want, (block, length)


@pytest.mark.parametrize("name", ["s3_markov", "s3_hmm"])
def test_one_word_runs_no_block_driver(name, monkeypatch):
    source = shipped(name)
    words = list(itertools.product(source.alphabet.symbols, repeat=6))
    want = bits(tl.enumerate_word_log_probs(source, 6))

    def no_driver(*args):
        raise AssertionError("string_log_prob entered the block driver")

    monkeypatch.setattr(sources, "_chain_words", no_driver)
    np.testing.assert_array_equal(bits([tl.string_log_prob(source, w) for w in words]), want)


#: (source maker, its argument, largest n) of the chain level indexes checked
CHAINS = [(shipped, "s3_markov", 12), (shipped, "s3_hmm", 12)] + [
    (make, seed, 6) for make in (random_markov, random_hmm) for seed in range(12)
]


@pytest.mark.parametrize(
    "make, arg, n_max", CHAINS, ids=[f"{make.__name__}-{arg}" for make, arg, _ in CHAINS]
)
def test_chain_level_index_matches_np_unique(make, arg, n_max):
    source = make(arg)
    infinite = False
    for n in range(1, n_max + 1):
        levels, level_of = _word_levels(source, n)
        logp = tl.enumerate_word_log_probs(source, n)
        want_levels, want_level_of = reference_word_levels(logp)
        np.testing.assert_array_equal(bits(levels), bits(want_levels))
        np.testing.assert_array_equal(level_of, want_level_of)
        assert level_of.dtype == want_level_of.dtype
        infinite |= bool(np.isneginf(logp).any())
    # zero transitions give every random Markov source words at -inf
    assert make is not random_markov or infinite


def build_peak_per_string(source, n):
    tl.build_rank_table(source, n)  # first-call allocations stay out of the peak
    tracemalloc.start()
    try:
        table = tl.build_rank_table(source, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / table.size


@pytest.mark.parametrize(
    "name, n, bound",
    [("s3_markov", 12, CHAIN_BUILD_BYTES_PER_STRING), ("s3_hmm", 12, CHAIN_BUILD_BYTES_PER_STRING),
     ("s2", 20, S2_BUILD_BYTES_PER_STRING)],
)
def test_build_peak_per_string(name, n, bound):
    assert build_peak_per_string(shipped(name), n) < bound


@pytest.mark.parametrize("name, n", HELD_BYTES_PER_STRING)
def test_held_bytes_per_string(name, n):
    table = tl.build_rank_table(shipped(name), n)
    held = table.order.nbytes + table.levels.nbytes + table.level_of.nbytes
    assert held / table.size <= HELD_BYTES_PER_STRING[name, n]


@pytest.mark.parametrize(
    "name, n, groups, dtype", [("s2", 20, 21, np.uint8), ("s3_markov", 10, 1467, np.uint16)]
)
def test_tie_groups_take_the_smallest_unsigned_type(name, n, groups, dtype):
    found = tl.build_rank_table(shipped(name), n).tie_groups()
    assert found.dtype == dtype
    assert int(found[-1]) == groups

"""Reference type-class build: every class unranked once per alphabet symbol.

This is `sources._type_classes` as it was before the class levels were summed
over sorted symbol tuples, kept as a test oracle.  It unranks all
C(n+k-1, k-1) classes k-1 times, so it costs O(k C) where the library costs
O(n C).  The library must give the same `levels` bits and the same
`level_of`, dtype included.
"""
import math

import numpy as np

from tiltlab.sources import CategoricalSource


def reference_type_classes(source: CategoricalSource, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Log-prob of every type class, and the class of every length-n string.

    A type class is a composition c of n into k symbol counts.  It is numbered
    by the colex rank of its stars-and-bars form, with the bars at the suffix
    sums q_i = c_{k-1-i} + ... + c_{k-1} (i = 0..k-2):
    rank = sum_i C(q_i + i, i + 1).  Unranking finds q_{k-2} first, which
    yields the counts c_0, c_1, ... in alphabet order, so the class log-prob
    is accumulated exactly as a per-string count vector would give it.

    A length-j prefix is held as the class of its counts plus n - j padding
    counts on symbol 0.  Appending symbol s moves one padding count to s: q_i
    grows by one for i >= k-1-s, and the rank by sum_{i >= k-1-s} C(q_i + i, i).
    `succ[r, s]` is that successor for the C(n+k-2, k-1) classes that still
    hold padding, which are the lowest ranks.  The strings' classes are then
    built one symbol at a time, one gather per level, in lexicographic order.
    """
    k = len(source.alphabet)
    log_theta = source.log_theta
    n_classes = math.comb(n + k - 1, k - 1)
    n_padded = math.comb(n + k - 2, k - 1)
    dtype = np.min_scalar_type(n_classes - 1)

    rem = np.arange(n_classes, dtype=np.int64)
    levels = np.zeros(n_classes)
    succ = np.empty((n_padded, k), dtype=dtype)
    succ[:, 0] = np.arange(n_padded)  # symbol 0 takes the padding count
    above = np.full(n_classes, n, dtype=np.int64)  # q_{i+1}; q_{k-1} = n
    with np.errstate(invalid="ignore"):  # 0 * log 0, masked out below
        for i in range(k - 2, -1, -1):
            bar_rank = np.array([math.comb(v + i, i + 1) for v in range(n + 1)])
            q = np.searchsorted(bar_rank, rem, side="right") - 1
            rem -= bar_rank[q]
            count = above - q  # c_{k-2-i}
            np.add(levels, count * log_theta[k - 2 - i], out=levels, where=count > 0)
            step = np.array([math.comb(v + i, i) for v in range(n)])
            succ[:, k - 1 - i] = succ[:, k - 2 - i] + step[q[:n_padded]]
            above = q
        np.add(levels, above * log_theta[k - 1], out=levels, where=above > 0)

    level_of = np.zeros(1, dtype=dtype)
    for _ in range(n):
        level_of = succ.take(level_of, axis=0).reshape(-1)
    return levels, level_of

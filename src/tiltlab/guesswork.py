"""Exhaustive guesswork machinery.

Builds the optimal (most-likely-first) and reverse orderings over all
length-n strings, with probability ties broken lexicographically, and on top
of that the exact guesswork PMF, tilted weakly typical sets, and a ledger of
the finite-n probability / size / rank bounds those sets satisfy.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Optional

import numpy as np

from . import sources
from .errors import BudgetExceeded, InvalidInput, OutOfRange, UnknownString, UnknownSymbol
from .measures import (
    _cross_entropy,
    _cross_varentropy,
    _on_support,
    _relative_entropy,
    _require_same_alphabet,
)
from .numeric import _exp_or_inf, log_sum_exp
from .sources import (
    DEFAULT_BUDGET,
    CategoricalSource,
    SequenceSource,
    _require_length,
    tilt,
    validate,
)

#: strings whose log-probs differ by less than this (times n) count as tied
TIE_TOL_PER_SYMBOL = 1e-12


def _tie_group_ids(descending: np.ndarray, tie_tol: float) -> np.ndarray:
    """Tie-group id, counted from 1, of each entry of a non-increasing sequence,
    in the smallest unsigned integer type that holds the number of groups.

    A new group starts where a value lies more than tie_tol below the one
    before it, so near-equal values chain into one group.
    """
    starts = np.empty(descending.size, dtype=bool)
    starts[0] = True
    with np.errstate(invalid="ignore"):
        np.greater(descending[:-1] - descending[1:], tie_tol, out=starts[1:])
    return np.cumsum(starts, dtype=np.min_scalar_type(np.count_nonzero(starts)))


def _rank_order(levels: np.ndarray, level_of: np.ndarray, tie_tol: float) -> np.ndarray:
    """Lexicographic string indices sorted by (tie group, lex index), as uint32.

    `levels` are the log-prob levels and `level_of` maps each string to its
    level; equal levels may repeat.  Tie groups are found on the levels
    sorted once.  Each string's key packs its level's group id above its
    lexicographic index, `(group << b) | index` with b = ceil(log2 N), in
    uint32 when the group ids fit the 32 - b bits left and in uint64
    otherwise; sorting the keys by value and masking off the groups leaves
    every group's strings in lexicographic order, which is the tie-break.
    The keys are gathered `sources._BLOCK` strings at a time, so no
    string-sized intp array is made.  `build_rank_table` holds N to 2^31,
    so b <= 31 and the indices fit uint32.
    """
    by_level = np.argsort(-levels)  # order among equal levels does not matter
    ids = _tie_group_ids(levels[by_level], tie_tol)
    b = (level_of.size - 1).bit_length()
    key_type = np.uint32 if b + int(ids[-1]).bit_length() <= 32 else np.uint64
    group = np.empty(levels.size, dtype=key_type)
    group[by_level] = ids
    del by_level, ids
    group <<= b
    key = np.empty(level_of.size, dtype=key_type)
    for start in range(0, key.size, sources._BLOCK):
        block = key[start : start + sources._BLOCK]
        np.take(group, level_of[start : start + block.size], out=block)
        block |= np.arange(start, start + block.size, dtype=key_type)
    del group
    key.sort()
    key &= (1 << b) - 1
    return key.astype(np.uint32, copy=False)


def _decode_strings(symbols: tuple[str, ...], n: int, lex_indices: np.ndarray) -> list[str]:
    """The length-n strings at the given lexicographic indices.

    The base-k digits are split into groups of g, and each group is a gather
    from the table of all k^g words of that length (the leading group may be
    shorter).  g is the widest group, up to ceil(n/2), whose table holds no
    more words than there are indices: many indices join two half-length
    tables with one concatenation, and a single index is read symbol by
    symbol.
    """
    k = len(symbols)
    rem = np.asarray(lex_indices, dtype=np.int64)
    tables = [np.array(symbols, dtype=object)]  # tables[w - 1]: the words of length w
    while len(tables) < (n + 1) // 2 and k ** (len(tables) + 1) <= rem.size:
        tables.append((tables[-1][:, None] + tables[0]).reshape(-1))
    g = len(tables)
    lows = range(0, n, g)
    digits = rem[:, None] // k ** np.arange(0, n, g) % k**g  # one column per group
    strings = tables[n - lows[-1] - 1][digits[:, -1]]
    for j in reversed(range(len(lows) - 1)):
        strings = strings + tables[-1][digits[:, j]]
    return strings.tolist()


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for arr in arrays:
        arr.setflags(write=False)
    return arrays


@dataclass(frozen=True, eq=False)
class RankTable:
    """All |alphabet|^n strings with their log-prob, guesswork G and reverse rank R.

    G is a bijection onto 1..|alphabet|^n ordered by decreasing probability
    (lexicographic tie-break); R = |alphabet|^n + 1 - G, so the least likely
    string has R = 1 and log R stays finite.

    The table stores its rank order once, as `order` (uint32, 4 B per
    string), and its log-prob levels: `level_of` maps each lexicographic
    string index to its level in `levels`.  The per-string views are built
    on first read: `rank_of` inverts `order`, and `log_probs` is
    `levels[level_of]` bit for bit.  An i.i.d. table's levels are its type
    classes' log-probs (two classes may share a value); a Markov or hidden
    Markov table's are the distinct bit patterns of its strings' log-probs.
    """

    source: SequenceSource
    n: int
    order: np.ndarray  # rank - 1  -> lexicographic string index, uint32
    levels: np.ndarray  # log-prob per level (per type class for an i.i.d. table)
    level_of: np.ndarray  # lexicographic string index -> level

    @property
    def size(self) -> int:
        return self.level_of.size

    @cached_property
    def rank_of(self) -> np.ndarray:
        """G by lexicographic string index, the inverse of `order`: scattered
        `sources._BLOCK` ranks at a time on first read, read-only."""
        rank_of = np.empty(self.size, dtype=np.int64)
        for start in range(0, self.size, sources._BLOCK):
            # numpy scatters by an intp index faster than by the uint32 order
            block = self.order[start : start + sources._BLOCK].astype(np.intp)
            rank_of[block] = np.arange(start + 1, start + block.size + 1)
        return _read_only(rank_of)[0]

    @cached_property
    def log_probs(self) -> np.ndarray:
        """`levels[level_of]`, by lexicographic string index: gathered on first read, read-only."""
        return _read_only(self.levels[self.level_of])[0]

    def index_of(self, x) -> int:
        try:
            idx = self.source.alphabet.encode(x)
        except (UnknownSymbol, ValueError) as exc:
            raise UnknownString(str(exc)) from exc
        if idx.size != self.n:
            raise UnknownString(f"expected a string of length {self.n}")
        k = len(self.source.alphabet)
        out = 0
        for d in idx:
            out = out * k + int(d)
        return out

    def string_at(self, lex_index: int) -> str:
        sources._require_int(lex_index, "lexicographic index", 0, self.size)
        return _decode_strings(self.source.alphabet.symbols, self.n, [lex_index])[0]

    def guesswork(self, x) -> int:
        return int(self.rank_of[self.index_of(x)])

    def reverse_guesswork(self, x) -> int:
        return self.size + 1 - self.guesswork(x)

    def log_guesswork(self, x) -> float:
        return math.log(self.guesswork(x))

    def log_reverse_guesswork(self, x) -> float:
        return math.log(self.reverse_guesswork(x))

    def _ranked_levels(self) -> np.ndarray:
        """`level_of[order]`, the level at each rank, gathered `sources._BLOCK`
        ranks at a time: numpy casts an index array to intp before it
        gathers, so one whole gather would hold an 8-byte copy of `order`."""
        ranked = np.empty(self.size, dtype=self.level_of.dtype)
        for start in range(0, self.size, sources._BLOCK):
            stop = start + sources._BLOCK
            np.take(self.level_of, self.order[start:stop], out=ranked[start:stop])
        return ranked

    def pmf(self) -> np.ndarray:
        """Probability at each rank; pmf()[r - 1] is the rank-r probability."""
        run_levels, run_lengths, _ = self._level_runs
        return np.repeat(np.exp(self.levels[run_levels]), run_lengths)

    @cached_property
    def _level_runs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The level, the length and the tie-group id of each run of equal
        levels in rank order, walked once on first use, read-only, in the
        smallest types (a table can hold as many runs as strings); a level's
        strings lie in several runs where near-tied levels interleave."""
        ranked = self._ranked_levels()
        starts = np.flatnonzero(ranked[1:] != ranked[:-1]) + 1
        run_levels = ranked[np.r_[0, starts]]
        lengths = np.diff(starts, prepend=0, append=self.size)
        lengths = lengths.astype(np.min_scalar_type(lengths.max()))
        groups = _tie_group_ids(self.levels[run_levels], TIE_TOL_PER_SYMBOL * self.n)
        return _read_only(run_levels, lengths, groups)

    def records(self) -> Iterator[tuple[str, float, int, int]]:
        """(string, log-prob, G, R) rows in rank order, `sources._BLOCK` at a time."""
        size = self.size
        for start in range(0, size, sources._BLOCK):
            idx = self.order[start : start + sources._BLOCK]
            strings = _decode_strings(self.source.alphabet.symbols, self.n, idx)
            ranks = range(start + 1, start + idx.size + 1)
            logps = self.levels[self.level_of[idx]].tolist()
            for x, logp, r in zip(strings, logps, ranks):
                yield x, logp, r, size + 1 - r

    def tie_groups(self) -> np.ndarray:
        """Group id per rank position, counted from 1 in the smallest unsigned
        integer type that holds the number of groups; equal ids mean tied
        probabilities.

        Groups chain the rank-ordered log-probs, so near-equal levels whose
        strings interleave in lexicographic order can split a block that the
        build ordered as one (ROADMAP item 9 has the fix, one change to the
        run walk's group ids that moves a benchmark digest).  The walk is over
        the runs of equal levels in rank order: a group can start only where
        the level changes, and there the gap between the two levels decides
        it, as it does string by string.
        """
        _, run_lengths, run_groups = self._level_runs
        return np.repeat(run_groups, run_lengths)


def build_rank_table(
    source: SequenceSource, n: int, budget: int = DEFAULT_BUDGET
) -> RankTable:
    """Enumerate all length-n strings and assign optimal/reverse ranks.

    Only the levels (`_word_levels`) are sorted and grouped: the
    C(n+k-1, k-1) type classes of an i.i.d. source, the distinct log-prob
    bit patterns of a Markov or hidden Markov one.  Every string's tie-group
    key is a gather from its level, and one sort by that integer key, ties
    in lexicographic order (`_rank_order`), gives the rank order.  The table
    stores that order alone; `rank_of`, its inverse, is built on first read.
    A table holds at most 2^31 strings, whatever the budget, so its order
    is uint32 (BudgetExceeded before anything is enumerated).
    """
    k = len(source.alphabet)
    sources.require_budget(k, n, budget)
    if k**n > 1 << 31:
        raise BudgetExceeded(f"{k}^{n} strings exceed 2^31, the most a rank table holds")
    levels, level_of = sources._word_levels(source, n)
    order = _rank_order(levels, level_of, TIE_TOL_PER_SYMBOL * n)
    _read_only(order, levels, level_of)
    return RankTable(source=source, n=n, order=order, levels=levels, level_of=level_of)


def _require_table_for(source: SequenceSource, n: int, table: Optional[RankTable]) -> None:
    """The one rule for a rank table given to a query; None, no table, passes.
    The table must hold the length-n strings of `source` by value: a source
    of the same kind on the same alphabet with the same probability-array
    bytes (a reloaded spec is a new object).  InvalidInput otherwise."""
    if table is None:
        return
    if table.n != n:
        raise InvalidInput(f"the rank table holds length-{table.n} strings, the query asks n={n}")
    built = table.source
    arrays = [[v.tobytes() for v in vars(s).values() if isinstance(v, np.ndarray)]
              for s in (built, source)]
    if not (type(built) is type(source) and built.alphabet == source.alphabet
            and arrays[0] == arrays[1]):
        raise InvalidInput("the rank table was built for another source")


def guesswork_pmf(table: RankTable) -> np.ndarray:
    """Exact PMF of guesswork: entry r-1 is the probability of the rank-r string."""
    return table.pmf()


def _set_prob(logp: np.ndarray, members: np.ndarray) -> float:
    """Probability of a set of strings, given by a mask or by ascending
    indices: the exponentials of its members' log-probs, gathered in
    lexicographic order, summed.  The gather is a copy, so the exponentials
    overwrite it: one set-sized temporary, not two."""
    probs = logp[members]
    return float(np.exp(probs, out=probs).sum())


def corridor_mass(table: RankTable, ts, epsilon: float) -> list[float]:
    """P{|log G / n - t| < epsilon} for each t: the exact probability of the
    strings whose normalized log-guesswork lies strictly inside the corridor.
    epsilon must be positive and the t a one-dimensional run of finite
    values (InvalidInput)."""
    _require_width(epsilon)
    ts = sources._require_reals(ts, "ts")
    if not np.isfinite(ts).all():
        raise InvalidInput("every corridor centre t must be finite")
    norm_log_rank = np.log(table.rank_of.astype(np.float64)) / table.n
    return [_set_prob(table.log_probs, np.abs(norm_log_rank - t) < epsilon) for t in ts.tolist()]


# ---------------------------------------------------------------------------
# Tilted weakly typical sets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TypicalSetSpec:
    """Query for a tilted weakly typical set: order alpha, width epsilon, length n."""

    alpha: float
    epsilon: float
    n: int

    def __post_init__(self):
        alpha = sources._require_real(self.alpha, "alpha")
        if not (math.isfinite(alpha) and alpha != 0):
            raise InvalidInput("alpha must be non-zero and finite")
        _require_width(self.epsilon)
        _require_length(self.n)


def _require_width(epsilon: float) -> None:
    """The one rule for a window half-width epsilon: 0 < epsilon < inf."""
    if not 0 < sources._require_real(epsilon, "epsilon") < math.inf:
        raise InvalidInput("epsilon must be positive and finite")


@dataclass(frozen=True)
class BoundCheck:
    """One evaluated inequality: lhs compared against rhs, with a pass flag.

    `vacuous` marks bounds that hold for structural reasons (empty quantifier
    set, or a lower bound whose concentration prefactor is non-positive).
    """

    bound_id: str
    lhs: float
    rhs: float
    passed: bool
    vacuous: bool = False

    @property
    def flag(self) -> str:
        if self.vacuous and self.passed:
            return "vacuous-pass"
        return "pass" if self.passed else "fail"


@dataclass(frozen=True, eq=False)
class SetReport:
    """Membership and bound ledger for one tilted weakly typical set query.

    The core set A collects strings whose log-prob lies strictly within
    n*epsilon of the cross-entropy level of the tilt; B is the half of A
    least likely under the tilt; D and E relax the window one-sidedly in
    tilted log-prob space.  D and E are kept as masks over the table's
    levels; their members are built on first read.
    """

    spec: TypicalSetSpec
    a_members: np.ndarray  # lexicographic indices, ascending
    b_members: np.ndarray
    d_classes: np.ndarray  # mask over table.levels
    e_classes: np.ndarray
    probability: float  # mu-probability of A
    size: int  # |A|
    bounds: tuple[BoundCheck, ...]
    table: RankTable

    @cached_property
    def d_members(self) -> np.ndarray:
        return self._members_of(self.d_classes)

    @cached_property
    def e_members(self) -> np.ndarray:
        return self._members_of(self.e_classes)

    def _members_of(self, classes: np.ndarray) -> np.ndarray:
        table = self.table
        return np.flatnonzero(_strings_of(table.log_probs, table.levels, classes))

    def members(self, set_name: str) -> np.ndarray:
        attr = {"A": "a_members", "B": "b_members", "D": "d_members", "E": "e_members"}[set_name]
        return getattr(self, attr)

    def member_strings(self, set_name: str) -> list[str]:
        table = self.table
        return _decode_strings(table.source.alphabet.symbols, table.n, self.members(set_name))

    @property
    def all_passed(self) -> bool:
        return all(b.passed for b in self.bounds)


def _bound_over(bound_id: str, values: np.ndarray, holds, rhs: float, vacuous=False) -> BoundCheck:
    """`holds(extreme, rhs)` for the min of `values` (lower bound, `>`) or the
    max (upper bound, `<` or `<=`); over an empty set, a vacuous pass."""
    lower = holds is operator.gt
    if values.size == 0:
        return BoundCheck(bound_id, math.inf if lower else -math.inf, rhs, True, vacuous=True)
    lhs = float(values.min() if lower else values.max())
    return BoundCheck(bound_id, lhs, rhs, holds(lhs, rhs), vacuous)


def _strings_of(logp: np.ndarray, levels: np.ndarray, chosen: np.ndarray):
    """Per-string mask of the classes that `chosen` marks, an interval of
    levels (A is a window on the level, D and E are thresholds on the tilted
    level, which rounds monotonically in it): the strings whose log-prob lies
    between its least and greatest level, none for an empty set.  An end of
    the level range excludes no string, so it is not compared.
    """
    if not chosen.any():
        return np.zeros(logp.size, dtype=bool)
    lo, hi = levels[chosen].min(), levels[chosen].max()
    if hi == levels.max():
        return logp >= lo
    if lo == levels.min():
        return logp <= hi
    return (logp >= lo) & (logp <= hi)


def _least_tilted_half(
    a_idx: np.ndarray, a_class_of: np.ndarray, run_tilted: np.ndarray, run_lengths: np.ndarray,
    tilted: np.ndarray,
) -> np.ndarray:
    """The floor(|A|/2) members of A least likely under the tilt, ties at the
    boundary tilted level broken lexicographically, in ascending order.

    A's runs of equal levels in rank order are sorted by their tilted levels
    `run_tilted` and counted by their lengths: the boundary is the tilted
    level of the half-th string.  Every class strictly below it is taken
    whole, and the strings of the classes at that level (several classes may
    share it) are taken in lexicographic order until the half is full.
    """
    half = a_idx.size // 2
    if half == 0:
        return a_idx[:0]
    by_tilted = np.argsort(run_tilted)
    boundary = run_tilted[by_tilted[np.searchsorted(np.cumsum(run_lengths[by_tilted]), half)]]
    in_b = (tilted < boundary).take(a_class_of)
    at_boundary = np.flatnonzero((tilted == boundary).take(a_class_of))
    in_b[at_boundary[: half - np.count_nonzero(in_b)]] = True
    return a_idx[in_b]


def typical_set(
    source: CategoricalSource,
    spec: TypicalSetSpec,
    budget: int = DEFAULT_BUDGET,
    table: Optional[RankTable] = None,
) -> SetReport:
    """Build the typical set of the requested order and evaluate its bounds;
    an upper threshold beyond the float range is inf, so its bounds pass.
    A given `table` must fit the query (`_require_table_for`).  B and the
    rank bounds read the table's runs of equal levels in rank order: a run
    holds the ranks up to the sum of the lengths so far, and a class's span
    of ranks is the span of its runs."""
    validate(source)
    n, alpha, eps = spec.n, spec.alpha, spec.epsilon
    _require_table_for(source, n, table)
    if table is None:
        table = build_rank_table(source, n, budget)
    # Every set is a union of type classes, decided on the class levels; a
    # class's tilted level has the bits of each member string's tilted log-prob.
    levels, level_of, logp = table.levels, table.level_of, table.log_probs
    with np.errstate(over="ignore", invalid="ignore"):
        tilted = alpha * levels - n * log_sum_exp(alpha * source.log_theta)
    if not np.isfinite(tilted).all():
        raise OutOfRange(f"tilt order {alpha} overflows the tilted log-probs at n={n}")

    p, lp, lq = _on_support(tilt(source, alpha), source)
    level = float(_cross_entropy(p, lq, n))  # cross-entropy level of the window
    h_tilt = float(_cross_entropy(p, lp, n))
    vx = float(_cross_varentropy(p, lq, n))
    dn = float(_relative_entropy(p, lp, lq, n))

    logp_lo, logp_hi = -level - n * eps, -level + n * eps
    a_classes = (levels > logp_lo) & (levels < logp_hi)
    tilted_width = abs(alpha) * n * eps
    d_classes = tilted > -h_tilt - tilted_width
    e_classes = tilted < -h_tilt + tilted_width
    a_idx = np.flatnonzero(_strings_of(logp, levels, a_classes))
    run_levels, run_lengths, _ = table._level_runs
    a_runs = a_classes[run_levels]
    b_idx = _least_tilted_half(
        a_idx, level_of.take(a_idx), tilted[run_levels[a_runs]], run_lengths[a_runs], tilted
    )

    prob_a = _set_prob(logp, a_idx)
    prob_d = _set_prob(logp, _strings_of(logp, levels, d_classes))
    prob_e = _set_prob(logp, _strings_of(logp, levels, e_classes))
    size_a = int(a_idx.size)

    # the size and rank bounds share their thresholds; a lower bound is
    # vacuous where the Chebyshev factor is not positive
    width2 = n * n * eps * eps
    if width2 > 0:
        cheby = 1.0 - vx / width2
    else:  # the limit as the squared window width underflows to 0
        cheby = -math.inf if vx > 0 else 1.0
    weak = cheby <= 0
    size_lo = cheby * math.exp(h_tilt - tilted_width)
    size_hi = _exp_or_inf(h_tilt + tilted_width)
    decay = abs(1.0 - alpha) * n * eps
    prob_lo = cheby * math.exp(-dn - decay)
    prob_hi = _exp_or_inf(-dn + decay)

    checks = [
        # membership window (log domain, strict on both sides)
        _bound_over("member_logprob_lower", levels[a_classes], operator.gt, logp_lo),
        _bound_over("member_logprob_upper", levels[a_classes], operator.lt, logp_hi),
        BoundCheck("set_size_lower", size_a, size_lo, size_a > size_lo, vacuous=weak),
        BoundCheck("set_size_upper", size_a, size_hi, size_a < size_hi),
        BoundCheck("set_prob_lower", prob_a, prob_lo, prob_a >= prob_lo, vacuous=weak),
    ]
    # the relaxed set that inherits the probability bounds depends on alpha
    if alpha < 0 or alpha >= 1:
        checks += [
            BoundCheck("inner_prob_geq_set", prob_d, prob_a, prob_d >= prob_a),
            BoundCheck("inner_prob_upper", prob_d, prob_hi, prob_d <= prob_hi),
            BoundCheck("outer_prob_cover", prob_e, 1.0 - prob_hi, prob_e >= 1.0 - prob_hi),
        ]
    if 0 < alpha <= 1:
        checks += [
            BoundCheck("outer_prob_geq_set", prob_e, prob_a, prob_e >= prob_a),
            BoundCheck("outer_prob_upper", prob_e, prob_hi, prob_e <= prob_hi),
            BoundCheck("inner_prob_cover", prob_d, 1.0 - prob_hi, prob_d >= 1.0 - prob_hi),
        ]

    # rank implications: forward rank for positive orders, reverse for negative;
    # each run holds the ranks `first` to `last`
    last = np.cumsum(run_lengths, dtype=np.int64)
    first = last - run_lengths + 1
    b_rank = table.rank_of[b_idx]
    if alpha > 0:
        tag = "guesswork"
    else:
        tag, b_rank = "reverse_guesswork", table.size + 1 - b_rank
        first, last = table.size + 1 - last, table.size + 1 - first
    d_runs, e_runs = d_classes[run_levels], e_classes[run_levels]
    checks += [
        _bound_over(f"median_{tag}_lower", b_rank, operator.gt, 0.5 * size_lo, weak),
        _bound_over(f"inner_{tag}_upper", last[d_runs], operator.le, size_hi),
        # contrapositive of "rank below threshold puts the string in the inner set"
        _bound_over(f"small_{tag}_in_inner", first[~d_runs], operator.gt, size_lo, weak),
        # contrapositive of "rank above threshold puts the string in the outer set"
        _bound_over(f"large_{tag}_in_outer", last[~e_runs], operator.le, size_hi),
    ]

    return SetReport(
        spec=spec,
        a_members=a_idx,
        b_members=b_idx,
        d_classes=_read_only(d_classes)[0],
        e_classes=_read_only(e_classes)[0],
        probability=prob_a,
        size=size_a,
        bounds=tuple(checks),
        table=table,
    )


def bound_ledger(
    source: CategoricalSource,
    spec: TypicalSetSpec,
    budget: int = DEFAULT_BUDGET,
    table: Optional[RankTable] = None,
) -> tuple[BoundCheck, ...]:
    """The evaluated bound ledger alone, for callers that skip the members."""
    return typical_set(source, spec, budget=budget, table=table).bounds


# ---------------------------------------------------------------------------
# Order equivalence
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OrderEquivalence:
    """Outcome of an order-equivalence test between two sources.

    `alpha` and `residual` come from the analytic log-log fit; `witness`
    (when present) is (n, x, y) with x before y in one source's optimal
    ordering and after it in the other's.
    """

    equivalent: bool
    alpha: float
    residual: float
    witness: Optional[tuple[int, str, str]]


def order_equivalent(
    mu: CategoricalSource,
    rho: CategoricalSource,
    n_max: int = 8,
    budget: int = DEFAULT_BUDGET,
) -> OrderEquivalence:
    """Decide whether two sources share the optimal ordering on all lengths.

    Analytically, rho is order equivalent to mu iff log rho is an affine
    function of log theta with positive slope; the least-squares fit of that
    slope and its max residual decide.  Rank tables for n <= n_max are then
    compared as a cross-check, and the first disagreement (if any) is
    returned as a witness pair.  Both sources must be categorical
    (TypeError) and n_max an integer >= 1 (InvalidInput).
    """
    sources._require_categorical("order_equivalent", mu, rho)
    sources._require_int(n_max, "n_max", 1)
    _require_same_alphabet(mu, rho)
    x = mu.log_theta
    y = rho.log_theta
    xc = x - x.mean()
    denom = float(np.dot(xc, xc))
    alpha = float(np.dot(xc, y - y.mean()) / denom) if denom > 0 else math.nan
    resid = (
        float(np.max(np.abs(y - y.mean() - alpha * xc)))
        if math.isfinite(alpha)
        else math.inf
    )
    analytic = math.isfinite(alpha) and alpha > 0 and resid < 1e-9

    witness = None
    for n in range(1, n_max + 1):
        t_mu = build_rank_table(mu, n, budget)
        t_rho = build_rank_table(rho, n, budget)
        differ = t_mu.order != t_rho.order
        if differ.any():  # strings before the first differing rank share their ranks
            r = int(differ.argmax())
            witness = (n, t_mu.string_at(int(t_mu.order[r])), t_mu.string_at(int(t_rho.order[r])))
            break

    return OrderEquivalence(
        equivalent=analytic and witness is None,
        alpha=alpha,
        residual=resid,
        witness=witness,
    )

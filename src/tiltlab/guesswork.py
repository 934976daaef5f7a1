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
from typing import Iterator, Optional

import numpy as np

from .errors import AlphabetMismatch, UnknownString, UnknownSymbol
from .measures import (
    cross_entropy,
    cross_varentropy,
    entropy,
    relative_entropy,
)
from .numeric import _exp_or_inf, log_sum_exp
from .sources import (
    DEFAULT_BUDGET,
    CategoricalSource,
    SequenceSource,
    _require_length,
    _word_levels,
    tilt,
    validate,
)

#: strings whose log-probs differ by less than this (times n) count as tied
TIE_TOL_PER_SYMBOL = 1e-12


def _tie_group_ids(descending: np.ndarray, tie_tol: float) -> np.ndarray:
    """Tie-group id, counted from 1, of each entry of a non-increasing sequence.

    A new group starts where a value lies more than tie_tol below the one
    before it, so near-equal values chain into one group.
    """
    starts = np.empty(descending.size, dtype=bool)
    starts[0] = True
    with np.errstate(invalid="ignore"):
        np.greater(descending[:-1] - descending[1:], tie_tol, out=starts[1:])
    return np.cumsum(starts)


def _rank_order(
    levels: np.ndarray, level_of: Optional[np.ndarray], tie_tol: float
) -> np.ndarray:
    """Lexicographic string indices sorted by (tie group, lex index).

    `levels` are the log-prob levels and `level_of` maps each string to its
    level (None when there is one level per string).  Tie groups are found
    on the levels sorted once; each string then gets its level's group as a
    small integer key, and one stable sort on that key leaves every group's
    strings in lexicographic order, which is the tie-break.
    """
    by_level = np.argsort(-levels)  # order among equal levels does not matter
    ids = _tie_group_ids(levels[by_level], tie_tol)
    group = np.empty(levels.size, dtype=np.min_scalar_type(ids[-1]))
    group[by_level] = ids
    key = group if level_of is None else group[level_of]
    return np.argsort(key, kind="stable")


#: rows decoded at a time by `RankTable.records`
_RECORDS_CHUNK = 1 << 16


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


@dataclass(frozen=True, eq=False)
class RankTable:
    """All |alphabet|^n strings with their log-prob, guesswork G and reverse rank R.

    G is a bijection onto 1..|alphabet|^n ordered by decreasing probability
    (lexicographic tie-break); R = |alphabet|^n + 1 - G, so the least likely
    string has R = 1 and log R stays finite.
    """

    source: SequenceSource
    n: int
    log_probs: np.ndarray  # indexed by lexicographic string index
    order: np.ndarray  # rank - 1  -> lexicographic string index
    rank_of: np.ndarray  # lexicographic string index -> G

    @property
    def size(self) -> int:
        return self.log_probs.size

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
        return _decode_strings(self.source.alphabet.symbols, self.n, [lex_index])[0]

    def guesswork(self, x) -> int:
        return int(self.rank_of[self.index_of(x)])

    def reverse_guesswork(self, x) -> int:
        return self.size + 1 - self.guesswork(x)

    def log_guesswork(self, x) -> float:
        return math.log(self.guesswork(x))

    def log_reverse_guesswork(self, x) -> float:
        return math.log(self.reverse_guesswork(x))

    def pmf(self) -> np.ndarray:
        """Probability at each rank; pmf()[r - 1] is the rank-r probability."""
        return np.exp(self.log_probs[self.order])

    def records(self) -> Iterator[tuple[str, float, int, int]]:
        """(string, log-prob, G, R) rows in rank order."""
        size = self.size
        for start in range(0, size, _RECORDS_CHUNK):
            idx = self.order[start : start + _RECORDS_CHUNK]
            strings = _decode_strings(self.source.alphabet.symbols, self.n, idx)
            ranks = range(start + 1, start + idx.size + 1)
            for x, logp, r in zip(strings, self.log_probs[idx].tolist(), ranks):
                yield x, logp, r, size + 1 - r

    def tie_groups(self) -> np.ndarray:
        """Group id per rank position; equal ids mean tied probabilities."""
        return _tie_group_ids(self.log_probs[self.order], TIE_TOL_PER_SYMBOL * self.n)


def build_rank_table(
    source: SequenceSource, n: int, budget: int = DEFAULT_BUDGET
) -> RankTable:
    """Enumerate all length-n strings and assign optimal/reverse ranks.

    For an i.i.d. source only the C(n+k-1, k-1) type-class levels are sorted
    and grouped; every string's log-prob and tie-group key are gathers from
    its class.  Markov and hidden Markov strings are grouped on their own
    log-probs.  One stable sort on the integer group key then gives the
    rank order.
    """
    logp, levels, level_of = _word_levels(source, n, budget)
    order = _rank_order(levels, level_of, TIE_TOL_PER_SYMBOL * n)
    rank_of = np.empty(logp.size, dtype=np.int64)
    rank_of[order] = np.arange(1, logp.size + 1)
    for arr in (logp, order, rank_of):
        arr.setflags(write=False)
    return RankTable(source=source, n=n, log_probs=logp, order=order, rank_of=rank_of)


def guesswork_pmf(table: RankTable) -> np.ndarray:
    """Exact PMF of guesswork: entry r-1 is the probability of the rank-r string."""
    return table.pmf()


def corridor_mass(table: RankTable, ts, epsilon: float) -> list[float]:
    """P{|log G / n - t| < epsilon} for each t: the exact probability of the
    strings whose normalized log-guesswork lies strictly inside the corridor."""
    probs = np.exp(table.log_probs)
    norm_log_rank = np.log(table.rank_of.astype(np.float64)) / table.n
    return [float(probs[np.abs(norm_log_rank - t) < epsilon].sum()) for t in ts]


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
        if self.alpha == 0:
            raise ValueError("alpha must be non-zero")
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive")
        _require_length(self.n)


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
    tilted log-prob space.
    """

    spec: TypicalSetSpec
    a_members: np.ndarray  # lexicographic indices, ascending
    b_members: np.ndarray
    d_members: np.ndarray
    e_members: np.ndarray
    probability: float  # mu-probability of A
    size: int  # |A|
    bounds: tuple[BoundCheck, ...]
    table: RankTable

    def members(self, set_name: str) -> np.ndarray:
        return {
            "A": self.a_members,
            "B": self.b_members,
            "D": self.d_members,
            "E": self.e_members,
        }[set_name]

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


def typical_set(
    source: CategoricalSource,
    spec: TypicalSetSpec,
    budget: int = DEFAULT_BUDGET,
    table: Optional[RankTable] = None,
) -> SetReport:
    """Build the typical set of the requested order and evaluate its bounds;
    an upper threshold beyond the float range is inf, so its bounds pass."""
    validate(source)
    n, alpha, eps = spec.n, spec.alpha, spec.epsilon
    if table is None:
        table = build_rank_table(source, n, budget)

    tilted = tilt(source, alpha)
    level = n * cross_entropy(tilted, source)  # cross-entropy level of the window
    h_tilt = n * entropy(tilted)
    vx = n * cross_varentropy(tilted, source)
    dn = n * relative_entropy(tilted, source)

    logp = table.log_probs
    # tilted word log-probs share the type-class bit pattern of logp
    tilted_logp = alpha * logp - n * log_sum_exp(alpha * source.log_theta)

    logp_lo, logp_hi = -level - n * eps, -level + n * eps
    a_mask = (logp > logp_lo) & (logp < logp_hi)
    tilted_width = abs(alpha) * n * eps
    d_mask = tilted_logp > -h_tilt - tilted_width
    e_mask = tilted_logp < -h_tilt + tilted_width

    a_idx = np.flatnonzero(a_mask)
    # B: the floor(|A|/2) members of A least likely under the tilt,
    # boundary ties resolved lexicographically.
    a_by_tilted = a_idx[np.lexsort((a_idx, tilted_logp[a_idx]))]
    b_idx = np.sort(a_by_tilted[: a_idx.size // 2])

    probs = np.exp(logp)
    prob_a = float(probs[a_mask].sum())
    prob_d = float(probs[d_mask].sum())
    prob_e = float(probs[e_mask].sum())
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
        _bound_over("member_logprob_lower", logp[a_idx], operator.gt, logp_lo),
        _bound_over("member_logprob_upper", logp[a_idx], operator.lt, logp_hi),
        BoundCheck("set_size_lower", size_a, size_lo, size_a > size_lo, vacuous=weak),
        BoundCheck("set_size_upper", size_a, size_hi, size_a < size_hi),
        BoundCheck("set_prob_lower", prob_a, prob_lo, prob_a > prob_lo, vacuous=weak),
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

    # rank implications: forward rank for positive orders, reverse for negative
    if alpha > 0:
        rank, tag = table.rank_of, "guesswork"
    else:
        rank, tag = table.size + 1 - table.rank_of, "reverse_guesswork"
    checks += [
        _bound_over(f"median_{tag}_lower", rank[b_idx], operator.gt, 0.5 * size_lo, weak),
        _bound_over(f"inner_{tag}_upper", rank[d_mask], operator.le, size_hi),
        # contrapositive of "rank below threshold puts the string in the inner set"
        _bound_over(f"small_{tag}_in_inner", rank[~d_mask], operator.gt, size_lo, weak),
        # contrapositive of "rank above threshold puts the string in the outer set"
        _bound_over(f"large_{tag}_in_outer", rank[~e_mask], operator.le, size_hi),
    ]

    return SetReport(
        spec=spec,
        a_members=a_idx,
        b_members=b_idx,
        d_members=np.flatnonzero(d_mask),
        e_members=np.flatnonzero(e_mask),
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
    returned as a witness pair.
    """
    if mu.alphabet != rho.alphabet:
        raise AlphabetMismatch("sources are defined on different alphabets")
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
        if np.array_equal(t_mu.rank_of, t_rho.rank_of):
            continue
        diff = np.flatnonzero(t_mu.rank_of != t_rho.rank_of)
        first = diff[np.argmin(t_mu.rank_of[diff])]
        r = int(t_mu.rank_of[first])
        partner = int(t_rho.order[r - 1])
        witness = (n, t_mu.string_at(int(first)), t_mu.string_at(partner))
        break

    return OrderEquivalence(
        equivalent=analytic and witness is None,
        alpha=alpha,
        residual=resid,
        witness=witness,
    )

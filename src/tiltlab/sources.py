"""String-source models and the tilt algebra.

A string-source assigns a probability to every string over a finite ordered
alphabet.  Three kinds are supported: memoryless (categorical), first-order
Markov, and hidden Markov.  The tilt operation raises a categorical
distribution to a real power and renormalizes; it is the workhorse the rest
of the library is built on.  All probability arithmetic runs in the natural
log domain so that large tilt orders on skewed distributions stay finite.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Sequence, Union

import numpy as np

from .errors import (
    BoundaryViolation,
    BudgetExceeded,
    InvalidInput,
    NotNormalized,
    SourceSpecError,
    TieViolation,
    UnknownSymbol,
)
from .numeric import _log_sum_exp_rows

#: absolute tolerance for every simplex / stochasticity check
ASSUMPTION_TOL = 1e-12

#: largest |alphabet|^n an enumeration will attempt by default
DEFAULT_BUDGET = 2**24


@dataclass(frozen=True, eq=False)
class Alphabet:
    """Ordered set of distinct symbol tokens whose written strings read back:
    no string splits into them in more than one way, and no symbol holds a
    character that splits or quotes a CSV field (`,`, `"`, CR or LF);
    SourceSpecError otherwise.

    The order is significant: it defines lexicographic comparison, which is
    how probability ties are broken everywhere in the library.
    """

    symbols: tuple[str, ...]

    def __post_init__(self):
        symbols = tuple(self.symbols)
        object.__setattr__(self, "symbols", symbols)
        if len(symbols) < 2:
            raise SourceSpecError("alphabet needs at least two symbols")
        if any(not isinstance(s, str) or not s for s in symbols):
            raise SourceSpecError("alphabet symbols must be non-empty strings")
        if any(c in s for s in symbols for c in ',"\r\n'):
            raise SourceSpecError(
                f"alphabet {symbols!r} has a symbol holding ',', '\"', CR or LF, "
                "which a CSV field cannot hold unquoted"
            )
        if len(set(symbols)) != len(symbols):
            raise SourceSpecError("alphabet symbols must be distinct")
        if not _uniquely_decodable(symbols):
            raise SourceSpecError(
                f"alphabet {symbols!r} is not uniquely decodable: "
                "some string splits into its symbols in more than one way"
            )
        object.__setattr__(self, "_index", {s: i for i, s in enumerate(symbols)})
        object.__setattr__(self, "_one_char", all(len(s) == 1 for s in symbols))

    def __len__(self) -> int:
        return len(self.symbols)

    def __eq__(self, other) -> bool:
        return isinstance(other, Alphabet) and self.symbols == other.symbols

    def index(self, symbol: str) -> int:
        try:
            return self._index[symbol]
        except KeyError:
            raise UnknownSymbol(f"symbol {symbol!r} not in alphabet") from None

    def encode(self, x: Union[str, Sequence[str]]) -> np.ndarray:
        """Map a string (or sequence of symbols) to an array of symbol indices.

        A `str` is split into the alphabet's symbols: per character when
        every symbol is one character, else by its one split into symbols
        (UnknownSymbol when it has none).  An empty string is InvalidInput.
        """
        tokens = list(x) if self._one_char or not isinstance(x, str) else self._split(x)
        if not tokens:
            raise InvalidInput("empty string")
        return np.array([self.index(t) for t in tokens], dtype=np.int64)

    def _split(self, x: str) -> list[str]:
        """The symbols of `x` by its split into alphabet symbols, found right
        to left: splits[i] tells whether x[i:] splits, and head[i] is the
        first symbol of its split (one at most: the alphabet is uniquely
        decodable)."""
        splits, head = [False] * len(x) + [True], [""] * len(x)
        for i in reversed(range(len(x))):
            for s in self.symbols:
                if x.startswith(s, i) and splits[i + len(s)]:
                    splits[i], head[i] = True, s
        if not splits[0]:
            raise UnknownSymbol(f"{x!r} does not split into alphabet symbols")
        tokens, i = [], 0
        while i < len(x):
            tokens.append(head[i])
            i += len(head[i])
        return tokens


def _uniquely_decodable(symbols: tuple[str, ...]) -> bool:
    """The Sardinas-Patterson test.  The dangling suffixes start as the rest
    of each symbol after another symbol that is a prefix of it; each round
    takes the rests of symbols after dangling suffixes and of dangling
    suffixes after symbols.  Some string splits into the symbols in more
    than one way exactly when a dangling suffix is a symbol."""

    def rests(prefixes, words):
        return {w[len(p):] for p in prefixes for w in words if w != p and w.startswith(p)}

    codes, seen = set(symbols), set()
    dangling = rests(codes, codes)
    while not dangling <= seen:
        if dangling & codes:
            return False
        seen |= dangling
        dangling = rests(dangling, codes) | rests(codes, dangling)
    return True


def letters(k: int) -> Alphabet:
    """Convenience alphabet 'a', 'b', ... of size k."""
    if k > 26:
        raise SourceSpecError("letters() supports at most 26 symbols")
    return Alphabet(tuple(chr(ord("a") + i) for i in range(k)))


@dataclass(frozen=True, eq=False)
class CategoricalSource:
    """Memoryless string-source: strings are i.i.d. draws from `theta`."""

    alphabet: Alphabet
    theta: np.ndarray
    log_theta: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        theta = _probabilities(
            self.theta, "probs", (len(self.alphabet),), "have one entry per symbol"
        )
        with np.errstate(divide="ignore"):
            log_theta = np.log(theta)
        log_theta.setflags(write=False)
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "log_theta", log_theta)

    @property
    def min_prob(self) -> float:
        """Probability of the least likely symbol (single-draw likelihood floor)."""
        return float(np.min(self.theta))

    @property
    def max_prob(self) -> float:
        """Probability of the most likely symbol."""
        return float(np.max(self.theta))


def uniform(alphabet: Union[Alphabet, int]) -> CategoricalSource:
    """The uniform source on the given alphabet (fails validate: tied extremes)."""
    if isinstance(alphabet, int):
        alphabet = letters(alphabet)
    k = len(alphabet)
    return CategoricalSource(alphabet, np.full(k, 1.0 / k))


def validate(source: CategoricalSource) -> None:
    """Check the standing assumptions on a categorical source.

    Raises an exception naming the violated assumption:

    * NotNormalized      -- probabilities do not sum to 1 within 1e-12,
    * BoundaryViolation  -- some probability is <= 1e-12 (open simplex),
    * TieViolation       -- the argmin or argmax of `theta` is not unique
                            (duplicates detected with the same 1e-12 floor).
    """
    _require_categorical("validate", source)
    theta = source.theta
    _row_sums(theta, "probs")
    if float(np.min(theta)) <= ASSUMPTION_TOL:
        raise BoundaryViolation(
            "some symbol probability is at or below the open-simplex floor"
        )
    ordered = np.sort(theta)
    if ordered[1] - ordered[0] <= ASSUMPTION_TOL:
        raise TieViolation("the least likely symbol is not unique")
    if ordered[-1] - ordered[-2] <= ASSUMPTION_TOL:
        raise TieViolation("the most likely symbol is not unique")


def tilt(source: CategoricalSource, alpha: float) -> CategoricalSource:
    """Raise the distribution to the power `alpha` and renormalize.

    Computed in the log domain.  alpha=1 returns the source unchanged,
    alpha=0 returns the uniform source, alpha=-1 reverses the likelihood
    order of the symbols.
    """
    _require_categorical("tilt", source)
    alpha = _require_real(alpha, "alpha")
    if alpha == 1.0:
        return source
    return CategoricalSource(source.alphabet, _tilted_thetas(source, np.array([alpha]))[0])


def _tilted_thetas(source: CategoricalSource, alphas: np.ndarray) -> np.ndarray:
    """The probability arrays of the order-alpha tilts, one row per order: the
    source's own array at alpha=1, the uniform array at alpha=0, else
    exp(alpha * log theta - log_sum_exp(alpha * log theta)).  Each row has the
    bits a lone order's array has: the steps are elementwise or row by row.
    """
    # count_nonzero is the cheapest all() on the one-row arrays of `tilt`
    finite = np.isfinite(alphas)
    if np.count_nonzero(finite) < alphas.size:
        raise InvalidInput(f"tilt order {float(alphas[~finite][0])} must be finite")
    if np.count_nonzero(source.theta) < source.theta.size and np.count_nonzero(alphas < 0.0):
        raise BoundaryViolation(
            f"tilt order {float(alphas[alphas < 0.0][0])} < 0 needs full support: "
            "some symbol probability is 0"
        )
    general = (alphas != 1.0) & (alphas != 0.0)
    # a huge order overflows to non-finite rows, which the callers' rules reject
    with np.errstate(over="ignore", invalid="ignore"):
        lt = np.multiply.outer(alphas[general], source.log_theta)
        rows = np.exp(lt - _log_sum_exp_rows(lt)[:, None])
    if np.count_nonzero(general) == alphas.size:
        return rows
    k = len(source.alphabet)
    out = np.empty((alphas.size, k))
    out[general] = rows
    out[alphas == 1.0] = source.theta
    out[alphas == 0.0] = 1.0 / k
    return out


def reverse(source: CategoricalSource) -> CategoricalSource:
    """The source whose likelihood order of strings is exactly inverted."""
    return tilt(source, -1.0)


def tilted_family_sample(
    source: CategoricalSource, alphas: Sequence[float]
) -> list[CategoricalSource]:
    """One tilt per requested order, preserving the order of `alphas`, a
    one-dimensional grid of reals (InvalidInput otherwise); at most the rate
    grid budget of orders times symbols (BudgetExceeded)."""
    alphas = _require_reals(alphas, "alphas")
    _require_grid_budget(source, len(alphas), "tilt orders")
    return [tilt(source, a) for a in alphas]


def stationary_distribution(transition: np.ndarray) -> np.ndarray:
    """Probability vector fixed by a row-stochastic matrix."""
    t = np.asarray(transition, dtype=np.float64)
    if t.ndim != 2 or t.shape[0] != t.shape[1] or t.size == 0:
        raise SourceSpecError(f"transition must be non-empty and square, not {t.shape}")
    k = t.shape[0]
    a = t.T - np.eye(k)
    a[-1, :] = 1.0
    b = np.zeros(k)
    b[-1] = 1.0
    try:
        pi = np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise SourceSpecError(f"no unique stationary distribution: {exc}") from exc
    pi = np.clip(pi, 0.0, None)
    return pi / pi.sum()


def _probabilities(values, what: str, shape: tuple[int, ...], rule: str) -> np.ndarray:
    """`values` as a read-only float64 copy of the given shape, every entry
    a real (`_require_reals`), finite and non-negative; SourceSpecError
    naming `what` otherwise."""
    array = np.array(_require_reals(values, what, len(shape), SourceSpecError))
    if array.shape != shape:
        raise SourceSpecError(f"{what} must {rule}: shape {shape}, not {array.shape}")
    if not np.all(np.isfinite(array)) or np.any(array < 0):
        raise SourceSpecError(f"{what} entries must be finite and non-negative")
    array.setflags(write=False)
    return array


def _row_sums(rows: np.ndarray, what: str, error: type = NotNormalized) -> np.ndarray:
    """Each row's sum, as a column; `error` if one misses 1 by > ASSUMPTION_TOL."""
    sums = rows.sum(axis=-1, keepdims=True)
    if np.any(np.abs(sums - 1.0) > ASSUMPTION_TOL):
        raise error(f"{what} rows must sum to 1 within {ASSUMPTION_TOL}")
    return sums


def _check_chain(source, rules) -> None:
    """Replace each (field, shape, rule) of a frozen chain source by its
    checked, row-stochastic array."""
    for name, shape, rule in rules:
        rows = _probabilities(getattr(source, name), name, shape, rule)
        _row_sums(rows, name)
        object.__setattr__(source, name, rows)


@dataclass(frozen=True, eq=False)
class MarkovSource:
    """First-order Markov chain over the alphabet.

    transition[i, j] is the probability of symbol j following symbol i.
    """

    alphabet: Alphabet
    transition: np.ndarray
    initial: np.ndarray
    log_transition: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        k = len(self.alphabet)
        _check_chain(self, (
            ("transition", (k, k), "be |alphabet| square"),
            ("initial", (k,), "have one entry per symbol"),
        ))
        with np.errstate(divide="ignore"):
            object.__setattr__(self, "log_transition", np.log(self.transition))
        self.log_transition.setflags(write=False)


@dataclass(frozen=True, eq=False)
class HiddenMarkovSource:
    """Hidden Markov source: a chain over hidden states emitting alphabet symbols."""

    alphabet: Alphabet
    transition: np.ndarray  # hidden-state transitions, S x S
    emission: np.ndarray  # states x symbols
    initial: np.ndarray  # hidden-state start distribution

    def __post_init__(self):
        s = len(self.transition)
        _check_chain(self, (
            ("transition", (s, s), "be square (states x states)"),
            ("emission", (s, len(self.alphabet)), "be states x symbols"),
            ("initial", (s,), "have one entry per state"),
        ))

    @property
    def n_states(self) -> int:
        return self.transition.shape[0]


SequenceSource = Union[CategoricalSource, MarkovSource, HiddenMarkovSource]


def string_log_prob(source: SequenceSource, x: Union[str, Sequence[str]]) -> float:
    """Exact natural-log probability of the string under the source.

    The value is the entry `enumerate_word_log_probs` gives the string, by
    the same rules: an i.i.d. string gets its type class's log-prob, summed
    by the class rule (so a zero-probability symbol gives -inf only to
    strings that use it), and Markov and hidden Markov strings run the
    enumeration's level loop, one symbol slice per level, as one block.  It is the
    entry bit for bit, except that a hidden chain with many states may move
    the last bits: one row's state sums and products reduce in another order.
    """
    idx = source.alphabet.encode(x)
    if isinstance(source, CategoricalSource):
        counts = np.bincount(idx, minlength=len(source.alphabet))
        lp = 0.0  # the class rule of `_type_classes`
        for count, log_theta in zip(counts.tolist(), source.log_theta.tolist()):
            if count:
                lp += count * log_theta
        return lp
    return float(_forward(source)(source, [slice(i, i + 1) for i in idx.tolist()])[0][0])


def _forward(source: Union[MarkovSource, HiddenMarkovSource]):
    """The level loop of a Markov or hidden Markov source."""
    return _markov_forward if isinstance(source, MarkovSource) else _hmm_forward


def _markov_forward(source: MarkovSource, levels, start=None, carry=False):
    """(log-probs, states) of the words that extend a prefix by one symbol per
    level, the j-th over the symbols `levels[j]` selects, in lexicographic
    order.  A word's state is its next symbol's log-probs: the start's for
    the empty prefix (`start` None), else its last symbol's transition row,
    row p % len(rows) for word p.  A state is a view, so `carry` changes
    nothing here."""
    if start is None:
        with np.errstate(divide="ignore"):
            start = (np.zeros(1), np.log(source.initial)[None, :])
    logp, rows = start
    for symbols in levels:
        step = rows[:, symbols]  # (last symbols, next symbols)
        logp = (logp.reshape(-1, len(step), 1) + step).reshape(-1)
        rows = source.log_transition[symbols]
    return logp, rows


def _hmm_forward(source: HiddenMarkovSource, levels, start=None, carry=False):
    """Scaled forward recursion: `_markov_forward` for a hidden chain, whose
    word's state is its propagated state vector (the start distribution for
    the empty prefix).  Each level adds the log of each product's sum, and
    only a state that a next level (or `carry`) propagates is normalized by
    it.  A slice (all symbols) keeps `emission.T` a column-major view, which
    sets the first level's summation order from the start distribution; every
    other product is built in C order, so its `reshape` is a view.

    Below 8 states a product's sum is column adds in state order, which is
    the sequence numpy's row sum adds in there, at a fraction of its cost.
    From 8 states on, numpy sums a C-ordered row pairwise, so those sources
    keep the axis sum."""
    emission_t = source.emission.T  # (symbols, states)
    states = source.n_states
    logp, prior = (np.zeros(1), source.initial[None, :]) if start is None else start
    with np.errstate(divide="ignore"):  # a zero sum's log is -inf
        for j, symbols in enumerate(levels):
            emit = emission_t[symbols]
            order = "K" if start is None and j == 0 else "C"
            product = np.multiply(prior[:, None, :], emit[None], order=order)
            forward = product.reshape(-1, states)
            if states < 8:
                scale = forward[:, 0].copy()
                for s in range(1, states):
                    scale += forward[:, s]
            else:
                scale = forward.sum(axis=1)
            if carry or j + 1 < len(levels):
                prior = (forward / np.where(scale > 0, scale, 1.0)[:, None]) @ source.transition
            del product, forward
            logp = np.repeat(logp, len(emit))
            logp += np.log(scale)
    return logp, prior


#: strings per block: chain words below a prefix, rank table ranks or rows
_BLOCK = 1 << 16


def _chain_words(source: Union[MarkovSource, HiddenMarkovSource], n: int) -> np.ndarray:
    """The log-prob of every length-n word of a chain, in lexicographic order.
    The first `head` levels run for all k^head prefixes at once: the fewest,
    at most n - 1, that leave each prefix at most `_BLOCK` words (if 0, one
    run does all).  Then each prefix runs the rest from its log-prob and
    state, and its block is copied into its slice of the output, so the
    blocks keep every bit and only one block's temporaries are alive at a
    time."""
    forward, k = _forward(source), len(source.alphabet)
    head = next((h for h in range(n - 1) if k ** (n - h) <= _BLOCK), n - 1)
    if head == 0:
        return forward(source, [slice(None)] * n)[0]
    logp, state = forward(source, [slice(None)] * head, carry=True)
    out = np.empty(k**n)
    for p, block in enumerate(out.reshape(logp.size, -1)):
        start = (logp[p : p + 1], state[p % len(state)][None])
        block[:] = forward(source, [slice(None)] * (n - head), start)[0]
    return out


def _require_length(n: int) -> None:
    """The one rule for a string length: an int or numpy integer, not a
    bool, with n >= 1."""
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
        raise InvalidInput(f"n must be an integer, not {n!r}")
    if n < 1:
        raise InvalidInput("n must be >= 1")


def _require_categorical(what: str, *given: SequenceSource) -> None:
    """The one rule for the sources of an i.i.d.-only function `what`:
    TypeError unless each is a CategoricalSource."""
    if not all(isinstance(source, CategoricalSource) for source in given):
        raise TypeError(f"{what} applies to categorical sources only")


def _require_int(value, what: str, low: int, high: float = math.inf) -> None:
    """The one rule for an integer argument: an int or numpy integer, not a
    bool, in [low, high); InvalidInput naming `what` otherwise."""
    integer = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    if not (integer and low <= value < high):
        raise InvalidInput(f"{what} must be an integer in [{low}, {high}), not {value!r}")


def _require_real(value, what: str, error: type = InvalidInput) -> float:
    """The one rule for a real argument: an int, float, numpy integer or
    numpy float, not a bool, returned as a float; `error` naming `what`
    otherwise."""
    if not isinstance(value, (int, float, np.integer, np.floating)) or isinstance(value, bool):
        raise error(f"{what} must be a real number, not {value!r}")
    try:
        return float(value)
    except OverflowError:  # an int beyond the float range
        raise error(f"{what} must lie within the float range") from None


def _require_reals(values, what: str, ndim: int = 1, error: type = InvalidInput) -> np.ndarray:
    """The one rule for an array of reals: a numpy int or float array, or
    nested sequences of one shape of `_require_real` entries, with `ndim`
    dimensions, as float64 (itself if it is a float64 array); `error` naming
    `what` otherwise.  numpy alone would read strings, and bools among
    numbers, as numbers."""
    if not isinstance(values, np.ndarray):  # ragged nesting leaves sequences as entries
        entries = np.array(values, dtype=object)
        checked = [_require_real(v, f"each entry of {what}", error) for v in entries.flat]
        values = np.array(checked, dtype=np.float64).reshape(entries.shape)
    elif values.dtype.kind not in "iuf":
        raise error(f"{what} must be an array of ints or floats, not {values.dtype}")
    if values.ndim != ndim:
        raise error(f"{what} must be {('one', 'two')[ndim - 1]}-dimensional")
    return values.astype(np.float64, copy=False)


def require_budget(alphabet_size: int, n: int, budget: int) -> None:
    """n >= 1, an integer budget >= 1, and at most `budget` strings of length n."""
    _require_length(n)
    _require_int(budget, "budget", 1)
    if n >= int(budget).bit_length() or alphabet_size ** int(n) > budget:  # k >= 2: 2^n <= k^n
        raise BudgetExceeded(
            f"{alphabet_size}^{n} strings exceed the enumeration budget {budget}"
        )


def _require_grid_budget(source: SequenceSource, size: int, what: str = "levels of t") -> None:
    """At most DEFAULT_BUDGET (grid point, symbol) entries in a grid of `size`
    `what`: every bisection step or tilt sweep holds a few arrays of that many
    floats."""
    k = len(source.alphabet)
    if size * k > DEFAULT_BUDGET:
        raise BudgetExceeded(
            f"{size} {what} over {k} symbols exceed the rate grid budget {DEFAULT_BUDGET}"
        )


def enumerate_word_log_probs(
    source: SequenceSource, n: int, budget: int = DEFAULT_BUDGET
) -> np.ndarray:
    """Log-probability of every length-n string, in lexicographic order.

    For i.i.d. sources the value is gathered from the string's type class
    log-prob (`_type_classes`), so strings with equal symbol counts get
    bit-identical values (that is what makes probability ties exact).  Markov
    strings extend prefix log-probs one transition at a time (`_markov_forward`);
    hidden Markov strings carry a scaled forward vector per prefix
    (`_hmm_forward`); both run in prefix blocks (`_chain_words`).
    `string_log_prob` runs the same rules on one string.
    """
    require_budget(len(source.alphabet), n, budget)
    if isinstance(source, CategoricalSource):
        levels, level_of = _type_classes(source, n)
        return levels[level_of]
    return _chain_words(source, n)


def _word_levels(source: SequenceSource, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(levels, level_of) of all length-n strings: `levels[level_of]` is
    `enumerate_word_log_probs` bit for bit.

    For i.i.d. sources the levels are the type classes' log-probs (0.0, then
    += count * log theta in alphabet order, skipping zero counts); for
    (hidden) Markov sources, the distinct bit patterns of the enumerated
    log-probs, ascending as int64, and each word's level is the number of
    runs of equal bits before its own in the sorted bits.  `level_of` takes
    the smallest integer type.  The caller checks the budget.
    """
    if isinstance(source, CategoricalSource):
        return _type_classes(source, n)
    bits = _chain_words(source, n).view(np.int64)
    perm = np.argsort(bits)  # any sort: equal bits share a level whatever their order
    bits = bits[perm]
    starts = np.empty(bits.size, dtype=bool)
    starts[0] = True
    np.not_equal(bits[1:], bits[:-1], out=starts[1:])
    levels = bits[starts].view(np.float64)
    del bits
    starts[0] = False  # a run's index counts the runs that start before it
    level_of = np.empty(starts.size, dtype=np.min_scalar_type(levels.size - 1))
    level_of[perm] = np.cumsum(starts, dtype=level_of.dtype)
    return levels, level_of


def _type_classes(source: CategoricalSource, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Log-prob of every type class, and the class of every length-n string.

    A type class is a multiset of n symbols.  It is numbered by the position of
    its sorted symbol tuple in lexicographic order, the order of
    `itertools.combinations_with_replacement`.  The tuples of length j that
    start with symbol b are b followed by the length-(j-1) tuples that start
    at b or above, which are the last C(j-1 + k-1-b, k-1-b) of them; so the
    C(n+k-1, k-1) tuples are built in O(n C) steps.  A class's log-prob is
    summed over the runs of its tuple in ascending symbol order: 0.0, then
    += count * log theta for each symbol that occurs.

    A length-j prefix is held as the class of its symbols plus n - j padding
    zeros.  Appending symbol s turns one padding zero into s; `succ[r, s]` is
    that successor for the C(n+k-2, k-1) classes that hold a zero, which are
    the lowest ranks.  It is found from each class's stars-and-bars form, the
    suffix sums q_i = c_{k-1-i} + ... + c_{k-1} of its counts c: the rank is
    sum_i C(q_i + i, i + 1), and appending s adds one to q_i for
    i >= k-1-s, so the rank grows by sum_{i >= k-1-s} C(q_i + i, i).  The
    strings' classes are then built one symbol at a time, one gather per
    level, in lexicographic order.
    """
    k = len(source.alphabet)
    n_classes = math.comb(n + k - 1, k - 1)
    n_padded = math.comb(n + k - 2, k - 1)
    dtype = np.min_scalar_type(n_classes - 1)

    tuples = np.arange(k, dtype=np.min_scalar_type(k - 1))[:, None]
    for j in range(2, n + 1):
        longer = np.empty((math.comb(j + k - 1, k - 1), j), dtype=tuples.dtype)
        row = 0
        for b in range(k):
            tail = tuples[-math.comb(j + k - 2 - b, k - 1 - b):]
            longer[row : row + tail.shape[0], 0] = b
            longer[row : row + tail.shape[0], 1:] = tail
            row += tail.shape[0]
        tuples = longer
    levels = np.zeros(n_classes)
    run_start = np.zeros(n_classes, dtype=np.int64)
    for j in range(n):
        symbol = tuples[:, j]
        ends = np.flatnonzero(symbol != tuples[:, j + 1]) if j + 1 < n else slice(None)
        levels[ends] += (j + 1 - run_start[ends]) * source.log_theta[symbol[ends]]
        run_start[ends] = j + 1
    del tuples, run_start

    rem = np.arange(n_padded, dtype=np.int64)
    succ = np.empty((n_padded, k), dtype=dtype)
    succ[:, 0] = rem  # symbol 0 takes the padding count
    for i in range(k - 2, -1, -1):
        bar_rank = np.array([math.comb(v + i, i + 1) for v in range(n + 1)])
        q = np.searchsorted(bar_rank, rem, side="right") - 1
        rem -= bar_rank[q]
        step = np.array([math.comb(v + i, i) for v in range(n)])
        succ[:, k - 1 - i] = succ[:, k - 2 - i] + step[q]

    level_of = np.zeros(1, dtype=dtype)
    for _ in range(n):
        level_of = succ.take(level_of, axis=0).reshape(-1)
    return levels, level_of


# ---------------------------------------------------------------------------
# Source spec files
# ---------------------------------------------------------------------------

def _normalized(values, what: str, ndim: int) -> np.ndarray:
    """A spec vector (ndim 1) or matrix of rows (ndim 2) of reals, renormalized
    when each row is within ASSUMPTION_TOL of summing to 1; SourceSpecError
    otherwise.  Shapes and entries are left to the source constructors."""
    rows = _require_reals(values, what, ndim, SourceSpecError)
    if rows.size == 0:
        raise SourceSpecError(f"{what} must not be empty")
    return rows / _row_sums(rows, what, SourceSpecError)


def _chain(cls, spec: dict, alphabet: Alphabet, transition: np.ndarray, *emission):
    """`cls(alphabet, transition, *emission, initial)` with the spec's start.
    The stationary start (the default) is solved after a build with a
    uniform stand-in start has checked every shape."""
    initial = spec.get("initial", "stationary")
    if not (isinstance(initial, str) and initial == "stationary"):
        return cls(alphabet, transition, *emission, _normalized(initial, "initial", 1))
    source = cls(alphabet, transition, *emission, np.ones(len(transition)) / len(transition))
    return replace(source, initial=stationary_distribution(source.transition))


def source_from_dict(spec: dict) -> SequenceSource:
    """Build a source from a parsed spec dictionary.

    `alphabet` must be an array of symbol strings, and `states` (hidden
    Markov only, optional) an integer equal to the number of transition rows.
    Probability vectors and stochastic rows are renormalized only when within
    1e-12 of summing to 1; anything farther off is rejected.  `initial` may be
    the string "stationary" to request the stationary distribution of the
    (hidden) chain.  The source constructors check every shape and entry.
    """
    if not isinstance(spec, dict) or "kind" not in spec:
        raise SourceSpecError("source spec must be an object with a 'kind' field")
    kind = spec["kind"]
    symbols = spec.get("alphabet")
    if not isinstance(symbols, (list, tuple)):
        raise SourceSpecError(f"alphabet must be an array of symbol strings, not {symbols!r}")
    alphabet = Alphabet(tuple(symbols))

    if kind == "categorical":
        return CategoricalSource(alphabet, _normalized(spec.get("probs"), "probs", 1))

    if kind == "markov":
        transition = _normalized(spec.get("transition"), "transition", 2)
        return _chain(MarkovSource, spec, alphabet, transition)

    if kind == "hmm":
        transition = _normalized(spec.get("transition"), "transition", 2)
        rows = len(transition)
        states = spec.get("states", rows)
        if isinstance(states, bool) or not isinstance(states, (int, np.integer)) or states != rows:
            raise SourceSpecError(
                f"states must be the integer {rows} (transition rows), not {states!r}"
            )
        emission = _normalized(spec.get("emission"), "emission", 2)
        return _chain(HiddenMarkovSource, spec, alphabet, transition, emission)

    raise SourceSpecError(f"unknown source kind {kind!r}")


def load_source(path: Union[str, Path]) -> SequenceSource:
    """Read a JSON source spec file."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise SourceSpecError(f"cannot read {path}: {exc}") from exc
    try:
        spec = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SourceSpecError(f"{path} is not valid JSON: {exc}") from exc
    return source_from_dict(spec)


def builtin_spec_path(name: str) -> Path:
    """Path of a source spec shipped with the package (e.g. 's2', 's3_markov')."""
    here = Path(__file__).parent / "specs" / f"{name}.json"
    if not here.exists():
        raise SourceSpecError(f"no shipped source spec named {name!r}")
    return here

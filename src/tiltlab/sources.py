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
from typing import Optional, Sequence, Union

import numpy as np

from .errors import (
    BoundaryViolation,
    BudgetExceeded,
    NotNormalized,
    SourceSpecError,
    TieViolation,
    UnknownSymbol,
)
from .numeric import log_sum_exp

#: absolute tolerance for every simplex / stochasticity check
ASSUMPTION_TOL = 1e-12

#: largest |alphabet|^n an enumeration will attempt by default
DEFAULT_BUDGET = 2**24


@dataclass(frozen=True, eq=False)
class Alphabet:
    """Ordered set of distinct symbol tokens.

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
        if len(set(symbols)) != len(symbols):
            raise SourceSpecError("alphabet symbols must be distinct")
        object.__setattr__(self, "_index", {s: i for i, s in enumerate(symbols)})

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
        """Map a string (or sequence of tokens) to an array of symbol indices."""
        tokens = list(x)
        if not tokens:
            raise ValueError("empty string")
        return np.array([self.index(t) for t in tokens], dtype=np.int64)


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
    if not isinstance(source, CategoricalSource):
        raise TypeError("validate applies to categorical sources only")
    theta = source.theta
    total = float(np.sum(theta))
    if abs(total - 1.0) > ASSUMPTION_TOL:
        raise NotNormalized(f"probabilities sum to {total!r}, not 1")
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
    if not isinstance(source, CategoricalSource):
        raise TypeError("tilt is defined on categorical sources only")
    alpha = float(alpha)
    if alpha == 1.0:
        return source
    return CategoricalSource(source.alphabet, _tilted_theta(source, alpha))


def _tilted_theta(source: CategoricalSource, alpha: float) -> np.ndarray:
    """The probability array of the order-alpha tilt, which `tilt` wraps in a
    source: the source's own array at alpha=1, the uniform array at alpha=0."""
    if alpha == 1.0:
        return source.theta
    if alpha == 0.0:
        k = len(source.alphabet)
        return np.full(k, 1.0 / k)
    if alpha < 0.0 and not (source.theta > 0.0).all():
        raise BoundaryViolation(
            f"tilt order {alpha} < 0 needs full support: some symbol probability is 0"
        )
    lt = alpha * source.log_theta
    lt = lt - log_sum_exp(lt)
    return np.exp(lt)


def reverse(source: CategoricalSource) -> CategoricalSource:
    """The source whose likelihood order of strings is exactly inverted."""
    return tilt(source, -1.0)


def tilted_family_sample(
    source: CategoricalSource, alphas: Sequence[float]
) -> list[CategoricalSource]:
    """One tilt per requested order, preserving the order of `alphas`."""
    return [tilt(source, float(a)) for a in alphas]


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
    finite and non-negative; SourceSpecError naming `what` otherwise."""
    array = np.array(values, dtype=np.float64)
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
    initial_mode: str = "explicit"

    def __post_init__(self):
        k = len(self.alphabet)
        _check_chain(self, (
            ("transition", (k, k), "be |alphabet| square"),
            ("initial", (k,), "have one entry per symbol"),
        ))


@dataclass(frozen=True, eq=False)
class HiddenMarkovSource:
    """Hidden Markov source: a chain over hidden states emitting alphabet symbols."""

    alphabet: Alphabet
    transition: np.ndarray  # hidden-state transitions, S x S
    emission: np.ndarray  # states x symbols
    initial: np.ndarray  # hidden-state start distribution
    initial_mode: str = "explicit"

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

    For i.i.d. sources the value is the dot product of the symbol-count
    vector with the symbol log-probs, so two strings in the same type class
    get bit-identical results.  A symbol the string does not use adds no
    term, so a zero-probability symbol gives -inf only to strings that use
    it.  Hidden Markov likelihoods use the scaled forward recursion.
    """
    idx = source.alphabet.encode(x)
    if isinstance(source, CategoricalSource):
        counts = np.bincount(idx, minlength=len(source.alphabet)).astype(np.float64)
        return float(np.dot(counts, np.where(counts > 0, source.log_theta, 0.0)))
    if isinstance(source, MarkovSource):
        with np.errstate(divide="ignore"):
            lp = float(np.log(source.initial[idx[0]]))
            log_t = np.log(source.transition)
        for a, b in zip(idx[:-1], idx[1:]):
            lp += float(log_t[a, b])
        return lp
    return float(_hmm_forward(source, idx[:, None])[0])


def _hmm_forward(source: HiddenMarkovSource, levels) -> np.ndarray:
    """Scaled forward recursion: the log-prob of every word whose j-th symbol
    runs over the emission rows `levels[j]` selects, in lexicographic order.

    Each level propagates every prefix's normalized state vector (the start
    distribution at the first level), multiplies in each selected emission
    and adds the log of the sum.  A slice (all symbols) keeps `emission.T` a
    column-major view, which sets the first level's summation order bit for bit.
    """
    emission_t = source.emission.T  # (symbols, states)
    logp = np.zeros(1)
    forward = None
    for symbols in levels:
        emit = emission_t[symbols]
        prior = source.initial[None, :] if forward is None else forward @ source.transition
        forward = (prior[:, None, :] * emit[None, :, :]).reshape(-1, source.n_states)
        scale = forward.sum(axis=1)
        safe = np.where(scale > 0, scale, 1.0)
        with np.errstate(divide="ignore"):
            logp = np.repeat(logp, len(emit)) + np.where(scale > 0, np.log(safe), -np.inf)
        forward = forward / safe[:, None]
    return logp


def _require_length(n: int) -> None:
    """The one rule for a string length: n >= 1."""
    if n < 1:
        raise ValueError("n must be >= 1")


def require_budget(alphabet_size: int, n: int, budget: int) -> None:
    if alphabet_size**n > budget:
        raise BudgetExceeded(
            f"{alphabet_size}^{n} strings exceed the enumeration budget {budget}"
        )


def enumerate_word_log_probs(
    source: SequenceSource, n: int, budget: int = DEFAULT_BUDGET
) -> np.ndarray:
    """Log-probability of every length-n string, in lexicographic order.

    For i.i.d. sources the value is gathered from the log-prob of the
    string's type class, so strings with equal symbol counts get bit-identical
    values (that is what makes probability ties exact).  There are only
    C(n+k-1, k-1) classes for k symbols; each class log-prob is accumulated
    in alphabet order as 0.0, then += count * log theta, and a zero count
    adds no term.  Markov strings extend prefix log-probs one transition at a
    time; hidden Markov strings carry a scaled forward vector per prefix.
    """
    return _word_levels(source, n, budget)[0]


def _word_levels(
    source: SequenceSource, n: int, budget: int
) -> tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """(per-string log-probs, levels, level_of) for all length-n strings.

    For i.i.d. sources `levels` holds one log-prob per type class and
    `level_of` maps each lexicographic string index to its class.  For Markov
    and hidden Markov sources the levels are the per-string log-probs and
    `level_of` is None.  The budget is checked before anything is allocated.
    """
    k = len(source.alphabet)
    _require_length(n)
    require_budget(k, n, budget)

    if isinstance(source, CategoricalSource):
        levels, level_of = _type_classes(source, n)
        return levels[level_of], levels, level_of

    if isinstance(source, MarkovSource):
        with np.errstate(divide="ignore"):
            log_t = np.log(source.transition)
            cur = np.log(source.initial.copy())
        for _ in range(n - 1):
            last = np.arange(cur.size, dtype=np.int64) % k
            cur = (cur[:, None] + log_t[last, :]).reshape(-1)
        return cur, cur, None

    logp = _hmm_forward(source, [slice(None)] * n)
    return logp, logp, None


def _type_classes(source: CategoricalSource, n: int) -> tuple[np.ndarray, np.ndarray]:
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


# ---------------------------------------------------------------------------
# Source spec files
# ---------------------------------------------------------------------------

def _normalized(values, what: str, ndim: int) -> np.ndarray:
    """A spec vector (ndim 1) or matrix of rows (ndim 2), renormalized when each
    row is within ASSUMPTION_TOL of summing to 1; SourceSpecError otherwise.
    Shapes and entries are left to the source constructors."""
    pending = [values]
    while pending:  # every innermost entry, in order
        entry = pending.pop()
        if isinstance(entry, (list, tuple)):
            pending.extend(reversed(entry))
        elif isinstance(entry, (bool, str)):  # numpy would read them as 0/1 and decimals
            raise SourceSpecError(f"{what} must be an array of decimals, not {entry!r}")
    try:
        rows = np.asarray(values, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:  # ragged, non-numeric, huge
        raise SourceSpecError(f"{what} must be an array of decimals: {exc}") from None
    if rows.ndim != ndim or rows.size == 0:
        raise SourceSpecError(f"{what} must be a non-empty {ndim}-dimensional array of decimals")
    return rows / _row_sums(rows, what, SourceSpecError)


def _chain(cls, spec: dict, alphabet: Alphabet, transition: np.ndarray, *emission):
    """`cls(alphabet, transition, *emission, initial)` with the spec's start
    and its mode.  The stationary start (the default) is solved after a build
    with a uniform stand-in start has checked every shape."""
    initial = spec.get("initial", "stationary")
    if not (isinstance(initial, str) and initial == "stationary"):
        initial = _normalized(initial, "initial", 1)
        return cls(alphabet, transition, *emission, initial, initial_mode="explicit")
    uniform = np.ones(len(transition)) / len(transition)
    source = cls(alphabet, transition, *emission, uniform, initial_mode="stationary")
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

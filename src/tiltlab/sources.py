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
from dataclasses import dataclass
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

    def __post_init__(self):
        theta = np.array(self.theta, dtype=np.float64)
        if theta.ndim != 1 or theta.size != len(self.alphabet):
            raise SourceSpecError("need exactly one probability per symbol")
        if not np.all(np.isfinite(theta)) or np.any(theta < 0):
            raise SourceSpecError("probabilities must be finite and non-negative")
        theta.setflags(write=False)
        object.__setattr__(self, "theta", theta)

    @property
    def log_theta(self) -> np.ndarray:
        cached = self.__dict__.get("_log_theta")
        if cached is None:
            with np.errstate(divide="ignore"):
                cached = np.log(self.theta)
            cached.setflags(write=False)
            object.__setattr__(self, "_log_theta", cached)
        return cached

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
    if alpha == 0.0:
        return uniform(source.alphabet)
    if alpha < 0.0 and not np.all(source.theta > 0.0):
        raise BoundaryViolation(
            f"tilt order {alpha} < 0 needs full support: some symbol probability is 0"
        )
    lt = alpha * source.log_theta
    lt = lt - log_sum_exp(lt)
    return CategoricalSource(source.alphabet, np.exp(lt))


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


def _check_stochastic(rows: np.ndarray, what: str) -> np.ndarray:
    rows = np.array(rows, dtype=np.float64)
    if not np.all(np.isfinite(rows)) or np.any(rows < 0):
        raise SourceSpecError(f"{what} entries must be finite and non-negative")
    sums = rows.sum(axis=-1)
    if np.any(np.abs(sums - 1.0) > ASSUMPTION_TOL):
        raise NotNormalized(f"{what} rows must sum to 1 within {ASSUMPTION_TOL}")
    rows.setflags(write=False)
    return rows


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
        transition = _check_stochastic(self.transition, "transition")
        if transition.shape != (k, k):
            raise SourceSpecError("transition matrix must be |alphabet| square")
        initial = _check_stochastic(self.initial, "initial")
        if initial.shape != (k,):
            raise SourceSpecError("initial distribution must have one entry per symbol")
        object.__setattr__(self, "transition", transition)
        object.__setattr__(self, "initial", initial)


@dataclass(frozen=True, eq=False)
class HiddenMarkovSource:
    """Hidden Markov source: a chain over hidden states emitting alphabet symbols."""

    alphabet: Alphabet
    transition: np.ndarray  # hidden-state transitions, S x S
    emission: np.ndarray  # states x symbols
    initial: np.ndarray  # hidden-state start distribution
    initial_mode: str = "explicit"

    def __post_init__(self):
        transition = _check_stochastic(self.transition, "transition")
        n_states = transition.shape[0]
        if transition.shape != (n_states, n_states):
            raise SourceSpecError("hidden transition matrix must be square")
        emission = _check_stochastic(self.emission, "emission")
        if emission.shape != (n_states, len(self.alphabet)):
            raise SourceSpecError("emission matrix must be states x symbols")
        initial = _check_stochastic(self.initial, "initial")
        if initial.shape != (n_states,):
            raise SourceSpecError("initial distribution must have one entry per state")
        object.__setattr__(self, "transition", transition)
        object.__setattr__(self, "emission", emission)
        object.__setattr__(self, "initial", initial)

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
    return _hmm_log_prob(source, idx)


def _hmm_log_prob(source: HiddenMarkovSource, idx: np.ndarray) -> float:
    forward = source.initial * source.emission[:, idx[0]]
    lp = 0.0
    for j in idx[1:]:
        total = float(forward.sum())
        if total <= 0.0:
            return -np.inf
        lp += np.log(total)
        forward = (forward / total) @ source.transition * source.emission[:, j]
    total = float(forward.sum())
    if total <= 0.0:
        return -np.inf
    return lp + float(np.log(total))


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
    if n < 1:
        raise ValueError("n must be >= 1")
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

    # hidden Markov: prefix-indexed scaled forward vectors
    emission_t = source.emission.T  # (symbols, states)
    forward = source.initial[None, :] * emission_t
    scale = forward.sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        logp = np.where(scale > 0, np.log(np.where(scale > 0, scale, 1.0)), -np.inf)
    forward = forward / np.where(scale > 0, scale, 1.0)[:, None]
    for _ in range(n - 1):
        propagated = forward @ source.transition  # (prefixes, states)
        forward = (propagated[:, None, :] * emission_t[None, :, :]).reshape(
            -1, source.n_states
        )
        logp = np.repeat(logp, k)
        scale = forward.sum(axis=1)
        safe = np.where(scale > 0, scale, 1.0)
        with np.errstate(divide="ignore"):
            logp = logp + np.where(scale > 0, np.log(safe), -np.inf)
        forward = forward / safe[:, None]
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
    """A spec vector (ndim 1) or matrix of rows (ndim 2), each row within
    ASSUMPTION_TOL of summing to 1, renormalized; SourceSpecError otherwise."""
    try:
        rows = np.asarray(values, dtype=np.float64)
    except (TypeError, ValueError) as exc:  # ragged rows, non-numeric entries
        raise SourceSpecError(f"{what} must be an array of decimals: {exc}") from None
    if rows.ndim != ndim:
        raise SourceSpecError(f"{what} must be a {ndim}-dimensional array of decimals")
    try:
        rows = _check_stochastic(rows, what)
    except NotNormalized as exc:
        raise SourceSpecError(str(exc)) from None
    return rows / rows.sum(axis=-1, keepdims=True)


def _initial(spec: dict, transition: np.ndarray) -> tuple[np.ndarray, str]:
    """The spec's start distribution and its mode; stationary by default."""
    initial = spec.get("initial", "stationary")
    if initial == "stationary":
        return stationary_distribution(transition), "stationary"
    return _normalized(initial, "initial", 1), "explicit"


def source_from_dict(spec: dict) -> SequenceSource:
    """Build a source from a parsed spec dictionary.

    Probability vectors and stochastic rows are renormalized only when within
    1e-12 of summing to 1; anything farther off is rejected.  `initial` may be
    the string "stationary" to request the stationary distribution of the
    (hidden) chain.
    """
    if not isinstance(spec, dict) or "kind" not in spec:
        raise SourceSpecError("source spec must be an object with a 'kind' field")
    kind = spec["kind"]
    try:
        alphabet = Alphabet(tuple(spec["alphabet"]))
    except KeyError:
        raise SourceSpecError("source spec is missing 'alphabet'") from None

    if kind == "categorical":
        probs = _normalized(spec.get("probs"), "probs", 1)
        if probs.size != len(alphabet):
            raise SourceSpecError("probs length must match the alphabet")
        return CategoricalSource(alphabet, probs)

    if kind == "markov":
        transition = _normalized(spec.get("transition"), "transition", 2)
        k = len(alphabet)
        if transition.shape != (k, k):
            raise SourceSpecError("transition must be |alphabet| square")
        initial, mode = _initial(spec, transition)
        return MarkovSource(alphabet, transition, initial, initial_mode=mode)

    if kind == "hmm":
        transition = _normalized(spec.get("transition"), "transition", 2)
        n_states = transition.shape[0]
        if transition.shape != (n_states, n_states):
            raise SourceSpecError("hidden transition must be square")
        if "states" in spec and int(spec["states"]) != n_states:
            raise SourceSpecError("'states' disagrees with the transition matrix")
        emission = _normalized(spec.get("emission"), "emission", 2)
        if emission.shape != (n_states, len(alphabet)):
            raise SourceSpecError("emission must be states x symbols")
        initial, mode = _initial(spec, transition)
        return HiddenMarkovSource(alphabet, transition, emission, initial, initial_mode=mode)

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

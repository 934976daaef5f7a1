"""Reference typical-set bound ledger: the hand-written ledger, kept as a test oracle.

This is `guesswork.typical_set` as it was before the ledger became one list
of bound rows: each threshold and extreme is written out (some twice), the
empty-set rule is repeated per bound, and ranks are copied to float64.  An
upper threshold beyond the float range raises OverflowError here.  The
library must give the same rows, members, probability and size, bit for bit,
wherever this version does not raise.
"""
import math
from typing import Optional

import numpy as np

from tiltlab.guesswork import BoundCheck, RankTable, SetReport, TypicalSetSpec, build_rank_table
from tiltlab.measures import cross_entropy, cross_varentropy, entropy, relative_entropy
from tiltlab.numeric import log_sum_exp
from tiltlab.sources import DEFAULT_BUDGET, CategoricalSource, tilt, validate


def _min_over(values: np.ndarray, mask: np.ndarray) -> float:
    sel = values[mask]
    return float(sel.min()) if sel.size else math.inf


def _max_over(values: np.ndarray, mask: np.ndarray) -> float:
    sel = values[mask]
    return float(sel.max()) if sel.size else -math.inf


def typical_set(
    source: CategoricalSource,
    spec: TypicalSetSpec,
    budget: int = DEFAULT_BUDGET,
    table: Optional[RankTable] = None,
) -> SetReport:
    """Build the typical set of the requested order and evaluate its bounds."""
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

    half_width = n * eps
    a_mask = (logp > -level - half_width) & (logp < -level + half_width)
    tilted_width = n * abs(alpha) * eps
    d_mask = tilted_logp > -h_tilt - tilted_width
    e_mask = tilted_logp < -h_tilt + tilted_width

    a_idx = np.flatnonzero(a_mask)
    # B: the floor(|A|/2) members of A least likely under the tilt,
    # boundary ties resolved lexicographically.
    a_by_tilted = a_idx[np.lexsort((a_idx, tilted_logp[a_idx]))]
    b_idx = np.sort(a_by_tilted[: a_idx.size // 2])
    b_mask = np.zeros(logp.size, dtype=bool)
    b_mask[b_idx] = True

    probs = np.exp(logp)
    prob_a = float(probs[a_mask].sum())
    size_a = int(a_idx.size)

    # the bound ledger
    checks: list[BoundCheck] = []
    cheby = 1.0 - vx / (n * n * eps * eps)
    abs_alpha = abs(alpha)
    a_empty = size_a == 0

    # membership window (log domain, strict on both sides)
    checks.append(
        BoundCheck(
            "member_logprob_lower",
            lhs=_min_over(logp, a_mask),
            rhs=-level - n * eps,
            passed=a_empty or _min_over(logp, a_mask) > -level - n * eps,
            vacuous=a_empty,
        )
    )
    checks.append(
        BoundCheck(
            "member_logprob_upper",
            lhs=_max_over(logp, a_mask),
            rhs=-level + n * eps,
            passed=a_empty or _max_over(logp, a_mask) < -level + n * eps,
            vacuous=a_empty,
        )
    )

    # set size window
    size_lo = cheby * math.exp(h_tilt - abs_alpha * n * eps)
    size_hi = math.exp(h_tilt + abs_alpha * n * eps)
    checks.append(
        BoundCheck("set_size_lower", size_a, size_lo, size_a > size_lo, vacuous=cheby <= 0)
    )
    checks.append(BoundCheck("set_size_upper", size_a, size_hi, size_a < size_hi))

    # probability bounds; the relaxed set that inherits them depends on alpha
    prob_d = float(probs[d_mask].sum())
    prob_e = float(probs[e_mask].sum())
    decay = abs(1.0 - alpha) * n * eps
    prob_lo = cheby * math.exp(-dn - decay)
    prob_hi = math.exp(-dn + decay)
    checks.append(
        BoundCheck("set_prob_lower", prob_a, prob_lo, prob_a > prob_lo, vacuous=cheby <= 0)
    )
    if alpha < 0 or alpha >= 1:
        checks.append(BoundCheck("inner_prob_geq_set", prob_d, prob_a, prob_d >= prob_a))
        checks.append(BoundCheck("inner_prob_upper", prob_d, prob_hi, prob_d <= prob_hi))
        checks.append(
            BoundCheck("outer_prob_cover", prob_e, 1.0 - prob_hi, prob_e >= 1.0 - prob_hi)
        )
    if 0 < alpha <= 1:
        checks.append(BoundCheck("outer_prob_geq_set", prob_e, prob_a, prob_e >= prob_a))
        checks.append(BoundCheck("outer_prob_upper", prob_e, prob_hi, prob_e <= prob_hi))
        checks.append(
            BoundCheck("inner_prob_cover", prob_d, 1.0 - prob_hi, prob_d >= 1.0 - prob_hi)
        )

    # rank implications: forward rank for positive orders, reverse for negative
    if alpha > 0:
        rank = table.rank_of.astype(np.float64)
        tag = "guesswork"
    else:
        rank = (table.size + 1 - table.rank_of).astype(np.float64)
        tag = "reverse_guesswork"
    rank_lo = cheby * math.exp(h_tilt - abs_alpha * n * eps)
    rank_hi = math.exp(h_tilt + abs_alpha * n * eps)

    b_empty = not b_mask.any()
    min_rank_b = _min_over(rank, b_mask)
    checks.append(
        BoundCheck(
            f"median_{tag}_lower",
            min_rank_b,
            0.5 * rank_lo,
            b_empty or min_rank_b > 0.5 * rank_lo,
            vacuous=b_empty or cheby <= 0,
        )
    )
    max_rank_d = _max_over(rank, d_mask)
    checks.append(
        BoundCheck(
            f"inner_{tag}_upper",
            max_rank_d,
            rank_hi,
            (not d_mask.any()) or max_rank_d <= rank_hi,
            vacuous=not d_mask.any(),
        )
    )
    # contrapositive of "rank below threshold puts the string in the inner set"
    outside_d = ~d_mask
    min_rank_outside = _min_over(rank, outside_d)
    checks.append(
        BoundCheck(
            f"small_{tag}_in_inner",
            min_rank_outside,
            rank_lo,
            (not outside_d.any()) or min_rank_outside > rank_lo,
            vacuous=(not outside_d.any()) or cheby <= 0,
        )
    )
    # contrapositive of "rank above threshold puts the string in the outer set"
    outside_e = ~e_mask
    max_rank_outside = _max_over(rank, outside_e)
    checks.append(
        BoundCheck(
            f"large_{tag}_in_outer",
            max_rank_outside,
            rank_hi,
            (not outside_e.any()) or max_rank_outside <= rank_hi,
            vacuous=not outside_e.any(),
        )
    )

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

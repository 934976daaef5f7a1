"""Built-in verification suite.

Each check exercises one cluster of mathematical guarantees end to end at
pinned tolerances and reports a machine-readable result.  The CLI `verify`
subcommand runs all of them; the acceptance test module runs them one by one.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import approx as ax
from . import guesswork as gw
from . import measures as ms
from . import rates as rt
from . import sources as src
from .errors import InvalidInput

IDENTITY_TOL = 1e-10
DERIVATIVE_H = 1e-5
DERIVATIVE_RTOL = 1e-5
SLOPE_RTOL = 1e-4
CURVATURE_RTOL = 5e-3
CONVEXITY_TOL = 1e-9
LOG_RANK_TOL = 0.35
CORRIDOR_TOL = 0.25

ALPHA_GRID = (-3.0, -2.0, -1.0, -0.5, 0.5, 2.0, 3.0)
N_GRID = (1, 4, 8)


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    failures: list[str] = field(default_factory=list)


def _shipped(name: str) -> src.SequenceSource:
    return src.load_source(src.builtin_spec_path(name))


def random_sources(seed: int, count: int) -> list[src.CategoricalSource]:
    """Seeded random sources, kept clearly inside the open simplex with
    unambiguous extremes so identity tolerances are meaningful."""
    if seed < 0:
        raise InvalidInput(f"seed must be a non-negative integer, not {seed}")
    rng = np.random.default_rng(seed)
    out: list[src.CategoricalSource] = []
    while len(out) < count:
        k = int(rng.integers(2, 7))
        theta = rng.dirichlet(np.ones(k)) + 1e-3
        theta = theta / theta.sum()
        ordered = np.sort(theta)
        if ordered[1] - ordered[0] < 1e-4 or ordered[-1] - ordered[-2] < 1e-4:
            continue
        out.append(src.CategoricalSource(src.letters(k), theta))
    return out


def _rel_err(value: float, reference: float) -> float:
    return abs(value - reference) / max(abs(reference), 1e-8)


def check_identity_suite(seed: int = 20240, count: int = 50) -> CheckResult:
    """Tilt composition, the two Renyi identities, the tilt-mean relation and
    the varentropy scaling, within 1e-10 over random sources."""
    failures: list[str] = []
    worst = 0.0
    sources = random_sources(seed, count)
    betas = np.array(ALPHA_GRID)
    for si, s in enumerate(sources):
        for alpha in ALPHA_GRID:
            tilted = src.tilt(s, alpha)
            # composition with every second order in the grid; each row of a
            # batch has the bits of a lone tilt at its order
            composed = src._tilted_thetas(tilted, betas)
            direct = src._tilted_thetas(s, alpha * betas)
            for beta, left, right in zip(ALPHA_GRID, composed, direct):
                err = float(np.max(np.abs(left - right)))
                worst = max(worst, err)
                if err > IDENTITY_TOL:
                    failures.append(f"composition src{si} a={alpha} b={beta} err={err:.3e}")
            for n in N_GRID:
                hx = ms.cross_entropy(tilted, s, n)
                ht = ms.entropy(tilted, n)
                dn = ms.relative_entropy(tilted, s, n)
                ra = ms.renyi_entropy(s, alpha, n)
                vx = ms.cross_varentropy(tilted, s, n)
                vt = ms.varentropy(tilted, n)
                err1 = abs((hx - ra) - dn / (1.0 - alpha))
                err2 = abs((ht - ra) - alpha / (1.0 - alpha) * dn)
                err3 = abs(alpha * alpha * vx - vt)
                for label, err in (("renyi1", err1), ("renyi2", err2), ("varscale", err3)):
                    worst = max(worst, err)
                    if err > IDENTITY_TOL:
                        failures.append(f"{label} src{si} a={alpha} n={n} err={err:.3e}")
            # tilt-mean relation, per symbol at the per-symbol level
            hx1 = ms.cross_entropy(tilted, s)
            ht1 = ms.entropy(tilted)
            lhs = -tilted.log_theta - ht1
            rhs = alpha * (-s.log_theta - hx1)
            err = float(np.max(np.abs(lhs - rhs)))
            worst = max(worst, err)
            if err > IDENTITY_TOL:
                failures.append(f"tiltmean src{si} a={alpha} err={err:.3e}")
    return CheckResult(
        "identity_suite",
        not failures,
        f"{count} sources, worst abs err {worst:.3e} (tol {IDENTITY_TOL})",
        failures[:20],
    )


def check_derivative_suite(seed: int = 20240, count: int = 50) -> CheckResult:
    """Derivatives of tilted entropy, cross entropy, relative entropy and
    Renyi entropy against central finite differences (h=1e-5, rel 1e-5),
    plus the order-1 limit of the Renyi derivative."""
    failures: list[str] = []
    worst = 0.0
    h = DERIVATIVE_H
    sources = random_sources(seed, count)
    for si, s in enumerate(sources):
        for alpha in ALPHA_GRID:
            tilted = src.tilt(s, alpha)
            # (order, tilt) at alpha + h and alpha - h, for every n and measure
            up, down = ((a, src.tilt(s, a)) for a in (alpha + h, alpha - h))
            for n in N_GRID:
                vx = ms.cross_varentropy(tilted, s, n)
                dn = ms.relative_entropy(tilted, s, n)
                fd_sets = (
                    ("tilted_entropy", lambda a, t: ms.entropy(t, n), -alpha * vx),
                    ("cross_entropy", lambda a, t: ms.cross_entropy(t, s, n), -vx),
                    ("relative_entropy", lambda a, t: ms.relative_entropy(t, s, n),
                     (alpha - 1.0) * vx),
                    ("renyi_entropy", lambda a, t: ms.renyi_entropy(s, a, n),
                     -dn / (1.0 - alpha) ** 2),
                )
                for label, f, analytic in fd_sets:
                    fd = (f(*up) - f(*down)) / (2.0 * h)
                    err = _rel_err(fd, analytic)
                    worst = max(worst, err)
                    if err > DERIVATIVE_RTOL:
                        failures.append(
                            f"{label} src{si} a={alpha} n={n} fd={fd:.10g} vs {analytic:.10g}"
                        )
        # order-1 limit of the Renyi derivative equals -varentropy/2
        for n in N_GRID:
            fd = (ms.renyi_entropy(s, 1.0 + h, n) - ms.renyi_entropy(s, 1.0 - h, n)) / (2.0 * h)
            analytic = -0.5 * ms.varentropy(s, n)
            err = _rel_err(fd, analytic)
            worst = max(worst, err)
            if err > DERIVATIVE_RTOL:
                failures.append(f"renyi_at_1 src{si} n={n} fd={fd:.10g} vs {analytic:.10g}")
    return CheckResult(
        "derivative_suite",
        not failures,
        f"{count} sources, worst rel err {worst:.3e} (tol {DERIVATIVE_RTOL})",
        failures[:20],
    )


def _reverse_dual(base: gw.RankTable, reversed_rank_of: np.ndarray) -> bool:
    """Within every tie class of `base`, the reversed source's ranks G and the
    base's reverse ranks R = size + 1 - G are the same set: both lists, in base
    rank order, are sorted within tie classes by one `lexsort` each."""
    groups = base.tie_groups()
    got = reversed_rank_of[base.order]
    want = base.size - np.arange(base.size)
    return np.array_equal(got[np.lexsort((got, groups))], want[np.lexsort((want, groups))])


def check_order_equivalence(n_max: int = 8) -> CheckResult:
    """Tilting never changes the optimal ordering; reversing inverts it up to
    tie classes; a non-tilt pair is detected with a concrete witness."""
    failures: list[str] = []
    for name in ("s2", "s3"):
        s = _shipped(name)
        for alpha in (0.3, 0.5, 2.0, 5.0):
            res = gw.order_equivalent(s, src.tilt(s, alpha), n_max=n_max)
            if res.witness is not None:
                failures.append(f"{name}: tilt {alpha} changes ranks at n={res.witness[0]}")
            if not res.equivalent:
                failures.append(f"{name}: tilt order {alpha} not recognized as equivalent")
        reversed_source = src.reverse(s)
        for n in range(1, n_max + 1):
            rev = gw.build_rank_table(reversed_source, n)
            if not _reverse_dual(gw.build_rank_table(s, n), rev.rank_of):
                failures.append(f"{name}: reverse duality broken at n={n}")
    s3 = _shipped("s3")
    other = src.CategoricalSource(s3.alphabet, np.array([0.25, 0.3, 0.45]))
    res = gw.order_equivalent(s3, other, n_max=n_max)
    if res.equivalent:
        failures.append("non-tilt pair declared equivalent")
    if res.witness is None:
        failures.append("non-tilt pair produced no witness")
    else:
        n, x, y = res.witness
        ta = gw.build_rank_table(s3, n)
        tb = gw.build_rank_table(other, n)
        flips = (ta.guesswork(x) < ta.guesswork(y)) != (tb.guesswork(x) < tb.guesswork(y))
        if not flips:
            failures.append(f"witness {res.witness} does not flip the order")
    detail = "tilt invariance, reverse duality and a witnessed non-equivalence"
    if res.witness is not None:
        detail += f"; witness n={res.witness[0]} pair=({res.witness[1]},{res.witness[2]})"
    return CheckResult("order_equivalence", not failures, detail, failures[:20])


def check_typical_set_bounds(quick: bool = False) -> CheckResult:
    """Every probability/size/rank bound in the ledger passes (or is vacuous)
    over the full query grid, verified by exhaustive enumeration."""
    s3 = _shipped("s3")
    ns = (6, 8) if quick else (6, 8, 10)
    failures: list[str] = []
    n_bounds = 0
    n_vacuous = 0
    for n in ns:
        table = gw.build_rank_table(s3, n)
        for alpha in (-2.0, -0.5, 0.5, 1.0, 2.0):
            for eps in (0.05, 0.1, 0.2):
                report = gw.typical_set(
                    s3, gw.TypicalSetSpec(alpha=alpha, epsilon=eps, n=n), table=table
                )
                for bound in report.bounds:
                    n_bounds += 1
                    n_vacuous += bound.vacuous
                    if not bound.passed:
                        failures.append(
                            f"n={n} a={alpha} eps={eps} {bound.bound_id}: "
                            f"lhs={bound.lhs:.6g} rhs={bound.rhs:.6g}"
                        )
    return CheckResult(
        "typical_set_bounds",
        not failures,
        f"{n_bounds} bounds evaluated, {n_vacuous} vacuous, 0 expected hard failures",
        failures[:20],
    )


def _check_curve(s, kind: str, failures: list[str], label: str) -> None:
    curve = rt.rate_curve(s, kind, n_samples=33)
    second = curve.rate[:-2] - 2.0 * curve.rate[1:-1] + curve.rate[2:]
    shape, sign = ("concavity", 1.0) if kind == "reverse_r" else ("convexity", -1.0)
    violation = float(np.max(sign * second))
    if violation > CONVEXITY_TOL:
        failures.append(f"{label}/{kind}: {shape} violated by {violation:.3e}")
    delta = 1e-4
    inner = curve.t[1:-1]
    shifted = rt.rate_points(s, kind, np.concatenate([inner - delta, inner + delta]))
    below = shifted.rate[: inner.size].tolist()
    above = shifted.rate[inner.size :].tolist()
    rates = curve.rate.tolist()
    for i in range(1, curve.t.size - 1):
        t = float(curve.t[i])
        fd1 = (above[i - 1] - below[i - 1]) / (2.0 * delta)
        if _rel_err(fd1, float(curve.d_rate[i])) > SLOPE_RTOL:
            failures.append(f"{label}/{kind}: slope mismatch at t={t:.4f}")
        fd2 = (above[i - 1] - 2.0 * rates[i] + below[i - 1]) / (delta * delta)
        if _rel_err(fd2, float(curve.d2_rate[i])) > CURVATURE_RTOL:
            failures.append(f"{label}/{kind}: curvature mismatch at t={t:.4f}")


def check_rate_functions() -> CheckResult:
    """Convexity/concavity, slope and curvature formulas, and the binary
    source's endpoint values and cross-entropy range."""
    failures: list[str] = []
    for name in ("s2", "s3"):
        s = _shipped(name)
        for kind in rt.KINDS:
            _check_curve(s, kind, failures, name)
    s2 = _shipped("s2")
    log2 = math.log(2.0)
    d_uniform = ms.relative_entropy(src.uniform(s2.alphabet), s2)
    endpoint_checks = (
        ("rate_g(log 2)", rt.rate_g(s2, log2), d_uniform, 1e-6),
        ("rate_g(0)", rt.rate_g(s2, 0.0), math.log(1.0 / 0.8), 1e-6),
        ("rate_r(0)", rt.rate_r(s2, 0.0), math.log(5.0), 1e-6),
    )
    for label, got, want, tol in endpoint_checks:
        if abs(got - want) > tol:
            failures.append(f"{label}: {got!r} vs {want!r}")
    rng = rt.cross_entropy_range(s2)
    if abs(rng.t_minus - math.log(1.0 / 0.8)) > 1e-9:
        failures.append(f"t_minus {rng.t_minus!r}")
    if abs(rng.t_plus - math.log(5.0)) > 1e-9:
        failures.append(f"t_plus {rng.t_plus!r}")
    return CheckResult(
        "rate_functions",
        not failures,
        "curve shape, derivative formulas and endpoint values",
        failures[:20],
    )


def _stitched_log_rank_error(source, n: int) -> float:
    """Worst log-rank distance from the stitched curve to the exact staircase
    step of each rank in 8..k^n-8.

    The rank of a string at a given probability level is only determined up
    to its probability tie class (the step of the staircase), so the error
    for rank k is the distance from the interpolated curve rank to the
    [first, last] rank interval of k's tie class; with no tie this is exactly
    |log k_approx - log k|.  The error is the same at every rank of a run of
    equal levels, so it is taken once per run that meets 8..k^n-8, from the
    run's level and its tie block's first and last rank.
    """
    table = gw.build_rank_table(source, n)
    points = ax.approx_pmf_curve(source, n, table=table)
    run_levels, lengths, groups = table._level_runs
    ends = np.cumsum(lengths, dtype=np.int64)
    starts = ends - lengths  # rank - 1 of each run's first string
    heads = np.flatnonzero(np.diff(groups, prepend=0))  # first run of each tie block
    tails = np.append(heads[1:], groups.size) - 1  # last run of each tie block
    meets = (ends >= 8) & (starts < table.size - 8)
    block = groups[meets] - 1
    interp = ax.interpolated_log_rank(points, table.levels[run_levels[meets]])
    below = np.log(starts[heads][block] + 1) - interp
    above = interp - np.log(ends[tails][block])
    return float(np.max(np.maximum(0.0, np.maximum(below, above))))


def check_approximation_fidelity(quick: bool = False) -> CheckResult:
    """Stitched approximation stays within 0.35 of every exact log rank, and
    the zero-varentropy point reduces to half the string count."""
    failures: list[str] = []
    cases = [("s2", 8), ("s3", 8)] if quick else [("s2", 8), ("s2", 16), ("s3", 8)]
    details = []
    for name, n in cases:
        s = _shipped(name)
        err = _stitched_log_rank_error(s, n)
        details.append(f"{name} n={n}: {err:.3f}")
        if err > LOG_RANK_TOL:
            failures.append(f"{name} n={n}: worst log-rank err {err:.3f} > {LOG_RANK_TOL}")
    for k, n in ((2, 8), (3, 8)):
        total = k**n
        value = ax.approx_rank(math.log(float(total)), 0.0)
        if abs(value - total / 2.0) > 1e-12 * total:
            failures.append(f"zero-varentropy point {value!r} != {total / 2}")
    return CheckResult(
        "approximation_fidelity",
        not failures,
        "worst |log k_approx - log k|: " + ", ".join(details),
        failures[:20],
    )


def check_markov_hmm_concordance() -> CheckResult:
    """The same 0.35 log-rank threshold holds for the Markov and hidden-Markov
    sources at n=8 via enumerated word distributions."""
    failures: list[str] = []
    details = []
    for name in ("s3_markov", "s3_hmm"):
        s = _shipped(name)
        err = _stitched_log_rank_error(s, 8)
        details.append(f"{name}: {err:.3f}")
        if err > LOG_RANK_TOL:
            failures.append(f"{name}: worst log-rank err {err:.3f} > {LOG_RANK_TOL}")
    return CheckResult(
        "markov_hmm_concordance",
        not failures,
        "worst |log k_approx - log k| at n=8: " + ", ".join(details),
        failures[:20],
    )


def check_ldp_corridor() -> CheckResult:
    """Exact finite-n decay of P{log-guesswork/n near t} sits within 0.25 of
    the rate curve for the ternary source at n=10."""
    s3 = _shipped("s3")
    n, eps = 10, 0.1
    table = gw.build_rank_table(s3, n)
    failures: list[str] = []
    details = []
    ts = (0.4, 0.7, 1.0)
    masses = gw.corridor_mass(table, ts, eps)
    references = rt.rate_points(s3, "forward_g", ts).rate.tolist()
    for t, p, reference in zip(ts, masses, references):
        empirical = -math.log(p) / n
        details.append(f"t={t}: {empirical:.4f} vs J={reference:.4f}")
        if abs(empirical - reference) > CORRIDOR_TOL:
            failures.append(f"t={t}: |{empirical:.4f} - {reference:.4f}| > {CORRIDOR_TOL}")
    return CheckResult("ldp_corridor", not failures, "; ".join(details), failures[:20])


def run_all(quick: bool = False, seed: int = 20240) -> list[CheckResult]:
    count = 10 if quick else 50
    return [
        check_identity_suite(seed=seed, count=count),
        check_derivative_suite(seed=seed, count=count),
        check_order_equivalence(),
        check_typical_set_bounds(quick=quick),
        check_rate_functions(),
        check_approximation_fidelity(quick=quick),
        check_markov_hmm_concordance(),
        check_ldp_corridor(),
    ]

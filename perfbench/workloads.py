"""Inputs, job lists and output oracle of the tiltlab benchmark.

A workload is a fixed list of jobs.  A job calls tiltlab's public API, or
its CLI in-process, and returns its output; the oracle then turns the output
into a fingerprint.  Jobs on the shipped specs must reproduce the
fingerprints recorded in reference.json; jobs on the seeded sources have no
stored reference and must pass invariant checks instead.  Library calls are
wrapped in tracer spans named <module>.<function>.

Each workload holds one seeded source of a fixed shape beside the shipped
specs, so the seed changes values but not the amount of work.
"""
from __future__ import annotations

import dataclasses
import hashlib
import io
import json
import math
from contextlib import redirect_stderr
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional

import numpy as np

import tiltlab as tl
from tiltlab import approx as ax
from tiltlab import guesswork as gw
from tiltlab import rates as rt
from tiltlab import sources as src
from tiltlab import verify as vf
from tiltlab.cli import main as cli_main

WORKLOADS = ("exact_iid", "word_models", "figure_export")
SHIPPED = ("s2", "s3", "s77_sample", "s3_markov", "s3_hmm")

#: typical-set ledger queries (the grid of verify's criterion 4)
LEDGER_ALPHAS = (-2.0, -0.5, 0.5, 1.0, 2.0)
LEDGER_EPSILONS = (0.05, 0.1, 0.2)
#: LDP-corridor points and window (those of verify's criterion 8)
CORRIDOR_TS = (0.4, 0.7, 1.0)
CORRIDOR_EPS = 0.1
#: budget scripts/make_figure_data.py passes to `approx`
OVERLAY_BUDGET = 2**27
#: strings sampled per seeded rank table for the string_log_prob cross-check
SAMPLED_STRINGS = 1000
#: seeded probabilities stay this far inside the simplex, extremes this far apart
SEED_FLOOR = 0.02
SEED_GAP = 1e-3

# verify --quick as cli.main runs it (tiltlab.verify.run_all(quick=True)),
# one public check function at a time
VERIFY_QUICK_CHECKS = (
    ("identity_suite", lambda: vf.check_identity_suite(seed=20240, count=10)),
    ("derivative_suite", lambda: vf.check_derivative_suite(seed=20240, count=10)),
    ("order_equivalence", vf.check_order_equivalence),
    ("typical_set_bounds", lambda: vf.check_typical_set_bounds(quick=True)),
    ("rate_functions", vf.check_rate_functions),
    ("approximation_fidelity", lambda: vf.check_approximation_fidelity(quick=True)),
    ("markov_hmm_concordance", vf.check_markov_hmm_concordance),
    ("ldp_corridor", vf.check_ldp_corridor),
)


@dataclass
class Inputs:
    """Sources and spec files of one workload at one scale ("full" or "smoke")."""

    scale: str
    workdir: Path
    sources: dict
    spec_paths: dict

    def n(self, full: int, smoke: int) -> int:
        return full if self.scale == "full" else smoke


@dataclass
class Job:
    name: str
    run: Callable[[Any, dict], Any]  # (tracer, per-pass state) -> output
    check: Callable[[Any], dict]  # output -> fingerprint
    seeded: bool = False  # fingerprint holds invariants that must all read "ok"
    strings: int = 0  # strings ranked, for rank_strings_per_ref_s (jobs that build a rank table)
    probe: Optional[Callable[[Any], None]] = None  # the library calls behind a CLI job
    outputs: tuple = ()  # files a CLI job writes


# ---------------------------------------------------------------------------
# seeded inputs
# ---------------------------------------------------------------------------


def _simplex_row(rng: np.random.Generator, k: int) -> list[float]:
    """A point inside the simplex with a unique least and most likely entry,
    so that it meets validate()'s open-simplex and unique-extremes rules."""
    while True:
        theta = rng.dirichlet(np.ones(k))
        theta = (theta + SEED_FLOOR) / (1.0 + k * SEED_FLOOR)
        ordered = np.sort(theta)
        if ordered[1] - ordered[0] > SEED_GAP and ordered[-1] - ordered[-2] > SEED_GAP:
            return [float(v) for v in theta]


def seeded_spec(workload: str, seed: int) -> dict:
    """The generated source of a workload: a 4-symbol i.i.d. source, or a
    3-state hidden Markov source over 3 symbols."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "word_models":
        return {
            "kind": "hmm",
            "alphabet": ["a", "b", "c"],
            "transition": [_simplex_row(rng, 3) for _ in range(3)],
            "emission": [_simplex_row(rng, 3) for _ in range(3)],
            "initial": "stationary",
        }
    return {"kind": "categorical", "alphabet": ["a", "b", "c", "d"], "probs": _simplex_row(rng, 4)}


def setup(workload: str, seed: int, scale: str, workdir: Path, tr) -> Inputs:
    """Load the shipped specs and generate the seeded source."""
    sources, spec_paths = {}, {}
    for name in SHIPPED:
        spec_paths[name] = tl.builtin_spec_path(name)
        with tr.span("sources.load_source"):
            sources[name] = src.load_source(spec_paths[name])
    with tr.span("setup.generate"):
        spec = seeded_spec(workload, seed)
        seeded = src.source_from_dict(spec)
        if isinstance(seeded, src.CategoricalSource):
            src.validate(seeded)
        sources["seeded"] = seeded
        workdir.mkdir(parents=True, exist_ok=True)
        spec_paths["seeded"] = workdir / "seeded.json"
        spec_paths["seeded"].write_text(json.dumps(spec))
    return Inputs(scale, workdir, sources, spec_paths)


# ---------------------------------------------------------------------------
# fingerprints and invariants
# ---------------------------------------------------------------------------


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _ok(holds) -> str:
    return "ok" if holds else "violated"


def _table_digests(out) -> dict:
    table, pmf, groups = out
    return {
        "rank_of": _sha(np.ascontiguousarray(table.rank_of, dtype="<i8").tobytes()),
        "pmf_sum": repr(float(pmf.sum())),
        "tie_classes": str(int(groups[-1])),
    }


def _ordering_invariants(strings_at, log_probs, ranks, tie_tol: float) -> dict:
    """Invariants of any list of strings in guessing order.

    `strings_at` holds the lexicographic index of each rank position (or the
    string itself), `log_probs` the log-probability at each rank position.
    """
    steps = log_probs[:-1] - log_probs[1:]
    tied = steps <= tie_tol
    lex_next = strings_at[1:] > strings_at[:-1]
    return {
        "ranks_are_1_to_N": _ok(np.array_equal(ranks, np.arange(1, ranks.size + 1))),
        "log_probs_non_increasing": _ok(bool(np.all(steps >= -tie_tol))),
        "ties_lexicographic": _ok(bool(np.all(lex_next[tied]))),
    }


def _sampled_log_probs_agree(source, pairs) -> str:
    """Every (string, log-prob) pair agrees with string_log_prob."""
    for string, logp in pairs:
        exact = src.string_log_prob(source, string)
        if abs(exact - logp) > 1e-9 * max(1.0, abs(exact)):
            return f"violated at {string}: {logp!r} vs {exact!r}"
    return "ok"


def _table_invariants(source):
    def check(out) -> dict:
        table, pmf, groups = out
        size = table.size
        positions = np.arange(1, size + 1)
        found = _ordering_invariants(
            table.order,
            table.log_probs[table.order],
            table.rank_of[table.order],
            gw.TIE_TOL_PER_SYMBOL * table.n,
        )
        found["rank_of_permutation"] = _ok(np.array_equal(np.sort(table.rank_of), positions))
        found["pmf_sums_to_one"] = _ok(abs(float(pmf.sum()) - 1.0) < 1e-9)
        sample = np.random.default_rng(0).choice(size, min(SAMPLED_STRINGS, size), replace=False)
        found["sampled_string_log_probs"] = _sampled_log_probs_agree(
            source, ((table.string_at(int(i)), float(table.log_probs[i])) for i in sample)
        )
        found["sampled_guesswork"] = _ok(
            all(table.guesswork(table.string_at(int(i))) == table.rank_of[i] for i in sample)
        )
        return found

    return check


def _points_digest(points) -> dict:
    return {"points": _sha("\n".join(repr(dataclasses.astuple(p)) for p in points).encode())}


def _clamped(points, total: float) -> int:
    return sum(
        p.approx_rank <= 1.0 or p.approx_rank >= total
        or p.guesswork_rank <= 1.0 or p.guesswork_rank >= total
        for p in points
    )


def _cli_digests(out) -> dict:
    """Exit code, the CSV bytes below the '#' metadata line, and JSON bytes."""
    code, paths = out
    found = {"exit_code": str(code)}
    for path in paths:
        if not path.exists():
            found[path.name] = "missing"
            continue
        data = path.read_bytes()
        if path.suffix == ".csv":
            data = data.split(b"\n", 1)[-1]
        found[path.name] = _sha(data)
    return found


def _read_csv(path: Path) -> list[list[str]]:
    return [line.split(",") for line in path.read_text().splitlines()[2:]]


def _guesswork_csv_invariants(source, n: int):
    k = len(source.alphabet)

    def check(out) -> dict:
        code, (table_path, pmf_path) = out
        rows = _read_csv(table_path)
        strings = np.array([r[0] for r in rows])
        logp = np.array([float(r[1]) for r in rows])
        g = np.array([int(row[2]) for row in rows])
        reverse = np.array([int(row[3]) for row in rows])
        found = {"exit_code": _ok(code == 0), "row_count": _ok(len(rows) == k**n)}
        # single-character symbols, so string order is lexicographic order
        found.update(_ordering_invariants(strings, logp, g, gw.TIE_TOL_PER_SYMBOL * n))
        found["strings_distinct"] = _ok(np.unique(strings).size == strings.size)
        found["reverse_ranks"] = _ok(np.array_equal(reverse, g.size + 1 - g))
        sample = np.random.default_rng(0).choice(
            len(rows), min(SAMPLED_STRINGS, len(rows)), replace=False
        )
        found["sampled_string_log_probs"] = _sampled_log_probs_agree(
            source, ((strings[i], logp[i]) for i in sample)
        )
        pmf = np.array([float(p) for _, p in _read_csv(pmf_path)])
        found["pmf_matches_log_probs"] = _ok(np.array_equal(pmf, np.exp(logp)))
        return found

    return check


def _rate_csv_invariants(samples: int):
    def check(out) -> dict:
        code, (path,) = out
        rows = _read_csv(path)
        t = np.array([float(row[2]) for row in rows])
        rate = np.array([float(row[3]) for row in rows])
        return {
            "exit_code": _ok(code == 0),
            "row_count": _ok(len(rows) == samples),
            "t_increasing": _ok(bool(np.all(np.diff(t) > 0))),
            "rate_non_negative": _ok(bool(np.all(rate >= -1e-12))),
        }

    return check


def fingerprint_mismatches(job: Job, output, expected: Optional[dict]) -> list[str]:
    """The oracle: what is wrong with a job's output (empty when correct)."""
    try:
        found = job.check(output)
    except Exception as exc:  # a malformed output is a failed job, not a crash
        return [f"check raised {exc!r}"]
    if job.seeded:
        return [f"{key}: {value}" for key, value in found.items() if value != "ok"]
    if expected is None:
        return ["no reference fingerprint"]
    return [
        f"{key}: got {found.get(key)} want {expected.get(key)}"
        for key in sorted(set(found) | set(expected))
        if found.get(key) != expected.get(key)
    ]


# ---------------------------------------------------------------------------
# jobs
# ---------------------------------------------------------------------------


def _build_table(tr, source, n: int, budget: int = src.DEFAULT_BUDGET):
    size = len(source.alphabet) ** n
    with tr.span("guesswork.build_rank_table", strings=size):
        table = gw.build_rank_table(source, n, budget)
    tr.note_build(source, n, budget)
    return table


def _table_job(name: str, inputs: Inputs, source_name: str, n: int, keep: bool = False) -> Job:
    """build_rank_table + pmf + tie_groups; `keep` leaves the table for later jobs."""
    source = inputs.sources[source_name]

    def run(tr, state):
        table = _build_table(tr, source, n)
        with tr.span("guesswork.pmf"):
            pmf = table.pmf()
        with tr.span("guesswork.tie_groups", strings=table.size) as counts:
            groups = table.tie_groups()
        counts["tie_classes"] = int(groups[-1])
        if keep:
            state[name] = table
        return table, pmf, groups

    seeded = source_name == "seeded"
    check = _table_invariants(source) if seeded else _table_digests
    return Job(name, run, check, seeded=seeded, strings=len(source.alphabet) ** n)


def _corridor_job(inputs: Inputs, table_job: str, n: int) -> Job:
    """Probability mass of the LDP corridors and the rate-curve references."""
    s3 = inputs.sources["s3"]

    def run(tr, state):
        table = state.pop(table_job)
        probs = np.exp(table.log_probs)
        norm_log_rank = np.log(table.rank_of.astype(np.float64)) / n
        masses = [float(probs[np.abs(norm_log_rank - t) < CORRIDOR_EPS].sum()) for t in CORRIDOR_TS]
        with tr.span("rates.rate_g"):
            references = [rt.rate_g(s3, t) for t in CORRIDOR_TS]
        return masses, references

    def check(out) -> dict:
        masses, references = out
        return {"masses": repr(masses), "rate_g": repr(references)}

    return Job("ldp_corridor", run, check)


def _ledger_job(inputs: Inputs, table_job: str, n: int) -> Job:
    """The 15-query typical-set bound ledger on one shared table."""
    s3 = inputs.sources["s3"]

    def run(tr, state):
        table = state.pop(table_job)
        reports = []
        for alpha in LEDGER_ALPHAS:
            for eps in LEDGER_EPSILONS:
                spec = gw.TypicalSetSpec(alpha=alpha, epsilon=eps, n=n)
                with tr.span("guesswork.typical_set") as counts:
                    report = gw.typical_set(s3, spec, table=table)
                counts["bounds"] = len(report.bounds)
                reports.append(report)
        return reports

    def check(reports) -> dict:
        lines = [
            f"{r.spec.alpha} {r.spec.epsilon} |A|={r.size} {b.bound_id} {b.flag}"
            for r in reports
            for b in r.bounds
        ]
        return {"ledger_flags": _sha("\n".join(lines).encode())}

    return Job("typical_ledger", run, check)


def _approx_job(name: str, inputs: Inputs, source_name: str, n: int, table_job: str = "") -> Job:
    """approx_pmf_curve; with `table_job`, also the stitched curve's log rank
    at every exact level of that table."""
    source = inputs.sources[source_name]
    total = float(len(source.alphabet)) ** n

    def run(tr, state):
        with tr.span("approx.approx_pmf_curve") as counts:
            points = ax.approx_pmf_curve(source, n)
        counts["points"] = len(points)
        counts["clamped"] = _clamped(points, total)
        if not table_job:
            return points, None
        table = state.pop(table_job)
        with tr.span("approx.interpolated_log_rank"):
            log_rank = ax.interpolated_log_rank(points, table.log_probs[table.order])
        return points, log_rank

    def invariants(out) -> dict:
        points, log_rank = out
        ranks = np.array([p.guesswork_rank for p in points])
        return {
            "sorted_by_rank": _ok(bool(np.all(np.diff(ranks) >= 0))),
            "ranks_clamped": _ok(bool(np.all((ranks >= 1.0) & (ranks <= total)))),
            "both_branches": _ok({p.branch for p in points} == {"forward", "reverse"}),
            "log_rank_in_range": _ok(
                bool(np.all((log_rank >= 0.0) & (log_rank <= math.log(total))))
            ),
        }

    seeded = source_name == "seeded"
    check = invariants if seeded else (lambda out: _points_digest(out[0]))
    return Job(name, run, check, seeded=seeded)


def _sibling(path: Path, suffix: str) -> Path:
    return path.with_name(path.stem + suffix + path.suffix)


def _cli_job(
    name: str,
    inputs: Inputs,
    argv: list,
    sibling: str = "",
    suffix: str = ".csv",
    check=None,
    strings: int = 0,
    probe=None,
) -> Job:
    """One `tiltlab` CLI call through cli.main, writing into the work dir."""
    out = inputs.workdir / f"{name}{suffix}"
    paths = [out] + ([_sibling(out, sibling)] if sibling else [])
    full_argv = [str(a) for a in argv] + ["--out", str(out)]
    command = argv[0]

    def run(tr, state):
        for path in paths:
            path.unlink(missing_ok=True)
        with redirect_stderr(io.StringIO()), tr.span(f"cli.{command}"):
            code = cli_main(full_argv)
        return code, paths

    seeded = check is not None
    return Job(
        name, run, check or _cli_digests, seeded=seeded, strings=strings, probe=probe,
        outputs=tuple(paths),
    )


# library calls behind each CLI subcommand, for the traced run's probes


def _load(tr, path):
    with tr.span("sources.load_source"):
        return src.load_source(path)


def _probe_tilt(path, grid):
    def probe(tr):
        source = _load(tr, path)
        with tr.span("sources.tilted_family_sample"):
            src.validate(source)
            src.tilted_family_sample(source, grid)

    return probe


def _probe_rate(path, kind, samples):
    def probe(tr):
        source = _load(tr, path)
        with tr.span("rates.rate_curve", points=samples):
            rt.rate_curve(source, kind, n_samples=samples)

    return probe


def _probe_approx(path, n, budget):
    def probe(tr):
        source = _load(tr, path)
        with tr.span("approx.approx_pmf_curve") as counts:
            points = ax.approx_pmf_curve(source, n, budget=budget)
        counts["points"] = len(points)
        counts["clamped"] = _clamped(points, float(len(source.alphabet)) ** n)
        table = _build_table(tr, source, n, budget)
        with tr.span("guesswork.pmf"):
            table.pmf()

    return probe


def _probe_guesswork(path, n):
    def probe(tr):
        table = _build_table(tr, _load(tr, path), n)
        with tr.span("guesswork.records"):
            list(table.records())
        with tr.span("guesswork.pmf"):
            table.pmf()

    return probe


def _probe_typical(path, n, alpha, eps):
    def probe(tr):
        source = _load(tr, path)
        with tr.span("guesswork.typical_set") as counts:
            report = gw.typical_set(source, gw.TypicalSetSpec(alpha=alpha, epsilon=eps, n=n))
        counts["bounds"] = len(report.bounds)
        with tr.span("guesswork.member_strings"):
            for set_name in ("A", "B", "D", "E"):
                report.member_strings(set_name)

    return probe


def _probe_verify(tr):
    for name, check in VERIFY_QUICK_CHECKS:
        with tr.span(f"verify.{name}"):
            check()


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def _exact_iid(inputs: Inputs) -> list[Job]:
    n = inputs.n
    corridor_n, ledger_n = n(13, 6), n(12, 6)
    return [
        _table_job("rank_s2", inputs, "s2", n(22, 10)),
        _table_job("rank_s3", inputs, "s3", corridor_n, keep=True),
        _corridor_job(inputs, "rank_s3", corridor_n),
        _table_job("rank_s77", inputs, "s77_sample", n(3, 2)),
        _table_job("rank_seeded_k4", inputs, "seeded", n(10, 5)),
        _table_job("rank_s3_ledger", inputs, "s3", ledger_n, keep=True),
        _ledger_job(inputs, "rank_s3_ledger", ledger_n),
    ]


def _word_models(inputs: Inputs) -> list[Job]:
    n = inputs.n
    return [
        _table_job("rank_s3_markov", inputs, "s3_markov", n(13, 6)),
        _table_job("rank_s3_hmm", inputs, "s3_hmm", n(13, 6)),
        _approx_job("approx_s3_markov", inputs, "s3_markov", n(12, 5)),
        _approx_job("approx_s3_hmm", inputs, "s3_hmm", n(12, 5)),
        _table_job("rank_seeded_hmm", inputs, "seeded", n(12, 5), keep=True),
        _approx_job("approx_seeded_hmm", inputs, "seeded", n(12, 5), table_job="rank_seeded_hmm"),
    ]


def _figure_export(inputs: Inputs) -> list[Job]:
    """The default job list of scripts/make_figure_data.py, copied so that
    edits to the script do not move the benchmark, plus the other CLI paths."""
    n, paths = inputs.n, inputs.spec_paths
    jobs = []
    tilt_points = n(241, 25)
    jobs.append(_cli_job(
        "tilt_s3", inputs,
        ["tilt", "--source", paths["s3"], "--alpha-grid", f"lin:-6:6:{tilt_points}"],
        probe=_probe_tilt(paths["s3"], np.linspace(-6.0, 6.0, tilt_points)),
    ))
    samples = n(201, 11)
    for name, spec in (("s2", "s2"), ("s3", "s3"), ("s77", "s77_sample")):
        for kind, curve in (("g", "forward_g"), ("r", "reverse_r"), ("i", "information_i")):
            jobs.append(_cli_job(
                f"rate_{kind}_{name}", inputs,
                ["rate", "--source", paths[spec], "--kind", kind, "--samples", samples],
                probe=_probe_rate(paths[spec], curve, samples),
            ))
    overlays = [("s2", "s2", n(8, 4)), ("s2", "s2", n(16, 6)), ("s3", "s3", n(8, 4)),
                ("s3_markov", "s3_markov", n(8, 4)), ("s3_hmm", "s3_hmm", n(8, 4)),
                ("s77", "s77_sample", n(3, 2))]
    for name, spec, length in overlays:
        jobs.append(_cli_job(
            f"approx_{name}_n{length}", inputs,
            ["approx", "--source", paths[spec], "--n", length, "--budget", OVERLAY_BUDGET],
            sibling="_overlay", strings=len(inputs.sources[spec].alphabet) ** length,
            probe=_probe_approx(paths[spec], length, OVERLAY_BUDGET),
        ))
    cli_n = n(10, 5)
    jobs.append(_cli_job(
        "guesswork_s3", inputs, ["guesswork", "--source", paths["s3"], "--n", cli_n],
        sibling="_pmf", strings=3**cli_n, probe=_probe_guesswork(paths["s3"], cli_n),
    ))
    jobs.append(_cli_job(
        "typical_s3", inputs,
        ["typical", "--source", paths["s3"], "--n", cli_n, "--alpha", 0.5, "--epsilon", 0.1],
        sibling="_bounds",
        probe=_probe_typical(paths["s3"], cli_n, 0.5, 0.1),
    ))
    jobs.append(_cli_job(
        "verify_quick", inputs, ["verify", "--quick"], suffix=".json", probe=_probe_verify
    ))
    seeded_n = n(8, 4)
    jobs.append(_cli_job(
        "guesswork_seeded", inputs, ["guesswork", "--source", paths["seeded"], "--n", seeded_n],
        sibling="_pmf", strings=4**seeded_n,
        check=_guesswork_csv_invariants(inputs.sources["seeded"], seeded_n),
        probe=_probe_guesswork(paths["seeded"], seeded_n),
    ))
    jobs.append(_cli_job(
        "rate_g_seeded", inputs,
        ["rate", "--source", paths["seeded"], "--kind", "g", "--samples", samples],
        check=_rate_csv_invariants(samples),
        probe=_probe_rate(paths["seeded"], "forward_g", samples),
    ))
    return jobs


def jobs_for(workload: str, inputs: Inputs) -> list[Job]:
    return {"exact_iid": _exact_iid, "word_models": _word_models, "figure_export": _figure_export}[
        workload
    ](inputs)

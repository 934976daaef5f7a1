"""Reference CSV output: the row-wise writer and row generators, kept as a test oracle.

This is `cli._write_csv` and `cli._fmt` as they were before the CLI wrote
its tables column by column: every cell is formatted on its own and every
row is joined on its own.  The subcommand bodies below are the CLI's
`tilt`, `guesswork`, `typical`, `rate` and `approx` as they were then, with
their row generators; the Markov and hidden-Markov `approx` enumerates the
words twice here; `rate_rows` is the row generator rate curves had then.
The CLI must write the same bytes.
"""
import sys
from pathlib import Path

import numpy as np

from tiltlab import approx as ax
from tiltlab import cli
from tiltlab import guesswork as gw
from tiltlab import rates as rt
from tiltlab import sources as src


def fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_csv(path, header, rows, meta: dict) -> None:
    meta_line = "# " + " ".join(f"{k}={v}" for k, v in meta.items())
    lines = [meta_line, ",".join(header)]
    for row in rows:
        lines.append(",".join(fmt(v) for v in row))
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def rate_rows(curve):
    """(kind, alpha, t, J, dJ/dt, d2J/dt2) rows of a rate curve, one per t."""
    for i in range(curve.t.size):
        yield (
            curve.kind,
            float(curve.alpha[i]),
            float(curve.t[i]),
            float(curve.rate[i]),
            float(curve.d_rate[i]),
            float(curve.d2_rate[i]),
        )


def _tilt(args) -> int:
    source = cli._categorical(src.load_source(args.source))
    src.validate(source)
    grid = cli._parse_grid(args.alpha_grid, source, "tilt orders")
    family = src.tilted_family_sample(source, grid)
    header = ["alpha"] + [f"theta_{s}" for s in source.alphabet.symbols]
    rows = [[a] + list(t.theta) for a, t in zip(grid, family)]
    write_csv(args.out, header, rows, cli._source_meta(args))
    return 0


def _guesswork(args) -> int:
    source = src.load_source(args.source)
    table = gw.build_rank_table(source, args.n, cli._resolve_budget(args))
    meta = cli._source_meta(args)
    write_csv(args.out, ["string", "logprob_nats", "G", "R"], table.records(), meta)
    pmf = table.pmf()
    pmf_rows = ((r + 1, p) for r, p in enumerate(pmf))
    write_csv(cli._sibling(args.out, "_pmf"), ["rank", "probability"], pmf_rows, meta)
    return 0


def _typical(args) -> int:
    source = cli._categorical(src.load_source(args.source))
    spec = gw.TypicalSetSpec(alpha=args.alpha, epsilon=args.epsilon, n=args.n)
    report = gw.typical_set(source, spec, budget=cli._resolve_budget(args))
    meta = cli._source_meta(args)
    meta.update(alpha=args.alpha, epsilon=args.epsilon)
    member_rows = (
        (name, member)
        for name in ("A", "B", "D", "E")
        for member in report.member_strings(name)
    )
    write_csv(args.out, ["set_name", "member"], member_rows, meta)
    bound_rows = ((b.bound_id, b.lhs, b.rhs, b.flag) for b in report.bounds)
    write_csv(
        cli._sibling(args.out, "_bounds"), ["bound_id", "lhs", "rhs", "pass"], bound_rows, meta
    )
    return 0 if report.all_passed else 1


def _rate(args) -> int:
    source = cli._categorical(src.load_source(args.source))
    kind = {"g": "forward_g", "r": "reverse_r", "i": "information_i"}[args.kind]
    if args.t_grid:
        curve = rt.rate_points(source, kind, cli._parse_grid(args.t_grid, source, "levels of t"))
    else:
        curve = rt.rate_curve(source, kind, n_samples=args.samples)
    meta = cli._source_meta(args)
    meta["kind"] = args.kind
    write_csv(args.out, ["kind", "alpha", "t_nats", "J_nats", "dJdt", "d2Jdt2"], rate_rows(curve), meta)
    return 0


def _approx(args) -> int:
    source = src.load_source(args.source)
    budget = cli._resolve_budget(args)
    grid = cli._parse_grid(args.alpha_grid, source, "tilt orders") if args.alpha_grid else None
    points = ax.approx_pmf_curve(source, args.n, alpha_grid=grid, budget=budget)
    meta = cli._source_meta(args)
    rows = (
        (p.branch, p.alpha, p.level_nats, p.approx_rank, p.guesswork_rank, p.probability)
        for p in points
    )
    write_csv(
        args.out,
        ["branch", "alpha", "level_nats", "approx_rank", "guesswork_rank", "probability"],
        rows,
        meta,
    )
    # overlay: exact staircase plus the stitched approximation, long format
    table = gw.build_rank_table(source, args.n, budget)
    pmf = table.pmf()
    overlay = [("exact", r + 1, p) for r, p in enumerate(pmf)]
    overlay.extend((p.branch, p.guesswork_rank, p.probability) for p in points)
    write_csv(
        cli._sibling(args.out, "_overlay"), ["series", "rank", "probability"], overlay, meta
    )
    return 0


COMMANDS = {
    "tilt": _tilt,
    "guesswork": _guesswork,
    "typical": _typical,
    "rate": _rate,
    "approx": _approx,
}


def main(argv) -> int:
    """Run one CSV subcommand the row-wise way; the arguments are the CLI's."""
    args = cli.build_parser().parse_args(argv)
    return COMMANDS[args.command](args)

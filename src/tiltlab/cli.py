"""Command-line front end.

Subcommands: tilt, measures, guesswork, typical, rate, approx, verify.
Tabular results are CSV with a leading '#' metadata comment (source hash,
n, package version); structured reports are JSON.  Exit codes: 0 ok,
1 computation error, 2 config/parse error, 3 verification failure.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from contextlib import nullcontext
from itertools import accumulate, chain
from pathlib import Path

import numpy as np

from . import __version__
from . import approx as ax
from . import guesswork as gw
from . import measures as ms
from . import rates as rt
from . import sources as src
from . import verify as vf
from .errors import (
    BoundaryViolation,
    InvalidInput,
    NotNormalized,
    SourceSpecError,
    TieViolation,
    TiltlabError,
)

#: input problems (malformed files, invalid sources, bad arguments) exit 2
CONFIG_ERRORS = (SourceSpecError, InvalidInput, NotNormalized, BoundaryViolation, TieViolation)

BUDGET_ENV = "TILTLAB_BUDGET"


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


#: rows formatted and written at a time
_CSV_BLOCK = 1 << 16


class _Strings:
    """The length-n strings of a rank table at given lexicographic indices,
    decoded a slice at a time."""

    def __init__(self, table: gw.RankTable, lex_indices: np.ndarray):
        self.symbols = table.source.alphabet.symbols
        self.n = table.n
        self.lex_indices = lex_indices

    def __len__(self) -> int:
        return len(self.lex_indices)

    def __getitem__(self, rows: slice) -> list[str]:
        return gw._decode_strings(self.symbols, self.n, self.lex_indices[rows])


def _column_texts(column):
    """(row count, function giving the CSV texts of rows start:stop) of a column.

    A float array is formatted with repr once per distinct bit pattern (so
    -0.0, nan and subnormals keep their text) and gathered per row; any other
    array is formatted with str; `_Strings` are decoded; a list goes through
    `_fmt` value by value; a tuple is its parts one after another, each by
    its own rule.
    """
    if isinstance(column, tuple):
        sizes, texts = zip(*map(_column_texts, column))
        parts = list(zip(texts, accumulate(sizes, initial=0)))
        return sum(sizes), lambda start, stop: chain.from_iterable(
            text(max(start - first, 0), max(stop - first, 0)) for text, first in parts
        )
    if isinstance(column, np.ndarray) and column.dtype.kind == "f":
        bits = column.astype(np.float64, copy=False).view(np.int64)
        distinct, inverse = np.unique(bits, return_inverse=True)
        texts = np.array([repr(x) for x in distinct.view(np.float64).tolist()], dtype=object)
        return len(column), lambda start, stop: texts[inverse[start:stop]].tolist()
    if isinstance(column, np.ndarray):
        return len(column), lambda start, stop: map(str, column[start:stop].tolist())
    if isinstance(column, _Strings):
        return len(column), lambda start, stop: column[start:stop]
    return len(column), lambda start, stop: map(_fmt, column[start:stop])


def _write_csv(path, header, columns, meta: dict) -> None:
    """Write equal-length columns as CSV rows below a '#' metadata line,
    one block of rows at a time."""
    sizes, texts = zip(*map(_column_texts, columns))
    meta_line = "# " + " ".join(f"{k}={v}" for k, v in meta.items())
    with open(path, "w") if path is not None else nullcontext(sys.stdout) as out:
        out.write(meta_line + "\n" + ",".join(header) + "\n")
        for start in range(0, sizes[0], _CSV_BLOCK):
            rows = zip(*(text(start, start + _CSV_BLOCK) for text in texts))
            out.write("\n".join(map(",".join, rows)) + "\n")


def _write_json(path, payload: dict) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _source_meta(args) -> dict:
    digest = hashlib.sha256(Path(args.source).read_bytes()).hexdigest()[:16]
    meta = {"source_sha256": digest, "tiltlab_version": __version__}
    if getattr(args, "n", None) is not None:
        meta["n"] = args.n
    return meta


def _resolve_budget(args) -> int:
    if getattr(args, "budget", None) is not None:
        return args.budget
    env = os.environ.get(BUDGET_ENV)
    if env:
        try:
            return int(env)
        except ValueError:
            raise SourceSpecError(f"{BUDGET_ENV}={env!r} is not an integer") from None
    return src.DEFAULT_BUDGET


def _parse_grid(spec: str) -> np.ndarray:
    """Grid spec: 'v1,v2,...' | 'lin:lo:hi:count' | 'log:lo:hi:count'."""
    try:
        if spec.startswith("lin:"):
            _, lo, hi, count = spec.split(":")
            return np.linspace(float(lo), float(hi), int(count))
        if spec.startswith("log:"):
            _, lo, hi, count = spec.split(":")
            return np.geomspace(float(lo), float(hi), int(count))
        return np.array([float(v) for v in spec.split(",")])
    except ValueError as exc:
        raise SourceSpecError(f"bad grid spec {spec!r}: {exc}") from exc


def _sibling(path, suffix: str):
    if path is None:
        return None
    p = Path(path)
    return p.with_name(p.stem + suffix + p.suffix)


def _categorical(source) -> src.CategoricalSource:
    if not isinstance(source, src.CategoricalSource):
        raise SourceSpecError("this subcommand needs a categorical source")
    return source


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_tilt(args) -> int:
    source = _categorical(src.load_source(args.source))
    src.validate(source)
    grid = _parse_grid(args.alpha_grid)
    family = src.tilted_family_sample(source, grid)
    header = ["alpha"] + [f"theta_{s}" for s in source.alphabet.symbols]
    thetas = np.array([t.theta for t in family]).reshape(grid.size, len(source.alphabet))
    _write_csv(args.out, header, [grid, *thetas.T], _source_meta(args))
    return 0


def _cmd_measures(args) -> int:
    source = _categorical(src.load_source(args.source))
    src.validate(source)
    src._require_length(args.n)
    tilted = src.tilt(source, args.alpha)
    bundle = ms.measure_bundle(tilted, source, args.n)
    payload = bundle.as_dict()
    payload["alpha"] = args.alpha
    payload["renyi_entropy_nats"] = ms.renyi_entropy(source, args.alpha, args.n)
    payload.update(_source_meta(args))
    _write_json(args.out, payload)
    return 0


def _cmd_guesswork(args) -> int:
    source = src.load_source(args.source)
    table = gw.build_rank_table(source, args.n, _resolve_budget(args))
    meta = _source_meta(args)
    g = np.arange(1, table.size + 1)
    columns = [_Strings(table, table.order), table.log_probs[table.order], g, g[::-1]]
    _write_csv(args.out, ["string", "logprob_nats", "G", "R"], columns, meta)
    _write_csv(_sibling(args.out, "_pmf"), ["rank", "probability"], [g, table.pmf()], meta)
    return 0


def _cmd_typical(args) -> int:
    source = _categorical(src.load_source(args.source))
    spec = gw.TypicalSetSpec(alpha=args.alpha, epsilon=args.epsilon, n=args.n)
    report = gw.typical_set(source, spec, budget=_resolve_budget(args))
    meta = _source_meta(args)
    meta.update(alpha=args.alpha, epsilon=args.epsilon)
    names = ("A", "B", "D", "E")
    members = [report.members(name) for name in names]
    set_names = np.repeat(names, [m.size for m in members])
    strings = _Strings(report.table, np.concatenate(members))
    _write_csv(args.out, ["set_name", "member"], [set_names, strings], meta)
    bounds = report.bounds
    columns = [[b.bound_id for b in bounds], [b.lhs for b in bounds],
               [b.rhs for b in bounds], [b.flag for b in bounds]]
    _write_csv(_sibling(args.out, "_bounds"), ["bound_id", "lhs", "rhs", "pass"], columns, meta)
    return 0 if report.all_passed else 1


def _cmd_rate(args) -> int:
    source = _categorical(src.load_source(args.source))
    kind = {"g": "forward_g", "r": "reverse_r", "i": "information_i"}[args.kind]
    if args.t_grid:
        curve = rt.rate_points(source, kind, _parse_grid(args.t_grid))
    else:
        curve = rt.rate_curve(source, kind, n_samples=args.samples)
    meta = _source_meta(args)
    meta["kind"] = args.kind
    columns = [[curve.kind] * curve.t.size, curve.alpha, curve.t, curve.rate, curve.d_rate,
               curve.d2_rate]
    _write_csv(args.out, ["kind", "alpha", "t_nats", "J_nats", "dJdt", "d2Jdt2"], columns, meta)
    return 0


def _cmd_approx(args) -> int:
    source = src.load_source(args.source)
    budget = _resolve_budget(args)
    grid = _parse_grid(args.alpha_grid) if args.alpha_grid else None
    grid = ax._sweep_grid(source, args.n, grid)[0]  # input errors before enumerating
    table = gw.build_rank_table(source, args.n, budget)
    points = ax.approx_pmf_curve(
        source, args.n, alpha_grid=grid, budget=budget, log_probs=table.log_probs
    )
    meta = _source_meta(args)
    fields = ("alpha", "level_nats", "approx_rank", "guesswork_rank", "probability")
    curve = {f: np.array([getattr(p, f) for p in points]) for f in fields}
    branches = [p.branch for p in points]
    _write_csv(args.out, ["branch", *fields], [branches, *curve.values()], meta)
    # overlay: exact staircase plus the stitched approximation, long format;
    # exact ranks are ints and curve ranks floats, so they stay separate parts
    columns = [
        np.array(["exact"] * table.size + branches, dtype=object),
        (np.arange(1, table.size + 1), curve["guesswork_rank"]),
        np.concatenate([table.pmf(), curve["probability"]]),
    ]
    _write_csv(_sibling(args.out, "_overlay"), ["series", "rank", "probability"], columns, meta)
    return 0


def _cmd_verify(args) -> int:
    results = vf.run_all(quick=args.quick, seed=args.seed)
    payload = {
        "quick": args.quick,
        "seed": args.seed,
        "tiltlab_version": __version__,
        "passed": all(r.passed for r in results),
        "checks": [r.as_dict() for r in results],
    }
    _write_json(args.out, payload)
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}", file=sys.stderr)
    return 0 if payload["passed"] else 3


# ---------------------------------------------------------------------------

def _add_common(p, *, needs_source=True, needs_n=False):
    if needs_source:
        p.add_argument("--source", required=True, help="path of a source spec JSON file")
    if needs_n:
        p.add_argument("--n", type=int, required=True, help="string length")
    p.add_argument("--out", default=None, help="output path (default: stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tiltlab",
        description="Exact and approximate guesswork analysis of string-sources",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tilt", help="sample the tilted family of a source")
    _add_common(p)
    p.add_argument("--alpha-grid", required=True, help="grid spec, e.g. lin:0.1:4:40")
    p.set_defaults(func=_cmd_tilt)

    p = sub.add_parser("measures", help="information measures of a tilted source")
    _add_common(p, needs_n=True)
    p.add_argument("--alpha", type=float, default=1.0, help="tilt order (default 1)")
    p.set_defaults(func=_cmd_measures)

    p = sub.add_parser("guesswork", help="exact rank table and guesswork PMF")
    _add_common(p, needs_n=True)
    p.add_argument("--budget", type=int, default=None)
    p.set_defaults(func=_cmd_guesswork)

    p = sub.add_parser("typical", help="tilted weakly typical set and bound ledger")
    _add_common(p, needs_n=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--budget", type=int, default=None)
    p.set_defaults(func=_cmd_typical)

    p = sub.add_parser("rate", help="large-deviation rate curve")
    _add_common(p)
    p.add_argument("--kind", choices=("g", "r", "i"), required=True)
    p.add_argument("--t-grid", default=None, help="grid spec; default uniform interior")
    p.add_argument("--samples", type=int, default=201)
    p.set_defaults(func=_cmd_rate)

    p = sub.add_parser("approx", help="stitched PMF approximation and exact overlay")
    _add_common(p, needs_n=True)
    p.add_argument("--alpha-grid", default=None, help="grid of tilt orders (both signs)")
    p.add_argument("--budget", type=int, default=None)
    p.set_defaults(func=_cmd_approx)

    p = sub.add_parser("verify", help="run the built-in verification suite")
    p.add_argument("--quick", action="store_true", help="reduced grids")
    p.add_argument("--seed", type=int, default=20240)
    p.add_argument("--out", default=None, help="JSON report path (default: stdout)")
    p.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CONFIG_ERRORS as exc:
        print(f"tiltlab: config error: {exc}", file=sys.stderr)
        return 2
    except TiltlabError as exc:
        print(f"tiltlab: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

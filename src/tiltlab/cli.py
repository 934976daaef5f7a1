"""Command-line front end.

Subcommands: tilt, measures, guesswork, typical, rate, approx, verify.
Tabular results are CSV with a leading '#' metadata comment (source hash,
n, package version); structured reports are JSON.  Exit codes: 0 ok,
1 computation error, 2 config/parse error, 3 verification failure.

CSV rows are assembled as bytes, a block of rows at a time.  Each column
names its encoder, which gives a padded byte matrix for the block: floats
and other coded values from a table of their distinct texts, ints from
numpy digits, strings from their symbols' bytes.  The matrices sit side by
side with the separators, and dropping the padding leaves the block's text.
A table is written as row groups one after another, such as the exact
staircase and then the stitched curve of the `approx` overlay.
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys
from contextlib import nullcontext
from functools import cache
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


#: padding: a byte UTF-8 never uses, removed before a block is decoded
_PAD = 0xFF
#: most words in the table a string column gathers its words from
_WORDS = 1 << 12


@cache
def _quads() -> np.ndarray:
    """Four-byte digit groups by index, one uint32 each: i < 10**4 is i with
    its leading zeros, 10**4 + i is i without them (a number's leading group),
    and 2 * 10**4 is all `_PAD` (a group above the leading one).  Built on
    first use, not on import."""
    i = np.arange(10_000)[:, None]
    digits = (i // np.array([1000, 100, 10, 1]) % 10 + ord("0")).astype(np.uint8)
    leading = np.where(i >= np.array([1000, 100, 10, 0]), digits, _PAD).astype(np.uint8)
    quads = np.vstack([digits, leading, np.full((1, 4), _PAD, np.uint8)]).view(np.uint32).ravel()
    quads.setflags(write=False)  # shared by every caller
    return quads


def _text_bytes(texts: list[str]) -> np.ndarray:
    """(len(texts), width) bytes: each text in UTF-8 (surrogates pass), then `_PAD`."""
    data = "".join(texts).encode("utf-8", "surrogatepass")
    lengths = np.fromiter(map(len, texts), np.intp, len(texts))
    if len(data) != lengths.sum():  # not all ASCII: count bytes text by text
        encoded = (t.encode("utf-8", "surrogatepass") for t in texts)
        lengths = np.fromiter(map(len, encoded), np.intp, len(texts))
    table = np.full((len(texts), lengths.max(initial=0)), _PAD, np.uint8)
    table[np.arange(table.shape[1]) < lengths[:, None]] = np.frombuffer(data, np.uint8)
    return table


def _coded_bytes(values, codes: np.ndarray):
    """A column of one code per row into `values`, each formatted once: floats
    with repr, others with `_fmt`.  A short list is its own column through the
    codes `np.arange(len(values))`."""
    if isinstance(values, np.ndarray) and values.dtype.kind == "f":
        texts = list(map(repr, values.astype(np.float64, copy=False).tolist()))
    else:
        texts = list(map(_fmt, values))
    table = _text_bytes(texts)
    return len(codes), lambda start, stop: table.take(codes[start:stop], axis=0)


def _float_bytes(values: np.ndarray):
    """Floats coded by their distinct bit patterns, so each is formatted with
    repr once (-0.0, nan payloads and subnormals keep their text)."""
    bits = values.astype(np.float64, copy=False).view(np.int64)
    distinct, codes = np.unique(bits, return_inverse=True)
    return _coded_bytes(distinct.view(np.float64), codes)


def _int_bytes(values: np.ndarray):
    """Non-negative ints as decimal digits from the table of four-digit groups."""
    groups = -(-len(str(int(values.max(initial=0)))) // 4)
    table = _quads()

    def matrix(start, stop):
        magnitude = values[start:stop]
        quads = np.empty((magnitude.size, groups), np.uint32)
        for j in reversed(range(groups)):  # the least significant group first
            rest, quad = np.divmod(magnitude, 10_000)
            index = quad.astype(np.intp) + 10_000 * (rest == 0)
            if j < groups - 1:
                index += 10_000 * (magnitude == 0)
            quads[:, j] = table.take(index)
            magnitude = rest
        return quads.view(np.uint8)

    return values.size, matrix


def _word_bytes(symbols: np.ndarray, length: int) -> np.ndarray:
    """The bytes of every word of `length` symbols, in lexicographic order."""
    k = symbols.shape[0]
    digits = np.indices((k,) * length).reshape(length, -1).T
    return symbols[digits].reshape(k**length, -1)


def _strings_bytes(table: gw.RankTable, lex_indices: np.ndarray):
    """The length-n strings of a rank table at given lexicographic indices,
    gathered as words of their symbols' bytes by the base-k digits of each
    index."""
    symbols = _text_bytes(list(table.source.alphabet.symbols))
    k, n = symbols.shape[0], table.n
    g = 1  # symbols per gathered word
    while g < n and k ** (g + 1) <= _WORDS:
        g += 1
    lengths = [n % g] * (n % g > 0) + [g] * (n // g)  # the leading word may be shorter
    words = {length: _word_bytes(symbols, length) for length in set(lengths)}

    def matrix(start, stop):
        rest, parts = lex_indices[start:stop], []
        for length in reversed(lengths):  # base k**length digits, least significant first
            rest, digit = np.divmod(rest, k**length)
            parts.append(words[length].take(digit, axis=0))
        return np.hstack(parts[::-1])

    return lex_indices.size, matrix


def _write_csv(path, header, meta: dict, *groups) -> None:
    """Write row groups, one after another, as CSV rows below a '#' metadata line.

    A group is a list of equal-length columns, one per header field, each an
    encoder's (row count, function giving the bytes of rows start:stop): a
    uint8 matrix with one row per CSV row, the field's UTF-8 text padded with
    `_PAD` to the widest text of the rows.  Each block of a group's rows is one
    byte matrix: the columns' matrices side by side, each followed by its ','
    or newline column.  Dropping the `_PAD` bytes leaves the block's text,
    which is decoded once and written.
    """
    separators = [ord(",")] * (len(header) - 1) + [ord("\n")]
    meta_line = "# " + " ".join(f"{k}={v}" for k, v in meta.items())
    with open(path, "w") if path is not None else nullcontext(sys.stdout) as out:
        out.write(meta_line + "\n" + ",".join(header) + "\n")
        for group in groups:
            sizes, matrices = zip(*group)
            for start in range(0, sizes[0], src._BLOCK):
                stop = min(start + src._BLOCK, sizes[0])
                block = np.hstack([
                    part
                    for matrix, byte in zip(matrices, separators)
                    for part in (matrix(start, stop), np.full((stop - start, 1), byte, np.uint8))
                ])
                out.write(block[block != _PAD].tobytes().decode("utf-8", "surrogatepass"))


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
        budget, name = args.budget, "--budget"
    elif env := os.environ.get(BUDGET_ENV):
        try:
            budget, name = int(env), BUDGET_ENV
        except ValueError:
            raise SourceSpecError(f"{BUDGET_ENV}={env!r} is not an integer") from None
    else:
        return src.DEFAULT_BUDGET
    if budget < 1:
        raise InvalidInput(f"{name} must be at least 1, got {budget}")
    return budget


def _parse_grid(spec: str, source, what: str) -> np.ndarray:
    """Grid spec: 'v1,v2,...' | 'lin:lo:hi:count' | 'log:lo:hi:count'.

    A lin/log count of `what` (named in the error) is held to the rate grid
    budget over the source's alphabet before the grid is built.
    """
    try:
        if spec.startswith(("lin:", "log:")):
            kind, lo, hi, count = spec.split(":")
            lo, hi, count = float(lo), float(hi), int(count)
            src._require_grid_budget(source, count, what)
            return (np.linspace if kind == "lin" else np.geomspace)(lo, hi, count)
        return np.array([float(v) for v in spec.split(",")])
    except ValueError as exc:
        raise SourceSpecError(f"bad grid spec {spec!r}: {exc}") from exc


def _sibling(path, suffix: str):
    if path is None:
        return None
    p = Path(path)
    return p.with_name(p.stem + suffix + p.suffix)


def _require_writable(args) -> None:
    """Every file a subcommand writes, its `--out` path and the siblings it
    names, must be one it can write: a file or new name in a directory that
    can be written.  Checked before any work, so a bad path leaves no file
    behind (InvalidInput)."""
    if args.out is None:
        return
    for path in [Path(args.out)] + [_sibling(args.out, s) for s in getattr(args, "siblings", ())]:
        if not path.parent.is_dir():
            reason = "its directory does not exist"
        elif path.is_dir():
            reason = "it is a directory"
        elif not os.access(path if path.exists() else path.parent, os.W_OK):
            reason = "permission denied"
        else:
            continue
        raise InvalidInput(f"cannot write {str(path)!r}: {reason}")


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
    grid = _parse_grid(args.alpha_grid, source, "tilt orders")
    finite = np.isfinite(grid)
    thetas = src._tilted_thetas(source, np.where(finite, grid, 1.0))  # rows: tilt's bits
    failed = ~finite | ~np.isfinite(thetas).all(axis=1)
    if failed.any():
        src.tilt(source, grid[failed.argmax()])  # the first failing order raises its error
    header = ["alpha"] + [f"theta_{s}" for s in source.alphabet.symbols]
    _write_csv(args.out, header, _source_meta(args), list(map(_float_bytes, [grid, *thetas.T])))
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
    ranked = table._ranked_levels()  # log_probs[order] and pmf() as codes
    strings, ranks = _strings_bytes(table, table.order), _int_bytes(g)
    columns = [strings, _coded_bytes(table.levels, ranked), ranks, _int_bytes(g[::-1])]
    _write_csv(args.out, ["string", "logprob_nats", "G", "R"], meta, columns)
    pmf = _coded_bytes(np.exp(table.levels), ranked)
    _write_csv(_sibling(args.out, "_pmf"), ["rank", "probability"], meta, [ranks, pmf])
    return 0


def _cmd_typical(args) -> int:
    source = _categorical(src.load_source(args.source))
    spec = gw.TypicalSetSpec(alpha=args.alpha, epsilon=args.epsilon, n=args.n)
    report = gw.typical_set(source, spec, budget=_resolve_budget(args))
    meta = _source_meta(args)
    meta.update(alpha=args.alpha, epsilon=args.epsilon)
    names = ("A", "B", "D", "E")
    members = [report.members(name) for name in names]
    set_names = _coded_bytes(names, np.repeat(np.arange(len(names)), [m.size for m in members]))
    strings = _strings_bytes(report.table, np.concatenate(members))
    _write_csv(args.out, ["set_name", "member"], meta, [set_names, strings])
    fields = ("bound_id", "lhs", "rhs", "flag")
    rows = np.arange(len(report.bounds))
    columns = [_coded_bytes([getattr(b, f) for b in report.bounds], rows) for f in fields]
    _write_csv(_sibling(args.out, "_bounds"), ["bound_id", "lhs", "rhs", "pass"], meta, columns)
    return 0 if report.all_passed else 1


def _cmd_rate(args) -> int:
    source = _categorical(src.load_source(args.source))
    kind = {"g": "forward_g", "r": "reverse_r", "i": "information_i"}[args.kind]
    if args.t_grid:
        curve = rt.rate_points(source, kind, _parse_grid(args.t_grid, source, "levels of t"))
    else:
        curve = rt.rate_curve(source, kind, n_samples=args.samples)
    meta = _source_meta(args)
    meta["kind"] = args.kind
    kinds = _coded_bytes([curve.kind], np.broadcast_to(0, curve.t.size))
    values = [curve.alpha, curve.t, curve.rate, curve.d_rate, curve.d2_rate]
    header = ["kind", "alpha", "t_nats", "J_nats", "dJdt", "d2Jdt2"]
    _write_csv(args.out, header, meta, [kinds, *map(_float_bytes, values)])
    return 0


def _cmd_approx(args) -> int:
    source = src.load_source(args.source)
    budget = _resolve_budget(args)
    grid = _parse_grid(args.alpha_grid, source, "tilt orders") if args.alpha_grid else None
    grid = ax._sweep_grid(source, args.n, grid)[0]  # input errors before enumerating
    table = gw.build_rank_table(source, args.n, budget)
    points = ax.approx_pmf_curve(source, args.n, alpha_grid=grid, table=table)
    meta = _source_meta(args)
    fields = ("alpha", "level_nats", "approx_rank", "guesswork_rank", "probability")
    curve = {f: _float_bytes(np.array([getattr(p, f) for p in points])) for f in fields}
    branches = _coded_bytes([p.branch for p in points], np.arange(len(points)))
    _write_csv(args.out, ["branch", *fields], meta, [branches, *curve.values()])
    # overlay, long format: the exact staircase (int ranks), then the stitched curve
    pmf = _coded_bytes(np.exp(table.levels), table._ranked_levels())
    exact = [_coded_bytes(["exact"], np.broadcast_to(0, table.size)),
             _int_bytes(np.arange(1, table.size + 1)), pmf]
    stitched = [branches, curve["guesswork_rank"], curve["probability"]]
    _write_csv(_sibling(args.out, "_overlay"), ["series", "rank", "probability"], meta, exact,
               stitched)
    return 0


def _cmd_verify(args) -> int:
    results = vf.run_all(quick=args.quick, seed=args.seed)
    payload = {
        "quick": args.quick,
        "seed": args.seed,
        "tiltlab_version": __version__,
        "passed": all(r.passed for r in results),
        "checks": [dataclasses.asdict(r) for r in results],
    }
    _write_json(args.out, payload)
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}", file=sys.stderr)
    return 0 if payload["passed"] else 3


# ---------------------------------------------------------------------------

def _add_common(p, *, needs_n=False):
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
    p.set_defaults(func=_cmd_guesswork, siblings=("_pmf",))

    p = sub.add_parser("typical", help="tilted weakly typical set and bound ledger")
    _add_common(p, needs_n=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--budget", type=int, default=None)
    p.set_defaults(func=_cmd_typical, siblings=("_bounds",))

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
    p.set_defaults(func=_cmd_approx, siblings=("_overlay",))

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
        _require_writable(args)
        return args.func(args)
    except CONFIG_ERRORS as exc:
        print(f"tiltlab: config error: {exc}", file=sys.stderr)
        return 2
    except TiltlabError as exc:
        print(f"tiltlab: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

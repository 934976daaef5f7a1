"""Command-line front end.

Subcommands: tilt, measures, guesswork, typical, rate, approx, verify.
Tabular results are CSV with a leading '#' metadata comment (source hash,
n, package version); structured reports are JSON.  Exit codes: 0 ok,
1 computation error, 2 config/parse error, 3 verification failure.

CSV rows are assembled as bytes, a block of rows at a time.  Each column
names its encoder, which gives a padded byte matrix for the block: floats
and other coded values from a table of their texts, ints from numpy
digits, strings from their symbols' bytes.  The matrices sit side by side
with the separators, and dropping the padding leaves the block's text.  A
table is written as row groups one after another, such as the exact
staircase and then the stitched curve of the `approx` overlay.

A float is written as Python's repr writes it, and the bytes are computed
in numpy: Ryu's shortest round-trip digits (Adams, PLDI 2018) from 128-bit
products on 32-bit limbs, laid out by repr's rules in three 64-bit lanes of
bytes.  repr is the specification the tests hold the formatter to; scalars
and mixed lists (the typical-set bounds) still go through `_fmt`.

Text is UTF-8 whatever the locale: spec files are read as UTF-8, alphabet
symbols must encode to it, and CSV and JSON files are written in it.
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
    """(len(texts), width) bytes: each text in UTF-8, then `_PAD`."""
    data = "".join(texts).encode("utf-8")
    lengths = np.fromiter(map(len, texts), np.intp, len(texts))
    if len(data) != lengths.sum():  # not all ASCII: count bytes text by text
        lengths = np.fromiter((len(t.encode("utf-8")) for t in texts), np.intp, len(texts))
    table = np.full((len(texts), lengths.max(initial=0)), _PAD, np.uint8)
    table[np.arange(table.shape[1]) < lengths[:, None]] = np.frombuffer(data, np.uint8)
    return table


# ---------------------------------------------------------------------------
# float texts: repr's bytes in numpy
# ---------------------------------------------------------------------------

_U64 = np.uint64
_LOW32 = 0xFFFF_FFFF
#: float64 bit patterns: the mantissa field, +inf (above it: nan) and 1.0
_MANTISSA, _INF, _ONE = (1 << 52) - 1, 0x7FF0_0000_0000_0000, 0x3FF0_0000_0000_0000
#: decimal exponents are kept as uint64 with this added
_EXP_BIAS = 400
#: values formatted at a time: 8192 uint64s (64 KiB) per working array keep
#: the formatter's arrays in a core's cache and out of fresh pages
_FLOATS = 1 << 13
_P10 = np.array([10**k for k in range(20)], np.uint64)
#: 5 * 10**(r - 1): the removed part of r digits at which rounding is a tie
_HALF = np.array([1] + [5 * 10**k for k in range(19)], np.uint64)


def _word(text: str) -> int:
    """A text of at most 8 ASCII bytes as a little-endian uint64 value."""
    return int.from_bytes(text.encode("ascii"), "little")


#: repr of the values Ryu does not take, `_PAD` after, by 2 * (0 zero,
#: 1 inf, 2 nan) + sign, and their lengths
_SPECIALS = ("0.0", "-0.0", "inf", "-inf", "nan", "nan")
_SPECIAL_WORDS = np.array([_word(s) | (~0 << 8 * len(s)) & (1 << 64) - 1 for s in _SPECIALS],
                          np.uint64)
_SPECIAL_LENGTHS = np.array([len(s) for s in _SPECIALS], np.uint64)


def _pow5bits(e: int) -> int:
    """Bits of 5**e, as Ryu counts them."""
    return ((e * 1217359) >> 19) + 1


@cache
def _ryu_table() -> np.ndarray:
    """Ryu's constants for each float64 exponent field, one column per
    exponent and one row per constant (see `_shortest`):

    0-4: 32-bit limbs of the multiplier, 5**-q or 5**i scaled so that vr
        is mv * multiplier >> 128 for every exponent;
    5-7: the step from vr up to vp, which is one more where the product's
        low 128 bits are at or above the value in rows 6 (low 64 bits) and 7;
    8-10: the step from vr down to vm, one more where the low bits are below
        the value in rows 9 and 10, for a full gap below (mmShift = 1);
    11: mask of the low q bits of mv (for e2 < 0 and q < 63; all bits else):
        mv & mask == 0 when the digits vr loses are zeros;
    12: the decimal exponent of vr's last digit, plus `_EXP_BIAS`;
    13, 14: q, and whether vr, vm may end in zeros or vp be one too high.

    Built on first use, with Python ints."""
    columns = []
    for e in range(2048):
        e2 = max(e, 1) - 1077  # 4 * value == mv * 2**e2
        if e2 >= 0:
            q = ((e2 * 78913) >> 18) - (e2 > 3)
            exp10, tz, exact = q, (1 << 64) - 1, q <= 21
            shift = -e2 + q + 124 + _pow5bits(q)
            multiplier = (1 << (_pow5bits(q) + 124)) // 5**q + 1
        else:
            q = ((-e2 * 732923) >> 20) - (-e2 > 1)
            exp10, exact = q + e2, q <= 1
            tz = (1 << q) - 1 if q < 63 else (1 << 64) - 1
            pow5 = 5 ** (-e2 - q)
            bits = pow5.bit_length()
            multiplier = pow5 >> (bits - 125) if bits >= 125 else pow5 << (125 - bits)
            shift = q - bits + 125
        multiplier <<= 128 - shift  # shift is 118..125
        step_down, down = divmod(2 * multiplier, 1 << 128)
        step_up, up = (step_down, (1 << 128) - down) if down else (step_down - 1, 0)
        columns.append([*((multiplier >> (32 * k)) & _LOW32 for k in range(5)),
                        step_up, up & ((1 << 64) - 1), up >> 64,
                        step_down, down & ((1 << 64) - 1), down >> 64,
                        tz, exp10 + _EXP_BIAS, q, exact])
    table = np.array(columns, np.uint64).T.copy()
    table.setflags(write=False)  # shared by every caller
    return table


def _removable(vp: np.ndarray, vm: np.ndarray) -> np.ndarray:
    """The most trailing digits r with vp // 10**r > vm // 10**r: four at a
    time, then two, then one."""
    r = sum((vp // 10**k > vm // 10**k for k in (4, 8, 12, 16)), _U64(0)) * 4
    for step in (_U64(2), _U64(1)):
        p = _P10[r + step]
        r += (vp // p > vm // p) * step
    return r


def _shortest(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ryu's shortest round-trip digits of each finite nonzero float64, given
    by its bits, and the decimal exponent of their last digit plus
    `_EXP_BIAS`: the digits repr writes.

    mv = 4 * m2 scales the mantissa so that the midpoints to its neighbours,
    mv + 2 and mv - 2 (mv - 1 below a power of two), are whole.  vr, vp and
    vm are the value and the two midpoints times 10**-exp10: vr is the top
    64 bits of the 192-bit product mv * multiplier, and vp and vm step from
    it by table constants and the product's low 128 bits.  Digits are
    removed while vp and vm still differ without them; the removed digits
    round vr half up, or half to even where the exact value's removed digits
    are zeros.  vm is itself a candidate, with its own trailing zeros
    removed, where it is an exact decimal and the mantissa is even (the
    interval then includes its ends)."""
    exponent = (bits >> 52) & 0x7FF
    mantissa = bits & _MANTISSA
    wide = (mantissa != 0) | (exponent <= 1)  # mmShift: the gap below is a full step
    (*limbs, step_up, up_lo, up_hi, step_down, down_lo, down_hi, tz, exp10, q,
     exact) = _ryu_table().take(exponent, axis=1)
    if (rows := np.flatnonzero(~wide)).size:  # a power of two: the gap below is half a step
        step_down[rows] = limbs[4][rows]
        down_lo[rows] = limbs[0][rows] | (limbs[1][rows] << 32)
        down_hi[rows] = limbs[2][rows] | (limbs[3][rows] << 32)
    mv = (mantissa | ((exponent != 0).astype(_U64) << 52)) << 2
    a0, a1 = mv & _LOW32, mv >> 32
    t = a0 * limbs[0]
    f = [t & _LOW32]  # the product's 32-bit limbs, least significant first
    for w in limbs[1:]:
        t = a0 * w + (t >> 32)
        f.append(t & _LOW32)
    f.append(t >> 32)
    t = a1 * limbs[0] + f[1]
    f[1] = t & _LOW32
    for k, w in enumerate(limbs[1:], 2):
        t = a1 * w + f[k] + (t >> 32)
        f[k] = t & _LOW32
    vr = f[4] | (t << 32)
    lo, hi = f[0] | (f[1] << 32), f[2] | (f[3] << 32)
    vp = vr + step_up + ((hi > up_hi) | ((hi == up_hi) & (lo >= up_lo)))
    vm = vr - step_down - ((hi < down_hi) | ((hi == down_hi) & (lo < down_lo)))
    vr_zeros = (mv & tz) == 0
    vm_zeros = np.empty(0, np.intp)  # rows whose vm may be kept with its zeros
    if (rows := np.flatnonzero(exact)).size:
        big = exponent[rows] >= 1077  # e2 >= 0: count factors of 5
        m, even, wide = mv[rows], (mantissa[rows] & 1) == 0, wide[rows]
        pow5 = _U64(5) ** q[rows]
        fives = m % 5 == 0
        vr_zeros[rows] |= big & fives & (m % pow5 == 0)
        vp[rows] -= np.where(big, ~fives & ~even & ((m + 2) % pow5 == 0), ~even)
        vm_zeros = rows[np.where(big, ~fives & even & ((m - 1 - wide) % pow5 == 0), even & wide)]
    r = _removable(vp, vm)
    if vm_zeros.size:  # only if the digits vm lost are zeros, then it loses its zeros
        p = _P10[r[vm_zeros]]
        vm_zeros = vm_zeros[vm[vm_zeros] // p * p == vm[vm_zeros]]
        while (zero := vm[vm_zeros] // _P10[r[vm_zeros]] % 10 == 0).any():
            r[vm_zeros[zero]] += 1
    p = _P10[r]
    digits = vr // p
    removed = vr - digits * p
    half = _HALF[r]
    round_up = (removed > half) | ((removed == half) & ~(vr_zeros & ((digits & 1) == 0)))
    at_vm = digits == vm // p
    at_vm[vm_zeros] = False  # vm itself is inside the interval
    return digits + (at_vm | round_up), exp10 + r


@cache
def _repr_layouts() -> np.ndarray:
    """By decpt + `_EXP_BIAS`, where the digits d1 d2 ... read 0.d1d2... *
    10**decpt: the digit the '.' goes before (24: none), the least count of
    digits written, a prefix ('0.' and zeros) and its length, and a suffix
    (the exponent) and its length.  repr writes fixed point when
    -4 < decpt <= 16, which is 1e-4 <= |x| < 1e16."""
    rows = []
    for decpt in range(-_EXP_BIAS, _EXP_BIAS):
        if -4 < decpt <= 0:
            prefix = "0." + "0" * -decpt
            rows.append([24, 0, _word(prefix), len(prefix), 0, 0])
        elif 0 < decpt <= 16:
            rows.append([decpt, decpt + 1, 0, 0, 0, 0])  # zeros to the '.', and one after
        else:
            suffix = f"e{decpt - 1:+03d}"
            rows.append([1, 0, 0, 0, _word(suffix), len(suffix)])
    table = np.array(rows, np.uint64).T.copy()
    table.setflags(write=False)  # shared by every caller
    return table


@cache
def _lane_masks() -> np.ndarray:
    """By byte position p in 0..26, three uint64 lanes (24 bytes) each of:
    bytes after p, a '.' at p, bytes before p; then the left and right
    shifts of each lane that put a word's bytes from p on."""
    full = (1 << 192) - 1
    rows = []
    for p in range(27):
        masks = [full & ~((1 << 8 * p + 8) - 1), ord(".") << 8 * p, (1 << 8 * p) - 1]
        lanes = [(m >> 64 * w) & ((1 << 64) - 1) for m in masks for w in range(3)]
        shifts = [8 * min(max(p - 8 * w, 0), 8) for w in range(3)]
        rows.append(lanes + shifts + [8 * min(max(8 * w - p, 0), 8) for w in range(3)])
    table = np.array(rows, np.uint64).T.copy()
    table.setflags(write=False)  # shared by every caller
    return table


def _repr_lanes(bits: np.ndarray):
    """Each finite nonzero value's repr in three little-endian uint64 lanes,
    `_PAD` after it, and its length.

    The 17 digits d0..d16 (zeros after the shortest ones) are laid out as
    sign, prefix, d0..d(dot-1), '.', the digits up to their least count,
    suffix: the digits and the digits one byte on are merged by the masks of
    the '.', the suffix is put after them, and everything moves past the
    sign and prefix."""
    digits, exp10 = _shortest(bits)
    count = np.searchsorted(_P10[1:18], digits, side="right").view(_U64) + 1
    dot, least, prefix, prefix_len, suffix, suffix_len = _repr_layouts().take(
        exp10 + count, axis=1)
    digits *= _P10[17 - count]
    quads = _quads().view("<u4")  # each group's bytes in order, as the lanes hold them
    d0 = digits // 10**16
    rest = digits - d0 * 10**16
    high = rest // 10**8
    words = []
    for eight in (high, rest - high * 10**8):  # eight digits as eight bytes
        four = eight // 10_000
        words.append(quads.take(four) | (quads.take(eight - four * 10_000).astype(_U64) << 32))
    d0 += ord("0")
    b1, b2 = words
    lanes = d0 | (b1 << 8), (b1 >> 56) | (b2 << 8), b2 >> 56
    moved = (d0 << 8) | (b1 << 16), (b1 >> 48) | (b2 << 16), b2 >> 48
    end = np.maximum(count, least)
    body = end + (dot < end)  # a '.' at or past the end is cut off
    masks = _lane_masks()
    after, points, before = np.split(masks[:9].take(dot, axis=1), 3)
    keep, into, outof = np.split(masks[6:].take(body, axis=1), 3)
    text = [((g & b) | (m & a) | d) & k | ((suffix << i) >> o) for g, m, b, a, d, k, i, o
            in zip(lanes, moved, before, after, points, keep, into, outof)]
    negative = bits >> 63
    lead = negative + prefix_len
    length = lead + body + suffix_len
    left, right = lead << 3, 64 - (lead << 3)
    pad = ~masks[6:9].take(length, axis=1)
    head = (prefix << (negative << 3)) | (negative * ord("-"))
    return ((text[0] << left) | head | pad[0],
            (text[1] << left) | (text[0] >> right) | pad[1],
            (text[2] << left) | (text[1] >> right) | pad[2]), length


def _repr_bytes(values: np.ndarray) -> np.ndarray:
    """The padded byte matrix `_text_bytes` gives for the repr of each
    float64 value, computed in numpy `_FLOATS` values at a time."""
    bits = values.astype(np.float64, copy=False).ravel().view(np.uint64)
    lanes = np.empty((bits.size, 3), "<u8")
    width = 0
    for start in range(0, bits.size, _FLOATS):
        part = bits[start:start + _FLOATS]
        magnitude = part & ((1 << 63) - 1)
        special = (magnitude == 0) | (magnitude >= _INF)
        rows = np.flatnonzero(special)
        text, length = _repr_lanes(np.where(special, _ONE, part) if rows.size else part)
        block = lanes[start:start + _FLOATS]
        for w in range(3):
            block[:, w] = text[w]
        if rows.size:
            kind = (magnitude[rows] >= _INF).astype(np.intp) + (magnitude[rows] > _INF)
            kind = 2 * kind + (part[rows] >> 63).astype(np.intp)
            block[rows, 0] = _SPECIAL_WORDS[kind]
            block[rows, 1:] = ~_U64(0)
            length[rows] = _SPECIAL_LENGTHS[kind]
        width = max(width, int(length.max()))
    return np.ascontiguousarray(lanes.view(np.uint8)[:, :width])  # rows gather without a copy


def _coded_bytes(values, codes: np.ndarray):
    """A column of one code per row into `values`, each formatted once: a
    float array by `_repr_bytes`, others with `_fmt`.  A short list is its
    own column through the codes `np.arange(len(values))`."""
    if isinstance(values, np.ndarray) and values.dtype.kind == "f":
        table = _repr_bytes(values)
    else:
        table = _text_bytes(list(map(_fmt, values)))
    return len(codes), lambda start, stop: table.take(codes[start:stop], axis=0)


def _float_bytes(*arrays: np.ndarray) -> list:
    """One column per float array, each value written as its repr, from one
    table for all of them: a subcommand's few short columns pay the
    formatter's fixed cost once."""
    table = _repr_bytes(np.concatenate(arrays))
    offsets = np.cumsum([0] + [a.size for a in arrays]).tolist()
    return [(a.size, lambda start, stop, lo=lo: table[lo + start:lo + stop])
            for a, lo in zip(arrays, offsets)]


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
    with open(path, "w", encoding="utf-8") if path is not None else nullcontext(sys.stdout) as out:
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
                out.write(block[block != _PAD].tobytes().decode("utf-8"))


def _write_json(path, payload: dict) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


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
    _write_csv(args.out, header, _source_meta(args), _float_bytes(grid, *thetas.T))
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
    _write_csv(args.out, header, meta, [kinds, *_float_bytes(*values)])
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
    curve = dict(zip(fields, _float_bytes(*(np.array([getattr(p, f) for p in points])
                                            for f in fields))))
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

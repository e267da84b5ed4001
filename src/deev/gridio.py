"""Grid specification, field containers, and serialization (CSV, 16-bit PGM).

All output is deterministic: metadata keys are sorted, floats are written
with 17 significant digits (lossless for IEEE doubles) and no timestamps are
recorded. The writers write plainly to the path they are given; the CLI
stages each file under a temporary name and renames it into place.
"""

import functools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import _EXPORTS

__all__ = list(_EXPORTS["gridio"])

_AXIS_LABELS = {"x", "y", "px", "py", "r", "s"}


def _fmt(v):
    """Format a float with 17 significant digits (round-trips exactly)."""
    return format(float(v), ".17g")


@dataclass(frozen=True)
class AxisSpec:
    label: str
    lo: float
    hi: float
    count: int

    def __post_init__(self):
        if self.label not in _AXIS_LABELS:
            raise ValueError(f"axis label must be one of {sorted(_AXIS_LABELS)}, got {self.label!r}")
        if self.count < 2:
            raise ValueError(f"axis needs at least 2 nodes, got {self.count}")
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError("axis bounds must be finite")
        if not self.lo < self.hi:
            raise ValueError(f"axis bounds must satisfy lo < hi, got [{self.lo}, {self.hi}]")

    def nodes(self):
        return np.linspace(self.lo, self.hi, self.count)


@dataclass(frozen=True)
class GridSpec:
    axis1: AxisSpec
    axis2: AxisSpec

    @property
    def shape(self):
        return (self.axis1.count, self.axis2.count)


@dataclass(frozen=True)
class Field2D:
    """Sampled real field: values[i, j] = f(axis1_node[i], axis2_node[j])."""

    spec: GridSpec
    values: np.ndarray
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.values.shape != self.spec.shape:
            raise ValueError(f"values shape {self.values.shape} does not match grid {self.spec.shape}")
        if self.metadata.get("allow_nonfinite") != "true" and not np.isfinite(self.values).all():
            raise ValueError("non-finite entries require metadata allow_nonfinite=true")


# Grid blocks for sample_field and write_pgm: each block's temporaries stay in cache.
_BLOCK_NODES = 2 ** 15


def _row_blocks(rows, cols, max_rows=None):
    """(i0, i1) row ranges of at most _BLOCK_NODES nodes (at least one row), and of max_rows."""
    step = max(1, min(_BLOCK_NODES // cols, max_rows or rows))
    return [(i, min(i + step, rows)) for i in range(0, rows, step)]


def sample_field(fn, grid, threads=None, metadata=None):
    """Sample ``fn(x1, x2)`` over the grid, in row blocks, optionally in parallel.

    ``fn`` gets a block's two axes shaped to broadcast, a column of its
    axis1 nodes and a row of the axis2 nodes, and returns anything that
    broadcasts to the block, so per-axis work is done once per axis. Blocks
    are whole rows, at most _BLOCK_NODES nodes and at least one block per
    worker, so ``fn``'s temporaries stay small whatever the grid size. Each
    value is computed independently, so the result is bit-identical for any
    thread count. The worker count defaults to, and is capped at, the CPUs
    this process may run on, and at half the row count.
    """
    n1 = grid.axis1.nodes()
    n2 = grid.axis2.nodes()
    out = np.empty(grid.shape, dtype=float)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (os.cpu_count() or 1)
    threads = max(1, min(threads or cpus, cpus, grid.axis1.count // 2))

    def fill(bounds):
        i0, i1 = bounds
        out[i0:i1, :] = fn(n1[i0:i1, None], n2[None, :])

    blocks = _row_blocks(grid.axis1.count, grid.axis2.count, -(-grid.axis1.count // threads))
    if threads == 1:
        for bounds in blocks:
            fill(bounds)
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(fill, blocks))

    return Field2D(spec=grid, values=out, metadata=dict(metadata or {}))


def _axis_token(a):
    return f"{a.label}:{_fmt(a.lo)}:{_fmt(a.hi)}:{a.count}"


# Exact block formatting of "%.17g" for write_csv (see _format_block).
_BLOCK_VALUES = 4096            # values per numpy block: bounds write_csv's working memory
_E_LO, _E_HI = -280, 280        # decimal exponents of the fast path: no split or power overflows
_SPLIT = 134217729.0            # 2**27 + 1, Veltkamp's splitter for Dekker's exact product
_NEAR_TIE = 2.0 ** -30          # closer than this to a rounding tie, the double-double is not trusted
_LITERALS = b"0123456789-.e+\0\0"  # bytes 24..39 of every value's source row


def _source(chars):
    """Source-row positions of literal characters."""
    return [24 + _LITERALS.index(c) for c in chars]


@functools.cache
def _format_tables():
    """Powers of ten and token layouts for :func:`_format_block`, built on first use.

    ``powers[:, e - _E_LO]`` is (hi, lo, hi_head, hi_tail): hi + lo is
    10**(16 - e) to about 2**-106 relative, exactly when lo == 0, and
    hi_head + hi_tail == hi are its 26-bit halves. ``layout[key]`` names, for
    each of a token's 24 bytes, the byte of the value's source row it copies,
    with key = (negative, e - _E_LO, kept digits - 1) as a flat index.
    """
    hi, lo = [], []
    for e in range(_E_LO, _E_HI + 1):
        k = 16 - e
        if k >= 0:                              # 10**k - h is an integer
            h = float(10 ** k)
            r = float(10 ** k - int(h))
        else:                                   # 1/10**j - num/den = (den - num 10**j) / (den 10**j)
            d = 10 ** -k
            h = 1 / d
            num, den = h.as_integer_ratio()
            r = (den - num * d) / (den * d)
        hi.append(h)
        lo.append(r)
    hi = np.array(hi)
    head = hi * _SPLIT
    head -= head - hi
    powers = np.stack([hi, np.array(lo), head, hi - head])

    # a source row holds significant digit i at byte 7 + i and zeros at bytes 0..6
    digits = list(range(7, 24))
    layout = np.zeros((2, len(hi), 17, 24), np.uint8)
    plain = layout[0]
    suffix = np.zeros((len(hi), 5), np.uint8)
    for i, e in enumerate(range(_E_LO, _E_HI + 1)):
        exp = _source(b"e%+03d" % e)
        suffix[i, :len(exp)] = exp
    for k in range(1, 18):                      # d.ddde+XX
        mantissa = digits[:1] + (_source(b".") + digits[1:k] if k > 1 else [])
        plain[:, k - 1, :len(mantissa)] = mantissa
        plain[:, k - 1, len(mantissa):len(mantissa) + 5] = suffix
    for e in range(-4, 17):                     # "%g" writes these exponents without one
        for k in range(1, 18):
            if e < 0:
                body = _source(b"0." + b"0" * (-e - 1)) + digits[:k]
            else:
                body = digits[:e + 1] + (_source(b".") + digits[e + 1:k] if k > e + 1 else [])
            plain[e - _E_LO, k - 1] = body + [0] * (24 - len(body))
    layout[1, ..., 0] = _source(b"-")
    layout[1, ..., 1:] = plain[..., :23]
    return powers, layout.reshape(-1, 24)


def _digits8(x):
    """Eight ASCII digits of each x < 10**8, most significant first in a little-endian word."""
    hi = x // 10000
    x = hi | ((x - hi * 10000) << 32)                         # two 4-digit lanes
    q = ((x * 5243) >> 19) & 0x0000007F0000007F               # lane // 100
    x = q | ((x - q * 100) << 16)                             # four 2-digit lanes
    q = ((x * 103) >> 10) & 0x000F000F000F000F                # lane // 10
    return (q | ((x - q * 10) << 8)) + 0x3030303030303030


def _round17(v, powers):
    """(n, row, certain): each |x| of v rounded to 17 significant digits.

    Each |x| = d 10**e (1 <= d < 10) is scaled to s = |x| 10**(16 - e) in
    double-double arithmetic, n is the integer nearest s, and row = e - _E_LO.
    The rounding is certain when e lies in the table, 10**16 <= s and
    n < 10**17, and s is more than 2**-30 from a tie (the scaling error is
    below 2**-45) or, with an exact power of ten, exactly on one, which goes
    to even as in "%". Uncertain entries hold placeholder digits.
    """
    a = np.abs(v)
    with np.errstate(divide="ignore", invalid="ignore"):
        e = np.floor(np.log10(a))
    certain = (e >= _E_LO) & (e <= _E_HI)
    a = np.where(certain, a, 1.0)
    row = np.where(certain, e - _E_LO, -_E_LO).astype(np.intp)
    hi, lo, head, tail = (p.take(row) for p in powers)
    # s = a (hi + lo) = p + t: Dekker's product a hi = p + err, exact, plus a lo
    p = a * hi
    c = a * _SPLIT
    a_head = c - (c - a)
    a_tail = a - a_head
    t = ((a_head * head - p) + a_head * tail + a_tail * head) + a_tail * tail + a * lo
    floor = np.floor(t)
    frac = t - floor
    certain &= ((lo == 0.0) | (np.abs(frac - 0.5) > _NEAR_TIE)) & ((p > 1e16) | ((p == 1e16) & (t >= 0.0)))
    n = p.astype(np.int64) + floor.astype(np.int64)
    n += (frac > 0.5) | ((frac == 0.5) & (n & 1 == 1))
    certain &= n < 10 ** 17         # else an 18th digit: log10 came out low or s rounds up to 10**17
    return n, row, certain


def _format_block(v):
    """The bytes of "%.17g" % x for every x of the float64 vector v, as an S24 array.

    Digits come from :func:`_round17` and are laid out by the layout table.
    Every value whose rounding is not certain (zeros, inf, nan, subnormal or
    extreme magnitudes, near-ties) is formatted by "%.17g" % x itself.
    """
    powers, layout = _format_tables()
    n, row, certain = _round17(v, powers)
    q, low = np.divmod(n, 10 ** 8)
    first, mid = np.divmod(q, 10 ** 8)
    src = np.empty((v.size, 5), "<i8")                        # 40 bytes: zeros, 17 digits, literals
    src[:, 0] = (first + 0x30) << 56
    src[:, 1] = _digits8(mid)
    src[:, 2] = _digits8(low)
    src[:, 3:] = np.frombuffer(_LITERALS, "<i8")
    b = src.view(np.uint8)
    kept = 17 - np.argmax(b[:, 23:6:-1] != ord("0"), axis=1)
    key = (np.signbit(v) * (_E_HI - _E_LO + 1) + row) * 17 + kept - 1
    index = layout.take(key, axis=0) + np.arange(0, b.size, 40)[:, None]
    out = b.ravel().take(index).view("S24").ravel()
    for i in np.flatnonzero(~certain):
        out[i] = b"%.17g" % v[i]
    return out


def write_csv(field, destination):
    """Write a field as CSV: one metadata line, a header, one row per node.

    Row order is row-major with axis2 fastest; coordinates and values carry
    17 significant digits so a read back is bit-exact, including inf/nan
    tokens.
    """
    a1, a2 = field.spec.axis1, field.spec.axis2
    meta = dict(field.metadata, axis1=_axis_token(a1), axis2=_axis_token(a2))
    head = "# " + " ".join(f"{k}={meta[k]}" for k in sorted(meta)) + f"\n{a1.label},{a2.label},value\n"
    # one template per file and one % per row; the row's x1 token replaces \0
    row = b"".join(b"\0,%b,%%b\n" % _fmt(x2).encode("ascii") for x2 in a2.nodes())
    x1s = a1.nodes()
    step = max(1, _BLOCK_VALUES // a2.count)

    def rows():
        yield head.encode("ascii")
        for i in range(0, a1.count, step):
            flat = np.asarray(field.values[i:i + step], dtype=np.float64).ravel()
            tokens = np.concatenate([_format_block(flat[j:j + _BLOCK_VALUES])
                                     for j in range(0, flat.size, _BLOCK_VALUES)])
            for x1, toks in zip(x1s[i:i + step], tokens.reshape(-1, a2.count)):
                yield row.replace(b"\0", _fmt(x1).encode("ascii")) % tuple(toks.tolist())

    with open(destination, "wb") as fh:
        fh.writelines(rows())


def write_pgm(field, destination, clamp="auto"):
    """Render a field as a binary 16-bit portable graymap.

    Values are affinely mapped from [-clamp, clamp] (or [min, max] of the
    finite values when clamp is "auto") onto [0, 65535]; infinities clip to
    the end levels and NaN maps to mid-gray. The mapping is recorded in a
    comment line of the header; identical inputs give identical bytes.
    """
    v = field.values
    blocks = _row_blocks(*v.shape)
    if clamp == "auto":
        vmin, vmax = math.inf, -math.inf
        for i0, i1 in blocks:
            finite = v[i0:i1][np.isfinite(v[i0:i1])]
            if finite.size:
                vmin, vmax = min(vmin, float(finite.min())), max(vmax, float(finite.max()))
        if vmin > vmax:
            vmin, vmax = -1.0, 1.0
    else:
        clamp = float(clamp)
        if not 0 < clamp < math.inf:
            raise ValueError(f"clamp must be a number with 0 < clamp < inf, got {clamp}")
        vmin, vmax = -clamp, clamp
    span = vmax - vmin
    # a span past the double range is inf, which would map every finite value to 0: map with halves
    halve = not math.isfinite(span)

    def levels(b):
        if span <= 0:
            return np.full(b.shape, 32768, dtype=">u2")
        with np.errstate(over="ignore"):    # dividing by a subnormal span overflows; +-inf clips to the end levels
            if halve:
                scaled = (b / 2 - vmin / 2) / (vmax / 2 - vmin / 2) * 65535.0
            else:
                scaled = (b - vmin) / span * 65535.0
        scaled = np.where(np.isnan(b), 32768.0, scaled)
        return np.clip(np.rint(scaled), 0, 65535).astype(">u2")

    header = (
        f"P5\n# map vmin={_fmt(vmin)} vmax={_fmt(vmax)} nan=32768\n"
        f"{field.spec.axis2.count} {field.spec.axis1.count}\n65535\n"
    )

    def chunks():
        yield header.encode("ascii")
        for i0, i1 in blocks:
            yield levels(v[i0:i1]).tobytes()

    with open(destination, "wb") as fh:
        fh.writelines(chunks())

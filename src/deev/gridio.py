"""Grid specification, field containers, and serialization (CSV, 16-bit PGM).

All output is deterministic: metadata keys are sorted, floats are written
with 17 significant digits (lossless for IEEE doubles), files are written
to a temporary name and atomically renamed, and no timestamps are recorded.
"""

import itertools
import math
import os
import tempfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

__all__ = [
    "AxisSpec",
    "GridSpec",
    "Field2D",
    "Verdict",
    "DiscrepancyReport",
    "sample_field",
    "write_csv",
    "read_csv",
    "write_pgm",
    "write_report",
    "read_verdict",
]

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

    def meshgrid(self):
        return np.meshgrid(self.axis1.nodes(), self.axis2.nodes(), indexing="ij")

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
        if np.isnan(self.values).any() and self.metadata.get("allow_nonfinite") != "true":
            raise ValueError("NaN entries require metadata allow_nonfinite=true")


def sample_field(fn, grid, threads=None, metadata=None, allow_nonfinite=False):
    """Sample ``fn(x1, x2) -> array`` over the grid, optionally row-parallel.

    Rows are assigned to workers in fixed disjoint blocks and each value is
    computed independently, so the result is bit-identical for any thread
    count. The worker count defaults to, and is capped at, the CPUs this
    process may run on, and at half the row count.
    """
    n1 = grid.axis1.nodes()
    n2 = grid.axis2.nodes()
    out = np.empty(grid.shape, dtype=float)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (os.cpu_count() or 1)
    threads = max(1, min(threads or cpus, cpus, grid.axis1.count // 2))

    def fill(i0, i1):
        x1, x2 = np.meshgrid(n1[i0:i1], n2, indexing="ij")
        out[i0:i1, :] = fn(x1, x2)

    if threads == 1:
        fill(0, grid.axis1.count)
    else:
        step = -(-grid.axis1.count // threads)
        bounds = [(i, min(i + step, grid.axis1.count)) for i in range(0, grid.axis1.count, step)]
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(lambda b: fill(*b), bounds))

    meta = dict(metadata or {})
    if allow_nonfinite:
        meta["allow_nonfinite"] = "true"
    elif not np.isfinite(out).all():
        raise ValueError("non-finite samples in a field that does not allow them")
    return Field2D(spec=grid, values=out, metadata=meta)


def _atomic_write(path, chunks):
    """Write an iterable of byte chunks to a temp file, then rename it to path."""
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix=os.path.basename(path))
    try:
        with os.fdopen(fd, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _axis_token(a):
    return f"{a.label}:{_fmt(a.lo)}:{_fmt(a.hi)}:{a.count}"


def _parse_axis_token(tok):
    label, lo, hi, count = tok.split(":")
    return AxisSpec(label=label, lo=float(lo), hi=float(hi), count=int(count))


def write_csv(field, destination):
    """Write a field as CSV: one metadata line, a header, one row per node.

    Row order is row-major with axis2 fastest; coordinates and values carry
    17 significant digits so a read back is bit-exact, including inf/nan
    tokens.
    """
    a1, a2 = field.spec.axis1, field.spec.axis2
    meta = dict(field.metadata, axis1=_axis_token(a1), axis2=_axis_token(a2))
    head = "# " + " ".join(f"{k}={meta[k]}" for k in sorted(meta)) + f"\n{a1.label},{a2.label},value\n"
    # one template per file and one % per row ("%.17g" % x == _fmt(x)); the row's x1 token replaces \0
    row = "".join(f"\0,{_fmt(x2)},%.17g\n" for x2 in a2.nodes())
    rows = ((row.replace("\0", _fmt(x1)) % tuple(v.tolist())).encode("ascii")
            for x1, v in zip(a1.nodes(), field.values))
    _atomic_write(destination, itertools.chain([head.encode("ascii")], rows))


def read_csv(source):
    """Read a field written by :func:`write_csv` (bit-exact round trip)."""
    with open(source, "rb") as fh:
        text = fh.read().decode("ascii")
    lines = text.splitlines()
    if not lines or not lines[0].startswith("# "):
        raise ValueError(f"{source}: missing metadata line")
    meta = {}
    for pair in lines[0][2:].split(" "):
        k, _, val = pair.partition("=")
        meta[k] = val
    spec = GridSpec(axis1=_parse_axis_token(meta.pop("axis1")), axis2=_parse_axis_token(meta.pop("axis2")))
    rows = lines[2:]
    if len(rows) != spec.axis1.count * spec.axis2.count:
        raise ValueError(f"{source}: expected {spec.axis1.count * spec.axis2.count} rows, got {len(rows)}")
    vals = np.array([float(r.rsplit(",", 1)[1]) for r in rows], dtype=float)
    return Field2D(spec=spec, values=vals.reshape(spec.shape), metadata=meta)


def write_pgm(field, destination, clamp="auto"):
    """Render a field as a binary 16-bit portable graymap.

    Values are affinely mapped from [-clamp, clamp] (or [min, max] of the
    finite values when clamp is "auto") onto [0, 65535]; infinities clip to
    the end levels and NaN maps to mid-gray. The mapping is recorded in a
    comment line of the header; identical inputs give identical bytes.
    """
    v = field.values
    finite = v[np.isfinite(v)]
    if clamp == "auto":
        if finite.size == 0:
            vmin, vmax = -1.0, 1.0
        else:
            vmin, vmax = float(finite.min()), float(finite.max())
    else:
        clamp = float(clamp)
        if not clamp > 0:
            raise ValueError(f"clamp must be > 0, got {clamp}")
        vmin, vmax = -clamp, clamp
    span = vmax - vmin
    if span <= 0:
        levels = np.full(v.shape, 32768, dtype=np.uint16)
    else:
        scaled = (v - vmin) / span * 65535.0
        scaled = np.where(np.isnan(v), 32768.0, scaled)
        levels = np.clip(np.rint(scaled), 0, 65535).astype(np.uint16)
    header = (
        f"P5\n# map vmin={_fmt(vmin)} vmax={_fmt(vmax)} nan=32768\n"
        f"{field.spec.axis2.count} {field.spec.axis1.count}\n65535\n"
    )
    _atomic_write(destination, [header.encode("ascii") + levels.astype(">u2").tobytes()])


class Verdict(str, Enum):
    MATCH = "match"
    CONSTANT_ONLY = "constant-only-mismatch"
    SHAPE = "shape-mismatch"


@dataclass(frozen=True)
class DiscrepancyReport:
    """Adjudication record of a closed-form candidate against the oracle."""

    label: str
    probes: tuple            # phase-space points (x, y, px, py)
    closed_form: tuple       # candidate value (nominal constant) per probe
    oracle: tuple            # oracle value per probe
    ratios: tuple            # oracle / shape (constant-free candidate)
    nominal_constant: float
    calibrated_constant: float
    verdict: Verdict
    stable_under_halving: bool = None
    notes: tuple = ()

    @property
    def max_relative_deviation(self):
        if not self.ratios or self.calibrated_constant == 0:
            return math.inf
        return max(abs(r / self.calibrated_constant - 1.0) for r in self.ratios)


def write_report(report, destination):
    """Write a discrepancy report as line-oriented key=value text.

    Narrative lines are '#'-prefixed; the machine-readable verdict is the
    final line.
    """
    lines = [
        f"# discrepancy report: {report.label}",
        "# columns: probe index, x, y, px, py, closed_form, oracle, ratio",
    ]
    for note in report.notes:
        lines.append(f"# {note}")
    for i, (pt, cf, ov, ra) in enumerate(
        zip(report.probes, report.closed_form, report.oracle, report.ratios)
    ):
        coords = ":".join(_fmt(c) for c in pt)
        lines.append(f"probe{i}={coords}:{_fmt(cf)}:{_fmt(ov)}:{_fmt(ra)}")
    lines.append(f"nominal_constant={_fmt(report.nominal_constant)}")
    lines.append(f"calibrated_constant={_fmt(report.calibrated_constant)}")
    dev = report.max_relative_deviation
    lines.append(f"max_relative_deviation={_fmt(dev) if math.isfinite(dev) else 'inf'}")
    if report.stable_under_halving is not None:
        lines.append(f"stable_under_halving={'true' if report.stable_under_halving else 'false'}")
    lines.append(f"verdict={report.verdict.value}")
    _atomic_write(destination, [("\n".join(lines) + "\n").encode("ascii")])


def read_verdict(source):
    """Return the Verdict recorded on the final line of a report file."""
    with open(source, "rb") as fh:
        lines = fh.read().decode("ascii").strip().splitlines()
    last = lines[-1]
    if not last.startswith("verdict="):
        raise ValueError(f"{source}: missing final verdict line")
    return Verdict(last.split("=", 1)[1])

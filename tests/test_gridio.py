import math
import os
import subprocess
import sys
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from deev import gridio
from deev.gridio import AxisSpec, Field2D, GridSpec, sample_field, write_csv, write_pgm
from deev.state import DeevParams, intensity_field, psi
from deev.verify import CalibrationResult, DiscrepancyReport, Verdict, write_report
from deev.wigner import CLOSED_FORMS, FORMS, PLANES, sit_field, wigner_slice

from csvio import read_csv
from sitref import sit


def grid(c1=4, c2=3):
    return GridSpec(axis1=AxisSpec("x", -1.0, 2.0, c1), axis2=AxisSpec("y", 0.0, 1.0, c2))


def test_axis_validation():
    with pytest.raises(ValueError):
        AxisSpec("q", 0.0, 1.0, 5)
    with pytest.raises(ValueError):
        AxisSpec("x", 0.0, 1.0, 1)
    with pytest.raises(ValueError):
        AxisSpec("x", 2.0, 1.0, 5)
    with pytest.raises(ValueError):
        AxisSpec("x", 0.0, math.inf, 5)
    with pytest.raises(ValueError, match="axis span hi - lo must be finite"):
        AxisSpec("x", -1e308, 1e308, 5)


def test_field_shape_validation():
    with pytest.raises(ValueError):
        Field2D(spec=grid(), values=np.zeros((3, 3)))


def test_field_leaves_finiteness_to_its_sampler(tmp_path):
    # no metadata switch: a field may hold any double, and both writers render it
    vals = np.array([[math.inf, 0.0, -math.inf], [math.nan, -1.0, 1.0]])
    g2 = GridSpec(axis1=AxisSpec("x", 0.0, 1.0, 2), axis2=AxisSpec("y", 0.0, 1.0, 3))
    f = Field2D(spec=g2, values=vals)
    write_csv(f, str(tmp_path / "f.csv"))
    assert [line.rsplit(",", 1)[1] for line in (tmp_path / "f.csv").read_text().splitlines()[2:]] == \
        ["inf", "0", "-inf", "nan", "-1", "1"]
    write_pgm(f, str(tmp_path / "f.pgm"))
    assert _pgm_levels(tmp_path / "f.pgm").tolist() == [65535, 32768, 0, 32768, 0, 65535]


def test_csv_round_trip_bitwise(tmp_path):
    rng = np.random.default_rng(0)
    f = Field2D(spec=grid(), values=rng.normal(size=(4, 3)) * 1e-7, metadata={"quantity": "test"})
    path = tmp_path / "f.csv"
    write_csv(f, str(path))
    g = read_csv(str(path))
    assert g.spec == f.spec
    assert (g.values == f.values).all()
    assert g.metadata["quantity"] == "test"
    # writing again is byte-identical
    path2 = tmp_path / "f2.csv"
    write_csv(g, str(path2))
    assert path.read_bytes() == path2.read_bytes()


def test_csv_two_by_two_has_four_rows(tmp_path):
    g2 = GridSpec(axis1=AxisSpec("x", 0.0, 1.0, 2), axis2=AxisSpec("y", 0.0, 1.0, 2))
    f = Field2D(spec=g2, values=np.ones((2, 2)))
    path = tmp_path / "unit.csv"
    write_csv(f, str(path))
    lines = path.read_text().splitlines()
    assert len(lines) == 2 + 4
    assert lines[1] == "x,y,value"


def test_csv_nonfinite_tokens(tmp_path):
    vals = np.array([[1.5, math.inf], [-math.inf, math.nan]])
    g2 = GridSpec(axis1=AxisSpec("r", 0.0, 1.0, 2), axis2=AxisSpec("s", 0.0, 1.0, 2))
    f = Field2D(spec=g2, values=vals, metadata={"allow_nonfinite": "true"})
    path = tmp_path / "inf.csv"
    write_csv(f, str(path))
    text = path.read_text()
    assert "inf" in text and "-inf" in text and "nan" in text
    g = read_csv(str(path))
    assert g.values[0, 1] == math.inf
    assert g.values[1, 0] == -math.inf
    assert math.isnan(g.values[1, 1])
    assert g.values[0, 0] == 1.5


def test_pgm_deterministic_and_uniform(tmp_path):
    f = Field2D(spec=grid(), values=np.full((4, 3), 2.5))
    p1, p2 = tmp_path / "a.pgm", tmp_path / "b.pgm"
    write_pgm(f, str(p1), clamp="auto")
    write_pgm(f, str(p2), clamp="auto")
    b1 = p1.read_bytes()
    assert b1 == p2.read_bytes()
    assert b1.startswith(b"P5\n")
    # constant field renders uniform mid-gray
    body = b1.rsplit(b"65535\n", 1)[1]
    levels = np.frombuffer(body, dtype=">u2")
    assert (levels == 32768).all()


# dividing by the smallest subnormal clamp's span overflows to +-inf (once a numpy warning)
@pytest.mark.parametrize("clamp, header", [(1.0, b"# map vmin=-1 vmax=1 "),
                                           (5e-324, b"# map vmin=-4.9406564584124654e-324 "
                                                    b"vmax=4.9406564584124654e-324 ")],
                         ids=["clamp-1", "clamp-5e-324"])
def test_pgm_mapping_and_clipping(tmp_path, clamp, header):
    vals = np.array([[-2.0, 0.0, math.nan], [clamp, 5.0, -clamp]])
    g2 = GridSpec(axis1=AxisSpec("x", 0.0, 1.0, 2), axis2=AxisSpec("y", 0.0, 1.0, 3))
    f = Field2D(spec=g2, values=vals)
    path = tmp_path / "c.pgm"
    write_pgm(f, str(path), clamp=clamp)
    data = path.read_bytes()
    assert header in data
    levels = np.frombuffer(data.rsplit(b"65535\n", 1)[1], dtype=">u2").reshape(2, 3)
    assert levels[0, 0] == 0          # below -clamp
    assert levels[0, 1] == 32768      # zero -> middle
    assert levels[0, 2] == 32768      # NaN -> middle
    assert levels[1, 0] == 65535      # at +clamp
    assert levels[1, 1] == 65535      # above +clamp clips
    assert levels[1, 2] == 0          # at -clamp
    with pytest.raises(ValueError):
        write_pgm(f, str(path), clamp=-1.0)


def _pgm_levels(path):
    return np.frombuffer(path.read_bytes().rsplit(b"65535\n", 1)[1], dtype=">u2")


def test_pgm_maps_a_span_past_the_double_range(tmp_path):
    # vmax - vmin overflowed to inf, and every finite value mapped to level 0
    f = intensity_field(DeevParams.tied(1, 1.0, 1.0), grid(5, 5))
    path = tmp_path / "f.pgm"
    write_pgm(f, str(path), clamp=1e308)
    assert (_pgm_levels(path) >= 32768).all()
    g2 = GridSpec(axis1=AxisSpec("x", 0.0, 1.0, 2), axis2=AxisSpec("y", 0.0, 1.0, 3))
    write_pgm(Field2D(spec=g2, values=np.array([[-1e308, 0.0, 1e308], [0.0, 0.0, 0.0]])), str(path))
    assert _pgm_levels(path)[:3].tolist() == [0, 32768, 65535]


@pytest.mark.parametrize("clamp, header", [
    # vmax - vmin is the largest double: mapped as it is
    (sys.float_info.max / 2, b"# map vmin=-8.9884656743115785e+307 vmax=8.9884656743115785e+307 nan=32768\n"),
    # vmax - vmin is inf: the ends and each value are prescaled by 1/2
    (math.nextafter(sys.float_info.max / 2, math.inf),
     b"# map vmin=-8.9884656743115795e+307 vmax=8.9884656743115795e+307 nan=32768\n"),
], ids=["span-max", "span-inf"])
def test_pgm_prescale_boundary(tmp_path, clamp, header):
    g2 = GridSpec(axis1=AxisSpec("x", 0.0, 1.0, 2), axis2=AxisSpec("y", 0.0, 1.0, 3))
    path = tmp_path / "f.pgm"
    write_pgm(Field2D(spec=g2, values=np.array([[-clamp, 0.0, clamp], [clamp, 0.0, -clamp]])), str(path), clamp=clamp)
    assert path.read_bytes().split(b"\n", 1)[1].startswith(header)
    assert _pgm_levels(path).tolist() == [0, 32768, 65535, 65535, 32768, 0]


def test_pgm_rejects_infinite_clamp(tmp_path):
    f = Field2D(spec=GridSpec(axis1=AxisSpec("x", 0.0, 1.0, 5), axis2=AxisSpec("y", 0.0, 1.0, 5)),
                values=np.zeros((5, 5)))
    path = tmp_path / "f.pgm"
    with pytest.raises(ValueError, match="clamp"):
        write_pgm(f, str(path), clamp=math.inf)
    assert not path.exists()


def test_sample_field_thread_determinism():
    def fn(x, y):
        return np.sin(3 * x) * np.cos(2 * y) + x * y

    g = GridSpec(axis1=AxisSpec("x", -2.0, 2.0, 64), axis2=AxisSpec("y", -1.0, 1.0, 33))
    a = sample_field(fn, g, threads=1)
    b = sample_field(fn, g, threads=5)
    assert (a.values == b.values).all()


def test_sample_field_caps_threads_at_available_cpus(monkeypatch):
    started = []

    class RecordingPool(ThreadPoolExecutor):
        def __init__(self, max_workers):
            started.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(gridio, "ThreadPoolExecutor", RecordingPool)
    monkeypatch.setattr(gridio.os, "sched_getaffinity", lambda pid: {0, 1})
    g = GridSpec(axis1=AxisSpec("x", -2.0, 2.0, 64), axis2=AxisSpec("y", -1.0, 1.0, 33))
    fn = lambda x, y: np.sin(3 * x) * np.cos(2 * y)  # noqa: E731
    huge = sample_field(fn, g, threads=10 ** 6)
    default = sample_field(fn, g)
    assert started == [2, 2]
    assert (huge.values == sample_field(fn, g, threads=1).values).all()
    assert (default.values == huge.values).all()
    # threads=1 above, and fewer than two rows per worker here: one worker, on a pool like every other count
    sample_field(fn, GridSpec(axis1=AxisSpec("x", 0.0, 1.0, 3), axis2=g.axis2), threads=10 ** 6)
    assert started == [2, 2, 1, 1]


@pytest.mark.parametrize("threads", [1, 2])
def test_a_raising_block_stops_the_pass(monkeypatch, threads):
    # one row per block, 64 blocks: the first raises, and the queued blocks are cancelled before the last runs
    monkeypatch.setattr(gridio, "_BLOCK_NODES", 8)
    g = GridSpec(axis1=AxisSpec("x", 0.0, 63.0, 64), axis2=AxisSpec("y", 0.0, 1.0, 8))
    rows = []

    def fn(x, y):
        rows.append(int(x[0, 0]))
        if x[0, 0] == 0.0:
            raise ZeroDivisionError("first block")
        time.sleep(0.005)
        return x + y

    with pytest.raises(ZeroDivisionError, match="first block"):
        sample_field(fn, g, threads=threads)
    assert 0 in rows and 63 not in rows


def _blocked_samples(make):
    """make(threads) at 1 thread, 2 threads and the default: all bit-identical, returned once."""
    runs = [make(threads) for threads in (1, 2, None)]
    assert runs[0].tobytes() == runs[1].tobytes() == runs[2].tobytes()
    return runs[0]


@pytest.mark.parametrize("c1, c2", [(23, 7), (9, 41), (31, 4)])
def test_sampling_is_block_invariant(monkeypatch, c1, c2):
    # 30 nodes a block: rows do not divide evenly, and a 41-node row is its own block
    monkeypatch.setattr(gridio, "_BLOCK_NODES", 30)
    params = DeevParams.tied(3, 1.7, 0.6, x0=0.3, y0=-0.2, px0=0.4, py0=-0.1)

    def mesh(g):
        return np.meshgrid(g.axis1.nodes(), g.axis2.nodes(), indexing="ij")

    g = GridSpec(AxisSpec("x", -4.0, 4.5, c1), AxisSpec("y", -2.0, 1.5, c2))
    got = _blocked_samples(lambda t: intensity_field(params, g, threads=t).values)
    p = psi(params, *mesh(g))
    assert got.tobytes() == (p.real ** 2 + p.imag ** 2).tobytes()

    for labels in (PLANES["xy"], PLANES["xpy"]):
        g = GridSpec(AxisSpec(labels[0], -4.0, 4.5, c1), AxisSpec(labels[1], -3.0, 2.5, c2))
        for form in FORMS:
            got = _blocked_samples(lambda t: wigner_slice(params, g, form=form, threads=t).values)
            a1, a2 = mesh(g)
            coords = {"x": params.x0, "y": params.y0, "px": params.px0, "py": params.py0,
                      labels[0]: a1, labels[1]: a2}
            ref = CLOSED_FORMS[form].evaluate(params, coords["x"], coords["y"], coords["px"], coords["py"])
            assert got.tobytes() == ref.tobytes()

    g = GridSpec(AxisSpec("r", -2.0, 2.0, c1 | 1), AxisSpec("s", -1.5, 1.5, c2 | 1))
    got = _blocked_samples(lambda t: sit_field(4, 1.7, 0.6, g, threads=t).values)
    assert np.isnan(got[c1 // 2, c2 // 2])          # the undefined origin
    assert got.tobytes() == sit(4, 1.7, 0.6, *mesh(g)).tobytes()


def test_sampling_and_pgm_memory_stay_bounded(tmp_path):
    params = DeevParams.tied(3, 1.3, 0.8)
    g = GridSpec(AxisSpec("x", -5.0, 5.0, 1001), AxisSpec("y", -5.0, 5.0, 1001))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        f = intensity_field(params, g, threads=2)
        sampling = tracemalloc.get_traced_memory()[1] - base - f.values.nbytes
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        write_pgm(f, str(tmp_path / "f.pgm"))
        rendering = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    # whole-grid temporaries would take about 85 MiB and 31 MiB
    assert sampling <= 12 * 2 ** 20
    assert rendering <= 6 * 2 ** 20


def _reference_pgm_bytes(f, clamp):
    """The whole-array renderer that write_pgm replaced, kept as the byte reference."""
    v = f.values
    finite = v[np.isfinite(v)]
    if clamp == "auto":
        vmin, vmax = (-1.0, 1.0) if finite.size == 0 else (float(finite.min()), float(finite.max()))
    else:
        vmin, vmax = -float(clamp), float(clamp)
    span = vmax - vmin
    if span <= 0:
        levels = np.full(v.shape, 32768, dtype=np.uint16)
    else:
        scaled = (v - vmin) / span * 65535.0
        scaled = np.where(np.isnan(v), 32768.0, scaled)
        levels = np.clip(np.rint(scaled), 0, 65535).astype(np.uint16)
    header = (f"P5\n# map vmin={gridio._fmt(vmin)} vmax={gridio._fmt(vmax)} nan=32768\n"
              f"{f.spec.axis2.count} {f.spec.axis1.count}\n65535\n")
    return header.encode("ascii") + levels.astype(">u2").tobytes()


def _pgm_cases():
    rng = np.random.default_rng(9)
    spread = rng.normal(size=(9, 5))
    spread[1, 3], spread[7, 0] = -40.0, 25.0        # min and max in different blocks
    holes = rng.normal(size=(9, 5)) * 1e-3
    holes[2], holes[4], holes[6] = math.nan, math.inf, -math.inf
    return {
        "spread": spread,
        "holes": holes,
        "all-nonfinite": np.resize([math.nan, math.inf, -math.inf], (9, 5)),
        "constant": np.full((9, 5), -0.25),
        "one-finite": np.where(np.arange(45).reshape(9, 5) == 31, 3.0, math.nan),
    }


@pytest.mark.parametrize("name", list(_pgm_cases()))
@pytest.mark.parametrize("clamp", ["auto", 0.5, 100.0])
def test_pgm_bytes_match_whole_array_reference(tmp_path, monkeypatch, name, clamp):
    monkeypatch.setattr(gridio, "_BLOCK_NODES", 7)   # one 5-node row per block
    f = Field2D(spec=GridSpec(AxisSpec("x", 0.0, 1.0, 9), AxisSpec("y", 0.0, 1.0, 5)),
                values=_pgm_cases()[name])
    path = tmp_path / "f.pgm"
    write_pgm(f, str(path), clamp=clamp)
    assert path.read_bytes() == _reference_pgm_bytes(f, clamp)


def _reference_csv_bytes(f):
    """The per-value writer that write_csv replaced, kept as the byte reference."""
    meta = dict(f.metadata)
    meta["axis1"] = gridio._axis_token(f.spec.axis1)
    meta["axis2"] = gridio._axis_token(f.spec.axis2)
    lines = ["# " + " ".join(f"{k}={meta[k]}" for k in sorted(meta))]
    lines.append(f"{f.spec.axis1.label},{f.spec.axis2.label},value")
    n1, n2 = f.spec.axis1.nodes(), f.spec.axis2.nodes()
    for i in range(f.spec.axis1.count):
        for j in range(f.spec.axis2.count):
            lines.append(f"{format(float(n1[i]), '.17g')},{format(float(n2[j]), '.17g')},"
                         f"{format(float(f.values[i, j]), '.17g')}")
    return ("\n".join(lines) + "\n").encode("ascii")


_SPECIAL = [math.inf, -math.inf, math.nan, -0.0, 5e-324, 1.7976931348623157e308, -math.nan, 0.1]


@pytest.mark.parametrize("shape", [(2, 2), (2, 7), (7, 2)])
def test_csv_bytes_match_per_value_reference(tmp_path, shape):
    vals = np.resize(np.array(_SPECIAL), shape[0] * shape[1]).reshape(shape)
    g = GridSpec(axis1=AxisSpec("px", -3.5, 1e-300, shape[0]), axis2=AxisSpec("s", -1e300, 2.0 / 3.0, shape[1]))
    f = Field2D(spec=g, values=vals, metadata={"allow_nonfinite": "true", "quantity": "sit", "m": "3",
                                                  "zeta": "1.25"})
    path = tmp_path / "f.csv"
    write_csv(f, str(path))
    assert path.read_bytes() == _reference_csv_bytes(f)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 9).flatmap(lambda n1: st.integers(2, 9).flatmap(lambda n2: arrays(
    np.float64, (n1, n2), elements=st.floats(allow_nan=False, allow_infinity=False))),
), st.floats(-1e6, 1e6), st.floats(1e-6, 1e6))
def test_csv_bytes_match_reference_property(tmp_path_factory, vals, lo, width):
    g = GridSpec(axis1=AxisSpec("x", lo, lo + width, vals.shape[0]), axis2=AxisSpec("y", lo - width, lo, vals.shape[1]))
    f = Field2D(spec=g, values=vals, metadata={"quantity": "test"})
    path = tmp_path_factory.mktemp("prop") / "f.csv"
    write_csv(f, str(path))
    assert path.read_bytes() == _reference_csv_bytes(f)


def _block_format(values):
    """write_csv's value tokens for a vector, formatted one block at a time as write_csv does."""
    step = gridio._BLOCK_VALUES
    return np.concatenate([gridio._format_block(values[i:i + step]) for i in range(0, values.size, step)])


def _exact_ties(rng, per_exponent):
    """Doubles whose exact decimal value has 18 significant digits, the last a 5.

    x = m / 2**(k + 1) with m odd and 10**(16 - k) <= x < 10**(17 - k) gives
    x 10**k = m 5**k / 2, an odd half-integer: a tie at 17 digits (k = 1..24).
    """
    ties = []
    for k in range(1, 25):
        lo = max(1, -(-(2 ** (k + 1) * 10 ** 16) // 10 ** k))
        hi = min(2 ** 53, 2 ** (k + 1) * 10 ** 17 // 10 ** k)
        if lo < hi:
            m = rng.integers(lo, hi, size=per_exponent, dtype=np.int64) | 1
            ties.append(m[m < hi] / 2.0 ** (k + 1))
    return np.concatenate(ties)


def _near_ties(rng, per_exponent):
    """Doubles a few 2**-53 from a 17-digit tie, where 10**k is inexact (k = 23..30).

    x = m / 2**(53 + k) gives s = x 10**k = m 5**k / 2**53, and
    m = (2**52 + d) / 5**k mod 2**53 puts s exactly d / 2**53 from a tie:
    closer than the scaling error, so only the tie guard keeps these right.
    """
    ties = []
    for k in range(23, 31):
        inverse = pow(5 ** k, -1, 2 ** 53)
        for d in rng.integers(1, 2 ** 8, size=per_exponent) * rng.choice([-1, 1], size=per_exponent):
            m = (2 ** 52 + int(d)) * inverse % 2 ** 53
            if 10 ** 16 * 2 ** 53 <= m * 5 ** k < 10 ** 17 * 2 ** 53:
                ties.append(m / 2.0 ** (53 + k))
    return np.array(ties)


def test_block_formatter_matches_percent_on_a_million_values():
    rng = np.random.default_rng(20261018)
    tens = np.array([float(f"1e{k}") for k in range(-323, 309)])
    values = np.concatenate([
        rng.integers(0, 2 ** 64, size=240_000, dtype=np.uint64).view(np.float64),    # random bits
        rng.uniform(1.0, 10.0, 200_000) * 10.0 ** rng.integers(-320, 308, 200_000),   # to 9.99e307
        tens, np.nextafter(tens, math.inf), np.nextafter(tens, -math.inf), -tens,
        _exact_ties(rng, 2000), _near_ties(rng, 500),
        rng.integers(1, 2 ** 52, size=20_000, dtype=np.uint64).view(np.float64),    # subnormals
        np.array([0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 1.0, 1e16, 1e17,
                  99999999999999999.0, 0.1, 1e-4, 1e-5, 2.2250738585072014e-308,
                  1.7976931348623157e308, 5e-324]),
    ])
    values = np.concatenate([values, -values])
    assert values.size >= 10 ** 6
    expected = np.array([b"%.17g" % x for x in values.tolist()], dtype="S24")
    got = _block_format(values)
    bad = np.flatnonzero(got != expected)
    assert bad.size == 0, [(values[i], got[i], expected[i]) for i in bad[:5]]


def test_block_formatter_falls_back_inside_a_block():
    rng = np.random.default_rng(7)
    values = rng.normal(size=gridio._BLOCK_VALUES) * 10.0 ** rng.integers(-30, 30, gridio._BLOCK_VALUES)
    # zeros, non-finite, subnormal, beyond the fast exponents, and a tie the scaling cannot decide
    odd = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1e-300, -3e295, 3 * 2.0 ** -24]
    at = rng.choice(values.size, size=len(odd), replace=False)
    values[at] = odd
    got = gridio._format_block(values)
    assert got.tolist() == [b"%.17g" % x for x in values.tolist()]
    assert got[at].tolist() == [b"0", b"-0", b"nan", b"inf", b"-inf", b"4.9406564584124654e-324",
                                b"1e-300", b"-2.9999999999999999e+295",
                                b"1.7881393432617188e-07"]


def test_block_formatter_stays_exact_when_log10_comes_out_low(monkeypatch):
    # one ulp low at exact powers of ten: the scaled value reaches 10**17 and must fall back
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda a: np.nextafter(log10(a), -math.inf))
    values = np.array([1.0, 10.0, 1e5, 1e-3, -1e22, 0.3, 123.456])
    assert gridio._format_block(values).tolist() == [b"%.17g" % x for x in values.tolist()]


def test_import_builds_no_format_tables():
    src = os.path.dirname(os.path.dirname(gridio.__file__))
    code = ("import deev; from deev import gridio; import numpy as np\n"
            "print(gridio._format_tables.cache_info().currsize)\n"
            "gridio._format_block(np.array([0.5]))\n"
            "print(gridio._format_tables.cache_info().currsize)")
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, check=True).stdout
    assert out.split() == ["0", "1"]


def report_fixture(verdict):
    return DiscrepancyReport(
        label="fixture",
        calibration=CalibrationResult(constant=1.1, probes=((0.1, 0.2, 0.3, 0.4), (0.5, 0.6, 0.7, 0.8)),
                                      shape_values=(1.0, 2.0), oracle_values=(1.1, 2.2), bounds=(0.0, 0.0),
                                      ratios=(1.1, 1.1)),
        nominal_constant=1.0,
        verdict=verdict,
        stable_under_halving=True,
    )


def test_report_round_trip(tmp_path):
    for verdict in Verdict:
        path = tmp_path / f"{verdict.name}.txt"
        write_report(report_fixture(verdict), str(path))
        lines = path.read_text().splitlines()
        assert lines[-1] == f"verdict={verdict.value}"
        assert Verdict(lines[-1].split("=", 1)[1]) is verdict
        assert any(l.startswith("probe0=") for l in lines)
        assert any(l.startswith("calibrated_constant=") for l in lines)


def test_writes_fail_cleanly_on_missing_directory(tmp_path):
    f = Field2D(spec=grid(), values=np.zeros((4, 3)))
    missing = str(tmp_path / "nope" / "f.csv")
    with pytest.raises(OSError):
        write_csv(f, missing)
    with pytest.raises(OSError):
        write_pgm(f, missing, clamp="auto")

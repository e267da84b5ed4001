"""Every input the CLI accepts ends in an answer or a named exit 2.

Each command runs in process through ``cli.main`` on configs drawn by
hypothesis (derandomized, so every run draws the same inputs). A run must end
one of two ways:

* exit 0 with finite output (the SIT keeps its documented +-inf and NaN),
  every written file printed and nothing printed that was not written, or
  a unitary coupler that meets a requested ratio;
* exit 2 with ``error: <block.key>: ...`` on stderr, nothing on stdout and
  no ``--out`` directory; the message is the library's own, not a bare
  errno pair such as ``(34, 'Numerical result out of range')`` or the math
  module's ``math domain error``.

A traceback or a numpy warning fails the test, and so does exit 1, except
for ``verify``'s documented minima-count failure. The pinned examples are
inputs that once broke this.
"""

import io
import json
import os
import re
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import HealthCheck, currently_in_test_context, event, example, given, settings
from hypothesis import strategies as st

from deev import cli
from deev.wigner import PLANES

from csvio import read_csv

SWEEP = settings(derandomize=True, deadline=None, database=None,
                 suppress_health_check=[HealthCheck.too_slow])
_KEY = re.compile(r"error: (--clamp|[a-z_]+)([.][a-z_0-9]+)*(/[a-z_.0-9]+)?: \S")
# errno pairs and the math module's messages name no cause
_BARE = re.compile(r": \(\d+, '|math (domain|range) error")
# the blocks a config names, and the oracle's convergence failure
_ROOTS = set(cli._SCHEMA) | {"--clamp", "oracle"}
_REPORTS = ("discrepancy_standard.txt", "discrepancy_candidate.txt")
_MUST_PASS = ["PASS normalization", "PASS marginal", "PASS oracle-equivalence", "PASS symmetry", "PASS adjudication"]


def check_run(command, cfg, *flags):
    """Run one command in a fresh directory, assert that it ends in an answer or a named exit 2, return the code."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "c.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
        out = os.path.join(tmp, "out")
        stdout, stderr = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(), redirect_stdout(stdout), redirect_stderr(stderr):
            warnings.simplefilter("error")
            rc = cli.main([command, "--config", path, *([] if command == "coupler" else ["--out", out]), *flags])
        printed, err = stdout.getvalue().splitlines(), stderr.getvalue()
        if currently_in_test_context():     # --hypothesis-show-statistics
            event(f"exit {rc} {err.split(':')[1] if rc == 2 else ''}")
        if rc == 2:
            named = _KEY.match(err)
            assert named and named.group(1) in _ROOTS, err
            assert not _BARE.search(err), err
            assert printed == [] and not os.path.exists(out), (err, printed)
            return rc
        assert err == ""
        if command == "verify":
            _check_verify(rc, printed, out)
            return rc
        if command == "coupler":
            _check_coupler(rc, printed, cfg["coupler"])
            return rc
        assert rc == 0
        assert set(printed) == {os.path.join(out, name) for name in os.listdir(out)}
        for p in printed:
            if p.endswith(".csv") and command != "sit":
                assert np.isfinite(read_csv(p).values).all(), p
        return rc


def _check_verify(rc, printed, out):
    # every suite passes but minima-count, which runs at m >= 1 and may fail
    suites = [line.split(":")[0] for line in printed if line.startswith(("PASS ", "FAIL "))]
    assert suites[:5] == _MUST_PASS, printed
    assert suites[5:] in ([], ["PASS minima-count"], ["FAIL minima-count"]), printed
    assert rc == (1 if "FAIL minima-count" in suites else 0)
    assert printed[-2:] == [os.path.join(out, name) for name in _REPORTS]
    for name in _REPORTS:
        with open(os.path.join(out, name), encoding="ascii") as fh:
            lines = [ln for ln in fh.read().splitlines() if not ln.startswith("#")]
        for line in lines[:-2]:     # the probes, constants and deviation; not the two flags
            value = line.partition("=")[2]
            assert np.isfinite([float(v) for v in value.split(":")]).all(), (name, line)


def _check_coupler(rc, printed, coupler):
    # the last line prints (|a1|, |a2|)
    assert rc == 0 and printed[-1].startswith("ellipticity (eta_x, eta_y) = ("), printed
    a1, a2 = (float(v) for v in printed[-1].split(" = ")[1].strip("()").split(", "))
    assert abs(a1 ** 2 + a2 ** 2 - 1.0) <= 1e-12, printed
    if "ratio" in coupler:
        assert a2 > 0 and abs(a1 / a2 / coupler["ratio"] - 1.0) <= 1e-9, printed


# each range is drawn whole, and also near its usual values, so that many runs reach an answer;
# the widths' exponents reach across the double range
widths = st.one_of(st.floats(-0.5, 0.5), st.floats(-4.0, 4.0),
                   st.floats(-200.0, 200.0)).map(lambda e: 10.0 ** e)
shifts = st.one_of(st.just(0.0), st.floats(-10.0, 10.0), st.floats(-1e8, 1e8))


@st.composite
def states(draw, max_m):
    m = draw(st.one_of(st.integers(0, 8), st.integers(0, max_m)))
    state = {"m": m, "sigma_x": draw(widths), "sigma_y": draw(widths),
             "sign": draw(st.sampled_from([1, -1]))}
    for key in ("x0", "y0", "px0", "py0"):
        state[key] = draw(shifts)
    if draw(st.integers(0, 3)) == 0:
        state["eta_x"], state["eta_y"] = draw(st.floats(-10.0, 10.0)), draw(st.floats(-10.0, 10.0))
    return state


@st.composite
def grids(draw, labels):
    """A tiny explicit grid: 2-7 nodes per axis, any center, half-widths 1e-4 to 1e4."""
    grid = {}
    for name, label in zip(("axis1", "axis2"), labels):
        center, half = draw(shifts), draw(widths)
        grid[name] = {"label": label, "min": center - half, "max": center + half,
                      "count": draw(st.integers(2, 7))}
    return grid


threads = st.sampled_from([[], ["--threads", "1"], ["--threads", "2"]])


# any two of the six axis labels; only ("x", "y") is an intensity grid, and the rest exit 2 naming grid
labels = st.lists(st.sampled_from(["x", "y", "px", "py", "r", "s"]), min_size=2, max_size=2)


def _tied(m, sigma_x, sigma_y):
    return {"m": m, "sigma_x": sigma_x, "sigma_y": sigma_y}


@settings(SWEEP, max_examples=60)
@given(state=states(400), grid=st.one_of(st.none(), grids(("x", "y")), labels.flatmap(grids)), flags=threads)
# eta_x ** 2 overflows as a float power (a traceback)
@example(state=_tied(1, 1e-160, 1e-160), grid=None, flags=[])
def test_field_sweep(state, grid, flags):
    cfg = {"state": state} if grid is None else {"state": state, "grid": grid}
    check_run("field", cfg, *flags)


@settings(SWEEP, max_examples=100)
@given(data=st.data(), state=states(400), form=st.sampled_from(["standard", "candidate"]), flags=threads)
def test_wigner_sweep(data, state, form, flags):
    plane = data.draw(st.sampled_from(sorted(PLANES)))
    grid = data.draw(grids(PLANES[plane]))
    check_run("wigner", {"state": state, "grid": grid}, "--plane", plane, "--form", form, *flags)


@settings(SWEEP, max_examples=4)
@given(state=states(400), form=st.sampled_from(["standard", "candidate"]))
# the xy slice fits, a later candidate slice overflows: nothing may be left behind
@example(state={"m": 12, "sigma_x": 0.0005131937684477312, "sigma_y": 9331.750516901184, "sign": -1,
                "x0": -19062760.41137252, "y0": 3661415.118361576, "px0": -0.46066655972722625,
                "py0": -98.98104090157928}, form="candidate")
# eta_x ** 2 or eta_y ** 2 overflows as a float power (a traceback)
@example(state=_tied(1, 1e-160, 1e-160), form="standard")
@example(state=_tied(0, 1.0, 1e-155), form="standard")
# sigma_y ** 3 overflows as a float power in the candidate form (an errno message)
@example(state=_tied(1, 1e150, 1e150), form="candidate")
def test_wigner_all_planes_on_default_grids(state, form):
    check_run("wigner", {"state": state}, "--plane", "all", "--form", form)


_WIDE_RS = {"axis1": {"label": "r", "min": -1000.0, "max": 1000.0, "count": 11},
            "axis2": {"label": "s", "min": -1000.0, "max": 1000.0, "count": 11}}


@settings(SWEEP, max_examples=60)
@given(orders=st.lists(st.one_of(st.integers(1, 8), st.integers(-2, 400)), min_size=1, max_size=3),
       state=st.one_of(st.none(), states(3)), grid=st.one_of(st.none(), grids(("r", "s"))),
       flags=threads)
# order 1 fits, order 100 overflows on this grid: nothing may be left behind
@example(orders=[1, 100], state=None, grid=_WIDE_RS, flags=[])
# and a repeated order's files are removed once
@example(orders=[2, 2, 100], state=None, grid=_WIDE_RS, flags=[])
# sigma_x ** 2 overflows as a float power (an errno message)
@example(orders=[1], state=_tied(1, 1e200, 1.0), grid=None, flags=[])
def test_sit_sweep(orders, state, grid, flags):
    cfg = {"sit": {"m": orders}}
    if state is not None:
        cfg["state"] = state
    if grid is not None:
        cfg["grid"] = grid
    check_run("sit", cfg, *flags)


@settings(SWEEP, max_examples=25)
@given(state=states(40))
# the candidate form overflows on the minima-count grid (a traceback)
@example(state=_tied(15, 0.0331, 9648.0))
@example(state=_tied(40, 0.185, 27.1))
# alp_eval's recurrence reaches inf - inf at every calibration probe (a NaN report)
@example(state=_tied(40, 61.1, 0.00597))
# the candidate's constant is inf (a traceback)
@example(state=_tied(64, 100.0, 100.0))
# the marginal's deviation is large only in the unit of length (a wrong FAIL)
@example(state=_tied(10, 2.08e-4, 0.431))
# the candidate at its nominal constant overflows at a calibration probe (inf in a report)
@example(state=_tied(14, 1e4, 1.0))
# the marginal's absolute tolerance was not scaled with |psi|^2 (an oracle exit)
@example(state=_tied(30, 0.0328, 0.00458))
# eta_x ** 2 or eta_y ** 2 overflows as a float power (a traceback); then the oracle's conj(psi) psi
# overflowed (a state.m exit); it still exits 2 naming state.m, now because the candidate constant overflows
@example(state=_tied(1, 1e-160, 1e-160))
@example(state=_tied(0, 1.0, 1e-155))
# the oracle's rules overflow and the doubling runs to its budget (a warning, then nan)
@example(state=_tied(1, 1e-150, 1e-150))
# then the marginal's kernels 12/sigma overflowed (a state.m exit); test_verify_reaches_a_verdict asserts a verdict
@example(state=_tied(0, 1.0, 1e-154))
# the default grid around the displaced center collapses, found once the oracle converged (a traceback)
@example(state={"m": 0, "sigma_x": 1e-17, "sigma_y": 1.0, "x0": 1.0})
# sigma_y ** 3 overflows as a float power in the candidate form (an errno message)
@example(state=_tied(1, 1e150, 1e150))
def test_verify_sweep(state):
    check_run("verify", {"state": state})


# the oracle integrated psi at absolute coordinates and lost digits far from the center (an oracle exit),
# the marginal's kernels overflowed, and conj(psi) psi overflowed before it was scaled by sigma_x sigma_y
# (state.m exits); check_run accepts both exits, so this asks for more
@pytest.mark.parametrize("state", [{"m": 1, "sigma_x": 1, "sigma_y": 1, "px0": 1e6},
                                   {"m": 1, "sigma_x": 1, "sigma_y": 1, "x0": 1e7},
                                   _tied(0, 1.0, 1e-154), _tied(1, 1e-100, 1e-210), _tied(1, 1e-150, 1e-160)])
def test_verify_reaches_a_verdict(state):
    assert check_run("verify", {"state": state}) in (0, 1)


# any magnitude a double holds comfortably, either sign
signed = st.tuples(st.sampled_from([1.0, -1.0]), st.floats(-300.0, 300.0)).map(lambda p: p[0] * 10.0 ** p[1])


@st.composite
def couplers(draw):
    if draw(st.booleans()):
        return {"kind": "bs", "theta": draw(signed), "phi": draw(signed)}
    coupler = {"kind": "dcdc", "g": draw(signed), "delta": draw(signed)}
    coupler[draw(st.sampled_from(["t", "ratio"]))] = draw(signed)
    return coupler


@settings(SWEEP, max_examples=400)
@given(coupler=couplers())
# (ratio g)^2 overflowed, so t was 0 and the printed coupler had a2 = 0
@example(coupler={"kind": "dcdc", "g": 1.0, "delta": 0.0, "ratio": 1e160})
@example(coupler={"kind": "dcdc", "g": 1e200, "delta": 1e200, "ratio": 3.0})
# cos near pi/2 cannot resolve the ratio; the coupler printed with it missed
@example(coupler={"kind": "dcdc", "g": 1.0, "delta": 0.0, "ratio": 1e-12})
# Omega t overflows, and math.sin(inf) raised the bare "math domain error"
@example(coupler={"kind": "dcdc", "g": 1e300, "delta": 0.0, "t": 1e300})
def test_coupler_sweep(coupler):
    check_run("coupler", {"coupler": coupler})

import ast
import copy
import dataclasses
import importlib
import json
import math
import os
import pkgutil
import stat
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import deev
from deev import cli, gridio, oracle, verify, wigner
from deev.cli import main
from deev.state import DeevParams
from deev.verify import run_verify
from deev.wigner import CLOSED_FORMS

from csvio import read_csv


def write_config(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def small_state(m=3):
    return {"m": m, "sigma_x": 5.0, "sigma_y": 3.0, "x0": 2.0, "y0": 4.0}


def small_grid(l1="x", l2="y", n=41):
    return {"axis1": {"label": l1, "min": -15.0, "max": 19.0, "count": n},
            "axis2": {"label": l2, "min": -11.0, "max": 19.0, "count": n}}


def test_field_command(tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json", {"state": small_state(), "grid": small_grid(),
                                            "out_dir": str(tmp_path / "out")})
    assert main(["field", "--config", cfg]) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 2
    field = read_csv(os.path.join(str(tmp_path / "out"), "intensity.csv"))
    xs, ys = field.spec.axis1.nodes(), field.spec.axis2.nodes()
    i = int(np.argmin(np.abs(xs - 2.0)))
    j = int(np.argmin(np.abs(ys - 4.0)))
    assert field.values[i, j] <= 1e-20


def test_field_rejects_wrong_labels(tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json", {"state": small_state(),
                                            "grid": small_grid(l1="r", l2="s")})
    assert main(["field", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("error: grid: ")
    assert not (tmp_path / "o").exists()


# past a syntax error, json.load raises RecursionError, ValueError or UnicodeDecodeError (once a traceback)
@pytest.mark.parametrize("text", [b"{not json", b"[" * 100000 + b"]" * 100000,
                                  b'{"seed": ' + b"1" * 5000 + b"}", b"\xff\xfe{}"],
                         ids=["syntax", "nested-100000-deep", "int-5000-digits", "not-utf-8"])
def test_malformed_json_exits_2(tmp_path, capsys, text):
    path, out = tmp_path / "bad.json", tmp_path / "o"
    path.write_bytes(text)
    assert main(["field", "--config", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: config {path} is not valid JSON: ")
    assert not out.exists()


def test_unknown_nested_key_exits_2(tmp_path):
    st = small_state()
    st["sigmaz"] = 1.0
    cfg = write_config(tmp_path, "c.json", {"state": st})
    assert main(["field", "--config", cfg]) == 2


def test_wigner_all_planes(tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json", {"state": {"m": 1, "sigma_x": 2.0, "sigma_y": 1.0}})
    out = str(tmp_path / "w")
    assert main(["wigner", "--config", cfg, "--out", out, "--threads", "1"]) == 0
    files = sorted(os.listdir(out))
    assert len(files) == 12
    planes = {f.split("_")[1] for f in files}
    assert planes == {"xy", "pxpy", "xpx", "ypy", "xpy", "ypx"}


def test_wigner_single_plane_candidate_form(tmp_path):
    cfg = write_config(tmp_path, "c.json", {"state": {"m": 2, "sigma_x": 5.0, "sigma_y": 3.0},
                                            "wigner": {"form": "candidate"}})
    out = str(tmp_path / "w")
    assert main(["wigner", "--config", cfg, "--out", out, "--plane", "xpx"]) == 0
    assert sorted(os.listdir(out)) == ["wigner_xpx_candidate.csv", "wigner_xpx_candidate.pgm"]


# a grid whose labels name no plane is refused before any slice is sampled, not replaced by the canonical grids
@pytest.mark.parametrize("plane", ["xy", "all"])
@pytest.mark.parametrize("labels", [("y", "x"), ("r", "s")])
def test_wigner_rejects_a_grid_that_names_no_plane(tmp_path, capsys, monkeypatch, labels, plane):
    monkeypatch.setattr(cli, "wigner_slice", lambda *args, **kwargs: pytest.fail("a slice was sampled"))
    cfg = write_config(tmp_path, "c.json", {"state": small_state(1), "grid": small_grid(*labels, n=5)})
    out = tmp_path / "w"
    assert main(["wigner", "--config", cfg, "--out", str(out), "--plane", plane]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: grid: labels {labels} name no plane; ") and captured.out == ""
    assert not out.exists()


def test_wigner_notes_a_grid_it_does_not_use(tmp_path, capsys):
    # a grid labeled for another plane than --plane goes unused: the run writes the canonical slice, exits 0
    # and says so on stderr; a used grid gives no note, and a run that fails after sampling prints its error alone
    cfg = write_config(tmp_path, "c.json", {"state": small_state(1), "grid": small_grid("x", "px", n=5)})
    out = tmp_path / "w"
    assert main(["wigner", "--config", cfg, "--out", str(out), "--plane", "xy"]) == 0
    assert capsys.readouterr().err == ("note: grid: labels ('x', 'px') are not the xy plane's ('x', 'y'); "
                                       "the grid went unused and the canonical one was sampled\n")
    assert read_csv(str(out / "wigner_xy_standard.csv")).values.shape == (301, 301)
    assert main(["wigner", "--config", cfg, "--out", str(out), "--plane", "xpx"]) == 0
    assert capsys.readouterr().err == ""
    assert read_csv(str(out / "wigner_xpx_standard.csv")).values.shape == (5, 5)
    (out / "wigner_xy_standard.pgm").unlink()
    (out / "wigner_xy_standard.pgm").mkdir()
    assert main(["wigner", "--config", cfg, "--out", str(out), "--plane", "xy"]) == 2
    assert capsys.readouterr().err.startswith("error: --out: ")


def test_sit_command_and_m0_rejected(tmp_path, capsys):
    cfg = {"sit": {"m": [1, 2], "form": "sum", "clamp": 50.0},
           "grid": {"axis1": {"label": "r", "min": -5.0, "max": 5.0, "count": 21},
                    "axis2": {"label": "s", "min": -5.0, "max": 5.0, "count": 21}}}
    out = str(tmp_path / "s")
    assert main(["sit", "--config", write_config(tmp_path, "c.json", cfg), "--out", out]) == 0
    assert len(os.listdir(out)) == 4
    cfg["sit"]["m"] = 0
    assert main(["sit", "--config", write_config(tmp_path, "c.json", cfg), "--out", out]) == 2
    assert "m >= 1" in capsys.readouterr().err


def test_sit_m1_matches_closed_form(tmp_path):
    cfg = write_config(tmp_path, "c.json", {
        "sit": {"m": 1, "form": "sum", "clamp": 50.0},
        "grid": {"axis1": {"label": "r", "min": -2.0, "max": 2.0, "count": 9},
                 "axis2": {"label": "s", "min": -2.0, "max": 2.0, "count": 9}}})
    out = str(tmp_path / "s")
    assert main(["sit", "--config", cfg, "--out", out]) == 0
    f = read_csv(os.path.join(out, "sit_m1_sum.csv"))
    rr, ss = np.meshgrid(f.spec.axis1.nodes(), f.spec.axis2.nodes(), indexing="ij")
    with np.errstate(invalid="ignore"):
        expect = 2 * rr * ss / (rr ** 2 + ss ** 2)
    mask = ~np.isnan(f.values)
    assert np.max(np.abs(f.values[mask] - expect[mask])) <= 1e-12


def test_coupler_bs_and_dcdc(tmp_path, capsys):
    cfg = write_config(tmp_path, "bs.json", {"coupler": {"kind": "bs", "theta": math.pi / 4, "phi": 0.0}})
    assert main(["coupler", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "0.707106781186547" in out
    cfg = write_config(tmp_path, "dc.json", {"coupler": {"kind": "dcdc", "g": 1.0, "delta": 0.0,
                                                         "t": math.pi / 4}})
    assert main(["coupler", "--config", cfg]) == 0
    assert "0.707106781186547" in capsys.readouterr().out


def test_coupler_ratio_solve(tmp_path, capsys):
    cfg = write_config(tmp_path, "r.json", {"coupler": {"kind": "dcdc", "g": 1.0, "delta": 0.0,
                                                        "ratio": 1.0}})
    assert main(["coupler", "--config", cfg]) == 0
    out = capsys.readouterr().out
    t = float(out.splitlines()[0].split("=")[1])
    assert t == pytest.approx(math.pi / 4, abs=1e-10)


def test_coupler_infeasible_ratio_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, "r.json", {"coupler": {"kind": "dcdc", "g": 3.0, "delta": 4.0,
                                                        "ratio": 1.0}})
    assert main(["coupler", "--config", cfg]) == 2
    assert "infimum" in capsys.readouterr().err


def printed_ellipticity(out):
    """(|a1|, |a2|) from the coupler's last printed line."""
    return tuple(float(v) for v in out.splitlines()[-1].split(" = ")[1].strip("()").split(", "))


# past ratio g = 1e154, (ratio g - delta) (ratio g + delta) overflowed, so t came out 0 and a2 = 0
@pytest.mark.parametrize("g, delta, ratio, t", [(1.0, 0.0, 1e160, 1e-160), (1e200, 1e200, 3.0, 3.2784836840539e-201)],
                         ids=["ratio-1e160", "g-delta-1e200"])
def test_coupler_large_ratio_solve(tmp_path, capsys, g, delta, ratio, t):
    cfg = write_config(tmp_path, "r.json", {"coupler": {"kind": "dcdc", "g": g, "delta": delta,
                                                        "ratio": ratio}})
    assert main(["coupler", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert float(out.splitlines()[0].split("=")[1]) == pytest.approx(t, rel=1e-10, abs=0.0)
    a1, a2 = printed_ellipticity(out)
    assert a1 / a2 == pytest.approx(ratio, rel=1e-9)


# cos near pi/2 cannot resolve these ratios (the coupler printed with the ratio missed, exit 0)
@pytest.mark.parametrize("ratio", [1e-12, 1e-17])
def test_coupler_unresolvable_small_ratio_exits_2(tmp_path, capsys, ratio):
    cfg = write_config(tmp_path, "r.json", {"coupler": {"kind": "dcdc", "g": 1.0, "delta": 0.0, "ratio": ratio}})
    assert main(["coupler", "--config", cfg]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: coupler: the coupler at the solved time t = ")
    assert err.endswith(f"not the requested {ratio:g}\n")


def test_verify_m0_circular_exits_0(tmp_path, capsys):
    cfg = write_config(tmp_path, "v.json", {"state": {"m": 0, "sigma_x": 1.0, "sigma_y": 1.0}})
    out = str(tmp_path / "v")
    assert main(["verify", "--config", cfg, "--out", out]) == 0
    with open(os.path.join(out, "discrepancy_standard.txt"), encoding="ascii") as fh:
        assert fh.read().splitlines()[-1] == "verdict=match"
    assert "overall: PASS" in capsys.readouterr().out


def test_verify_starved_node_budget_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(oracle, "_MAX_RULE_NODES", 8)
    cfg = write_config(tmp_path, "v.json", {"state": small_state(3)})
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "v")]) == 2
    assert "oracle: Gauss-Hermite rule did not converge" in capsys.readouterr().err


def _verify_lines(out, capsys):
    names = sorted(os.listdir(out))
    assert names == ["discrepancy_candidate.txt", "discrepancy_standard.txt", "verify_summary.txt"]
    with open(os.path.join(out, "verify_summary.txt")) as fh:
        summary = fh.read()
    printed = capsys.readouterr().out
    assert printed.startswith(summary)
    return summary.splitlines()


def test_verify_marginal_disagreement_fails_its_suite(tmp_path, capsys, monkeypatch):
    # a marginal rule whose weights are 5% heavy fails the marginal suite,
    # and the run still writes its summary and both reports
    rule = verify._rule
    monkeypatch.setattr(verify, "_rule", lambda n: (rule(n)[0], 1.05 * rule(n)[1]))
    cfg = write_config(tmp_path, "v.json", {"state": small_state(1)})
    out = str(tmp_path / "v")
    assert main(["verify", "--config", cfg, "--out", out]) == 1
    lines = _verify_lines(out, capsys)
    assert any(line.startswith("FAIL marginal: ") for line in lines)
    assert lines[-1] == "overall: FAIL"


def test_verify_adjudication_fails_when_a_probe_bound_passes_half_the_tolerance(tmp_path, capsys, monkeypatch):
    # the first oracle integral is the standard calibration's first probe; its bound, inside the oracle's
    # tolerance but past half of it, makes that report unstable, and the adjudication fails
    self_checked, bounds = oracle._self_checked, []

    def inflated(integral, f, m, abs_tol=None):
        value, bound = self_checked(integral, f, m, abs_tol)
        bounds.append(bound)
        return value, (0.75 * oracle._tolerance(value) if len(bounds) == 1 else bound)

    monkeypatch.setattr(oracle, "_self_checked", inflated)
    cfg = write_config(tmp_path, "v.json", {"state": {"m": 0, "sigma_x": 1.0, "sigma_y": 1.0}})
    out = str(tmp_path / "v")
    assert main(["verify", "--config", cfg, "--out", out]) == 1
    failed = [line for line in _verify_lines(out, capsys) if line.startswith("FAIL")]
    assert len(failed) == 1 and failed[0].startswith("FAIL adjudication: closed form verdict = match, stable = False; ")
    for form, stable in [("standard", "false"), ("candidate", "true")]:
        with open(os.path.join(out, f"discrepancy_{form}.txt"), encoding="ascii") as fh:
            assert f"stable_under_halving={stable}" in fh.read().splitlines()


def test_verify_symmetry_fails_when_the_exchange_keeps_the_sign(tmp_path, capsys, monkeypatch):
    # exchanging the modes turns the vortex the other way; a swapped() that keeps the sign is not the exchange
    swapped = DeevParams.swapped
    monkeypatch.setattr(DeevParams, "swapped", lambda self: dataclasses.replace(swapped(self), sign=self.sign))
    cfg = write_config(tmp_path, "v.json", {"state": dict(small_state(1), px0=0.3, py0=-0.2)})
    out = str(tmp_path / "v")
    assert main(["verify", "--config", cfg, "--out", out]) == 1
    lines = _verify_lines(out, capsys)
    assert any(line.startswith("FAIL symmetry: mode-exchange dev = ") for line in lines)


def test_verify_shape_mismatch_fails_through_adjudication(tmp_path, capsys, monkeypatch):
    monkeypatch.setitem(CLOSED_FORMS, "standard", CLOSED_FORMS["candidate"])
    cfg = write_config(tmp_path, "v.json", {"state": small_state(0)})
    out = str(tmp_path / "v")
    assert main(["verify", "--config", cfg, "--out", out]) == 1
    lines = _verify_lines(out, capsys)
    assert [line.split(":")[0] for line in lines if line.startswith("FAIL")] == ["FAIL adjudication"]
    assert "closed-form verdict: shape-mismatch" in lines


# m = 90 and 120 overflow Gamma(m + 1/2)'s (2m)!; at m = 64, sigma = 100 the product is inf
@pytest.mark.parametrize("m, sigma", [(90, 1.0), (120, 1.0), (64, 100.0)], ids=["90", "120", "64-sigma100"])
def test_verify_candidate_constant_overflow_names_state_m(tmp_path, capsys, m, sigma):
    cfg = write_config(tmp_path, "v.json", {"state": {"m": m, "sigma_x": sigma, "sigma_y": sigma}})
    out = tmp_path / "v"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (f"error: state.m: the candidate closed form's constant at m={m} "
                                       "does not fit a double\n")
    assert not out.exists()


# no grid is sampled where these overflow: the candidate's shape at one calibration probe (m = 40), and the
# candidate at its nominal constant at the probes its report prints (m = 14)
@pytest.mark.parametrize("m, sigmas, where", [(40, (0.01, 100.0), "at this point"),
                                              (14, (1e4, 1.0), "at a calibration probe")], ids=["40", "14"])
def test_verify_candidate_overflow_names_where_it_was_evaluated(tmp_path, capsys, m, sigmas, where):
    cfg = write_config(tmp_path, "v.json", {"state": {"m": m, "sigma_x": sigmas[0], "sigma_y": sigmas[1]}})
    out = tmp_path / "v"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (f"error: state.m: the candidate closed form at m={m} overflows double "
                                       f"precision {where}\n")
    assert not out.exists()


def test_oracle_overflow_stops_at_its_first_rule_and_names_state_m(tmp_path, capsys, monkeypatch):
    # psi is inf at one node of every rule: the oracle raises at its first rule, without doubling the rule to
    # its node budget, and verify exits 2 naming state.m
    psi, rules = oracle.psi, []

    def inf_at_one_node(p, x, y):
        rules.append(np.shape(x)[0])
        values = psi(p, x, y)
        values[0, 0] = np.inf
        return values

    monkeypatch.setattr(oracle, "psi", inf_at_one_node)
    p = DeevParams.tied(3, 5.0, 3.0)
    with pytest.raises(OverflowError, match=r"^the oracle's integrand at m=3 overflows double precision$"):
        oracle.oracle_wigner(p, *p.phase_point(0.3, -0.2, 0.1, 0.4))
    assert rules == [3 + 16 + 2]        # m + 16 + 2 ceil(2 max(|P|, |Q|)), once
    cfg = write_config(tmp_path, "v.json", {"state": small_state(3)})
    out = tmp_path / "v"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: state.m: the oracle's integrand at m=3 overflows double precision\n"
    assert not out.exists()


SIT_AXIS = {"min": -5.0, "max": 5.0, "count": 11}


@pytest.mark.parametrize("m, sigma, half, labels, message", [
    (0, None, 5.0, "rs", "sit.m: SIT needs m >= 1 (no interference terms exist below); got 0"),
    (200, 5.0, 5.0, "rs", "sit.m: the SIT coefficients at m=200 leave the double range for "
                          "sigma_x^2 + sigma_y^2 = 50"),
    (200, 0.1, 5.0, "rs", "sit.m: the SIT coefficients at m=200 leave the double range for "
                          "sigma_x^2 + sigma_y^2 = 0.02"),
    (400, 1.0, 5.0, "rs", "sit.m: the SIT coefficients at m=400 leave the double range for "
                          "sigma_x^2 + sigma_y^2 = 2"),
    # 1/171! is subnormal, although its scaled coefficient 2^171/171! is not
    (171, 0.5, 5.0, "rs", "sit.m: the SIT coefficients at m=171 leave the double range for "
                          "sigma_x^2 + sigma_y^2 = 0.5"),
    (100, 1.0, 1000.0, "rs", "sit.m: the SIT at m=100 overflows double precision on this grid"),
    (2, None, 5.0, "xy", "grid: SIT grids use axes ('r', 's'), got ('x', 'y')"),
], ids=["m0", "m200-wide", "m200-narrow", "m400", "m171-subnormal", "grid-overflow", "xy-grid"])
def test_sit_rejections_name_their_key(tmp_path, m, sigma, half, labels, message):
    # subprocess at 2 threads, so that any numpy warning from a worker would show in stderr
    cfg = {"sit": {"m": m}, "grid": {"axis1": dict(SIT_AXIS, min=-half, max=half, label=labels[0]),
                                     "axis2": dict(SIT_AXIS, min=-half, max=half, label=labels[1])}}
    if sigma is not None:
        cfg["state"] = {"m": 1, "sigma_x": sigma, "sigma_y": sigma}
    path = write_config(tmp_path, "s.json", cfg)
    out = tmp_path / "o"
    src = os.path.dirname(os.path.dirname(deev.__file__))
    run = subprocess.run([sys.executable, "-m", "deev.cli", "sit", "--config", path, "--out", str(out),
                          "--threads", "2"],
                         env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True)
    assert (run.returncode, run.stderr) == (2, f"error: {message}\n")
    assert not out.exists()


def test_determinism_across_runs_and_threads(tmp_path):
    cfg = write_config(tmp_path, "c.json", {"state": small_state(1), "grid": small_grid(n=31)})
    outs = []
    for name, threads in (("a", "1"), ("b", "1"), ("c", "4")):
        out = str(tmp_path / name)
        assert main(["field", "--config", cfg, "--out", out, "--threads", threads]) == 0
        with open(os.path.join(out, "intensity.csv"), "rb") as fh:
            csv = fh.read()
        with open(os.path.join(out, "intensity.pgm"), "rb") as fh:
            pgm = fh.read()
        outs.append((csv, pgm))
    assert outs[0] == outs[1] == outs[2]


def test_verify_reports_identical_across_runs_and_threads(tmp_path):
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    cfg = os.path.join(root, "configs", "verify_elliptic_m3.json")
    names = ("verify_summary.txt", "discrepancy_standard.txt", "discrepancy_candidate.txt")
    outs = []
    for name, threads in (("a", "1"), ("b", "1"), ("c", "2"), ("d", "2")):
        out = str(tmp_path / name)
        code = main(["verify", "--config", cfg, "--out", out, "--threads", threads])
        blobs = []
        for report in names:
            with open(os.path.join(out, report), "rb") as fh:
                blobs.append(fh.read())
        outs.append((code, blobs))
    assert all(o == outs[0] for o in outs[1:])


def test_import_loads_no_scipy():
    src = os.path.dirname(os.path.dirname(deev.__file__))
    code = "import sys, deev; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True).stdout
    assert out.strip() == "[]"


def test_tests_import_no_scipy():
    # the tests' references are exact, in tests/exact.py: no test module imports scipy, at any depth
    found = []
    for path in sorted(Path(__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                     else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
            found += [f"{path.name}:{node.lineno}" for name in names if name.split(".")[0] == "scipy"]
    assert found == []


# runs ``python -m deev.cli <argv>`` in this process, then prints the modules it loaded
_MODULES_AFTER = """
import json, runpy, sys
sys.argv = ["deev"] + json.loads(sys.argv[1])
try:
    runpy.run_module("deev.cli", run_name="__main__", alter_sys=True)
except SystemExit:
    pass
print(json.dumps(sorted(sys.modules)))
"""


def modules_after(argv, *flags):
    src = os.path.dirname(os.path.dirname(deev.__file__))
    root = os.path.dirname(src)
    out = subprocess.run([sys.executable, *flags, "-c", _MODULES_AFTER, json.dumps(argv)], cwd=root,
                         env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
                         check=True).stdout
    return json.loads(out.splitlines()[-1])


def test_import_loads_no_numpy():
    # the names the CLI's parser reads are the package's own, so reading them loads nothing more
    src = os.path.dirname(os.path.dirname(deev.__file__))
    code = ("import sys, deev; deev.PLANES, deev.FORMS, deev.SIT_FORMS; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'deev')))")
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "['deev']"


@pytest.mark.parametrize("argv, used", [(["--help"], "deev"),
                                        (["coupler", "--config", "configs/coupler_dcdc_5050.json"],
                                         "deev.coupling")], ids=["help", "coupler"])
def test_help_and_coupler_load_no_numpy(argv, used):
    loaded = modules_after(argv)
    assert used in loaded
    assert [m for m in loaded if m.split(".")[0] == "numpy"] == []
    assert "dataclasses" not in loaded


@pytest.mark.parametrize("argv", [["--help"], ["coupler", "--config", "configs/coupler_dcdc_5050.json"]],
                         ids=["help", "coupler"])
def test_help_and_coupler_load_no_tempfile(argv):
    # only a writing command stages files; -S, because a site .pth file may import tempfile at start-up
    assert "tempfile" not in modules_after(argv, "-S")


def test_wigner_loads_no_verify_or_oracle(tmp_path):
    loaded = modules_after(["wigner", "--config", "configs/fig3_wigner_standard.json",
                            "--plane", "xy", "--out", str(tmp_path / "o")])
    assert "deev.wigner" in loaded
    assert "deev.verify" not in loaded and "deev.oracle" not in loaded
    assert (tmp_path / "o" / "wigner_xy_standard.csv").exists()


@pytest.mark.parametrize("argv, used", [(["verify", "--config", "configs/verify_elliptic_m3.json"], "deev.verify"),
                                        (["field", "--config", "configs/fig2_intensity.json"], "deev.state"),
                                        (["wigner", "--config", "configs/fig3_wigner_standard.json",
                                          "--plane", "xy"], "deev.wigner"),
                                        (["sit", "--config", "configs/fig4_sit.json"], "deev.wigner")],
                         ids=["verify", "field", "wigner", "sit"])
def test_file_commands_load_no_numpy_random(tmp_path, argv, used):
    # the verify suites draw their points from the standard library's random.Random
    loaded = modules_after(argv + ["--out", str(tmp_path / "o")])
    assert used in loaded and os.listdir(tmp_path / "o")
    assert [m for m in loaded if m.startswith("numpy.random")] == []
    # only the SIT builds exact coefficients, and it imports fractions (and decimal) where it does
    assert ("fractions" in loaded) == (argv[0] == "sit")


def test_library_shares_the_package_lists():
    assert wigner.PLANES is deev.PLANES and wigner.FORMS is deev.FORMS and wigner.SIT_FORMS is deev.SIT_FORMS
    assert tuple(wigner.CLOSED_FORMS) == deev.FORMS


def test_exported_names_resolve():
    modules = [deev] + [importlib.import_module(f"deev.{info.name}")
                        for info in pkgutil.iter_modules(deev.__path__)]
    for module in modules:
        assert [name for name in module.__all__ if not hasattr(module, name)] == [], module.__name__
    assert len(set(deev.__all__)) == len(deev.__all__)
    # a library module's public names are its row of the package's table, and each resolves on deev
    for name, names in deev._EXPORTS.items():
        module = importlib.import_module(f"deev.{name}")
        assert module.__all__ == list(names), name
        assert all(getattr(deev, export) is getattr(module, export) for export in names), name


@pytest.mark.parametrize("threads", ["0", "-1"])
def test_threads_below_one_rejected_at_parse(tmp_path, capsys, threads):
    # argparse rejects the value before the command runs, so no worker starts
    cfg = write_config(tmp_path, "c.json", {"state": small_state(1), "grid": small_grid(n=5)})
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as err:
        main(["field", "--config", cfg, "--out", str(out), "--threads", threads])
    assert err.value.code == 2
    assert "--threads" in capsys.readouterr().err
    assert not out.exists()


def tied_intensity(m, sx, sy, a, b):
    """Exact |psi|^2 of the tied state (m >= 1) at scaled offsets (a, b), through lgamma:
    (a^2 + b^2)^m exp(-(a^2 + b^2)) / (pi sigma_x sigma_y m!); 0.0 where that underflows."""
    r2 = np.asarray(a, dtype=float) ** 2 + np.asarray(b, dtype=float) ** 2
    with np.errstate(divide="ignore"):      # log(0) = -inf at the core, where the value is 0.0
        return np.exp(m * np.log(r2) - r2 - math.log(math.pi * sx * sy) - math.lgamma(m + 1.0))


@pytest.mark.parametrize("command", ["field", "verify"])
@pytest.mark.parametrize("m", [140, 200, 369, 5000, 10 ** 20])
def test_unrepresentable_normalization_exits_2(tmp_path, capsys, command, m):
    # from m = 369 the (m + 2)-node rule is past numpy's largest Gauss-Hermite rule; a numpy
    # warning on the way to the exit fails the test (pyproject.toml filterwarnings). Below it the tied
    # state normalizes at every m: field answers, and verify stops at the candidate constant
    cfg = write_config(tmp_path, "c.json", {"state": small_state(m), "grid": small_grid(n=5)})
    out = tmp_path / "o"
    code, err = main([command, "--config", cfg, "--out", str(out)]), capsys.readouterr().err
    if m > 368:
        assert (code, err.startswith(f"error: state: normalization of m={m}, ")) == (2, True), err
        assert not out.exists()
    elif command == "verify":
        assert (code, err) == (2, f"error: state.m: the candidate closed form's constant at m={m} "
                                  "does not fit a double\n")
        assert not out.exists()
    else:
        assert (code, err) == (0, "")
        field = read_csv(str(out / "intensity.csv"))
        x, y = np.meshgrid(field.spec.axis1.nodes(), field.spec.axis2.nodes(), indexing="ij")
        want = tied_intensity(m, 5.0, 3.0, (x - 2.0) / 5.0, (y - 4.0) / 3.0)
        assert np.count_nonzero(want) == 24     # every node but the core
        np.testing.assert_allclose(field.values, want, rtol=1e-12, atol=0.0)


def test_largest_rule_normalizes_untied_m368(tmp_path):
    state = {"m": 368, "sigma_x": 1.0, "sigma_y": 1.0, "eta_x": 0.05, "eta_y": 0.02}
    cfg = write_config(tmp_path, "c.json", {"state": state, "grid": small_grid(n=5)})
    assert main(["field", "--config", cfg, "--out", str(tmp_path / "o")]) == 0


@pytest.mark.parametrize("m", [171, 20000, 10 ** 6])
def test_sit_rejects_subnormal_orders_before_exact_arithmetic(tmp_path, capsys, monkeypatch, m):
    # c_m = (-1)^m / m! is subnormal for every m >= 171, whatever the widths
    monkeypatch.setitem(sys.modules, "fractions",
                        SimpleNamespace(Fraction=lambda *args: pytest.fail("exact coefficients built")))
    cfg = write_config(tmp_path, "s.json", {"sit": {"m": m}})
    out = tmp_path / "o"
    assert main(["sit", "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (f"error: sit.m: the SIT coefficients at m={m} leave the double "
                                       "range for sigma_x^2 + sigma_y^2 = 2\n")
    assert not out.exists()


@pytest.mark.parametrize("form", ["standard", "candidate"])
@pytest.mark.parametrize("threads", ["1", "2"])
def test_wigner_overflow_names_state_m(tmp_path, threads, form):
    # the closed forms overflow at m = 400 on this grid; numpy must not warn from any worker
    axis = {"min": -40.0, "max": 40.0, "count": 21}
    cfg = write_config(tmp_path, "c.json", {
        "state": {"m": 400, "sigma_x": 1.0, "sigma_y": 1.0}, "wigner": {"form": form},
        "grid": {"axis1": dict(axis, label="x"), "axis2": dict(axis, label="y")}})
    src = os.path.dirname(os.path.dirname(deev.__file__))
    run = subprocess.run([sys.executable, "-m", "deev.cli", "wigner", "--config", cfg, "--plane", "xy",
                          "--out", str(tmp_path / "o"), "--threads", threads],
                         env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True)
    assert run.returncode == 2
    # the candidate's constant overflows first, with the message verify prints for it too
    message = {"standard": "the standard closed form at m=400 overflows double precision on this grid",
               "candidate": "the candidate closed form's constant at m=400 does not fit a double"}[form]
    assert run.stderr == f"error: state.m: {message}\n"


@pytest.mark.parametrize("threads", ["1", "2"])
def test_field_overflow_names_state_m(tmp_path, threads):
    # on this grid psi's vortex factor in the scaled weights fits a double at m = 120, where every
    # |psi|^2 underflows to 0.0, and overflows at m = 368; numpy must not warn from any worker
    axis = {"min": -1000.0, "max": 1000.0, "count": 21}
    src = os.path.dirname(os.path.dirname(deev.__file__))
    for m, code in [(120, 0), (368, 2)]:
        cfg = write_config(tmp_path, f"c{m}.json", {
            "state": {"m": m, "sigma_x": 1.0, "sigma_y": 1.0},
            "grid": {"axis1": dict(axis, label="x"), "axis2": dict(axis, label="y")}})
        out = tmp_path / f"o{m}"
        run = subprocess.run([sys.executable, "-m", "deev.cli", "field", "--config", cfg,
                              "--out", str(out), "--threads", threads],
                             env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True)
        assert run.returncode == code, run.stderr
        if code:
            assert run.stderr == f"error: state.m: |psi|^2 at m={m} overflows double precision on this grid\n"
            assert not out.exists()
            continue
        assert run.stderr == ""
        field = read_csv(str(out / "intensity.csv"))
        x, y = np.meshgrid(field.spec.axis1.nodes(), field.spec.axis2.nodes(), indexing="ij")
        assert np.array_equal(field.values, tied_intensity(m, 1.0, 1.0, x, y))


@pytest.mark.parametrize("command, key", [("field", "x0"), ("wigner", "x0"), ("wigner", "px0"),
                                          ("verify", "x0"), ("verify", "px0")])
def test_collapsed_default_grid_names_state(tmp_path, capsys, command, key):
    # at a center of 1e17 the default grid's 3-width span rounds away, so lo == hi
    cfg = write_config(tmp_path, "c.json", {"state": {"m": 1, "sigma_x": 1.0, "sigma_y": 1.0, key: 1e17}})
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: state: the default grid around the displaced center collapses")
    assert not out.exists()


_HUGE_AXIS = {"min": -1e308, "max": 1e308, "count": 5}    # finite bounds, but hi - lo = inf
_UNIT_AXIS = {"min": -1.0, "max": 1.0, "count": 5}
_LEAVES = "state: the default grid around the displaced center leaves the double range"


@pytest.mark.parametrize("argv, cfg, key", [
    (["field"], {"state": {"m": 0, "sigma_x": 1.0, "sigma_y": 1.0},
                 "grid": {"axis1": dict(_HUGE_AXIS, label="x"), "axis2": dict(_UNIT_AXIS, label="y")}}, "grid.axis1"),
    (["sit"], {"state": {"m": 2, "sigma_x": 1.0, "sigma_y": 1.0}, "sit": {"m": [2]},
               "grid": {"axis1": dict(_UNIT_AXIS, label="r"), "axis2": dict(_HUGE_AXIS, label="s")}}, "grid.axis2"),
    # the default grid's 3.4 scaled widths around the center span past the double range
    (["field"], {"state": {"m": 0, "sigma_x": 5e307, "sigma_y": 1e-307}}, _LEAVES),
    (["wigner", "--plane", "xy"], {"state": {"m": 1, "sigma_x": 5e307, "sigma_y": 1e-307}}, _LEAVES),
    (["verify"], {"state": {"m": 1, "sigma_x": 5e307, "sigma_y": 1e-307}}, _LEAVES),
], ids=["field-config-grid", "sit-config-grid", "field-default-grid", "wigner-default-grid", "verify-default-grid"])
def test_axis_span_past_the_double_range_names_its_grid(tmp_path, capsys, argv, cfg, key):
    # np.linspace over an infinite span gave NaN and inf nodes, which the samplers blamed on m
    out = tmp_path / "o"
    assert main([*argv, "--config", write_config(tmp_path, "c.json", cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key}: ") and "axis span hi - lo must be finite" in err
    assert "collapses" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["wigner", "verify"])
def test_untied_weights_rejected_before_writing(tmp_path, capsys, command):
    cfg = write_config(tmp_path, "c.json", {"state": {"m": 2, "sigma_x": 2.0, "sigma_y": 1.0,
                                                      "eta_x": 0.9, "eta_y": 0.3}})
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert "state.eta_x/state.eta_y" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["field", "wigner", "verify", "sit"])
def test_one_eta_names_both_keys(tmp_path, capsys, command):
    cfg = write_config(tmp_path, "c.json", {"state": dict(small_state(1), eta_x=0.2),
                                            "sit": {"m": 1}})
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert "state.eta_x/state.eta_y" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["field", "wigner", "verify", "sit"])
def test_zero_width_names_state(tmp_path, capsys, command):
    # the default weight eta_x = 1 / (sqrt(2) sigma_x) divided by zero first: a ZeroDivisionError traceback
    cfg = write_config(tmp_path, "c.json", {"state": {"m": 1, "sigma_x": 0, "sigma_y": 1.0}, "sit": {"m": 1}})
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", "error: state: beam widths must be positive\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["field", "wigner"])
def test_subnormal_width_names_its_infinite_weight(tmp_path, capsys, command):
    # the default weight eta_x = 1 / (sqrt(2) sigma_x) overflows at sigma_x = 1e-320
    cfg = write_config(tmp_path, "c.json", {"state": {"m": 1, "sigma_x": 1e-320, "sigma_y": 1.0}})
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: state: eta_x must be finite\n"
    assert not out.exists()


@pytest.mark.parametrize("weights", [
    # eta_x sigma_x overflows a double (a weight ratio of about 1e310)
    dict(m=2, sigma_x=1e10, sigma_y=1, eta_x=1e300, eta_y=1),
    # both products underflow to 0.0 (a weight ratio of 10)
    dict(m=2, sigma_x=1e-30, sigma_y=1e-30, eta_x=1e-300, eta_y=1e-301),
    # both products round to the same subnormal, 5e-324 (a weight ratio of 1.4)
    dict(m=2, sigma_x=3e-24, sigma_y=3e-24, eta_x=1e-300, eta_y=1.4e-300),
], ids=["overflow-on-one-axis", "underflow-on-both", "subnormal-on-both"])
def test_wigner_rejects_weight_products_out_of_the_normal_range(tmp_path, capsys, weights):
    # the weights are untied, and wigner says so, comparing the products at a scale where they are doubles
    out = tmp_path / "o"
    assert main(["wigner", "--plane", "xpx", "--config", write_config(tmp_path, "c.json", {"state": weights}),
                 "--out", str(out)]) == 2
    stdout, err = capsys.readouterr()
    head = "error: state.eta_x/state.eta_y: wigner requires eta_x sigma_x == eta_y sigma_y (got "
    assert stdout == "" and err.startswith(head) and err.endswith("); use the oracle module for untied weights\n")
    hx, hy = (float(v) for v in err[len(head):].split(")")[0].split(" vs "))
    exact = (Fraction(weights["eta_x"]) * Fraction(weights["sigma_x"])
             / (Fraction(weights["eta_y"]) * Fraction(weights["sigma_y"])))
    # the smaller scaled product may be subnormal: 8.7e-311 keeps 44 bits of the 1e310 ratio
    assert abs(Fraction(hx) / Fraction(hy) / exact - 1) <= 1e-12
    assert not out.exists()


def test_field_rejects_a_subnormal_normalization_sum(tmp_path, capsys):
    # the same state as eta = (1, 2): its width-free sum S was subnormal and |psi|^2 came out 7.2% low,
    # then refused; in the scaled weights S is a normal double and the two fields agree
    values = []
    for scale in (1e-33, 1.0):
        cfg = write_config(tmp_path, "c.json", {"state": {"m": 5, "sigma_x": 1, "sigma_y": 2,
                                                          "eta_x": scale, "eta_y": 2 * scale}})
        out = tmp_path / f"o{scale}"
        assert main(["field", "--config", cfg, "--out", str(out)]) == 0
        values.append(read_csv(str(out / "intensity.csv")).values)
    assert capsys.readouterr().err == ""
    np.testing.assert_allclose(values[0], values[1], rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("command", ["field", "wigner", "verify"])
def test_subnormal_widths_name_state(tmp_path, capsys, command):
    # sigma_i = 1e-310 makes eta_i sigma_i = 1e-310, and the weights would need 2^1029 to bring it to 1
    cfg = write_config(tmp_path, "c.json", {"state": {"m": 1, "sigma_x": 1e-310, "sigma_y": 1e-310,
                                                      "eta_x": 1.0, "eta_y": 1.0}})
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", "error: state: eta_x and eta_y times 2^1029 leave the double range "
                                       "(a subnormal width)\n")
    assert not out.exists()


TABLE_BASE = {
    "state": dict(small_state(1), eta_x=1 / (math.sqrt(2) * 5.0), eta_y=1 / (math.sqrt(2) * 3.0)),
    "grid": small_grid(n=5),
    "sit": {"m": 1, "form": "sum"},
    "wigner": {"plane": "xy", "form": "standard"},
    "coupler": {"kind": "dcdc", "g": 1.0, "delta": 0.0, "t": 0.5},
    "seed": 1,
}


@pytest.mark.parametrize("block, key, value, name", [
    ((), "bogus", 1, "config.bogus"),
    (("state",), "bogus", 1, "state.bogus"),
    (("grid",), "bogus", 1, "grid.bogus"),
    (("grid", "axis1"), "bogus", 1, "grid.axis1.bogus"),
    (("grid", "axis2"), "bogus", 1, "grid.axis2.bogus"),
    ((), "quadrature", {"bogus": 1}, "config.quadrature: unknown key"),
    (("sit",), "bogus", 1, "sit.bogus"),
    (("wigner",), "bogus", 1, "wigner.bogus"),
    (("coupler",), "bogus", 1, "coupler.bogus"),
    (("coupler",), "theta", 0.5, "coupler.theta"),          # a bs key on a dcdc coupler
    (("state",), "sigma_x", True, "state.sigma_x"),
    (("coupler",), "g", False, "coupler.g"),
    ((), "seed", True, "config.seed"),
    (("state",), "m", 2.5, "state.m"),
    (("wigner",), "form", "striped", "wigner.form"),
    (("sit",), "form", "product", "sit.form"),
    (("coupler",), "kind", "prism", "coupler.kind"),
    ((), "quadrature", {"truncation_radius": 7.0}, "config.quadrature: unknown key"),
    (("state",), "eta_x", 0.9, "state.eta_x"),                # untied weights: verify only
    ((), "state", 3, "state: expected an object, got int"),
    (("state",), "x0", math.inf, "state.x0: expected a finite number, got inf"),
    ((), "quadrature", {"abs_tol": 1e-12}, "config.quadrature: unknown key"),  # a removed block, even at its old defaults
    (("sit",), "clamp", math.inf, "sit.clamp: expected a finite number, got inf"),
    (("sit",), "m", [1, 1], "sit.m: expected distinct integers, got [1, 1]"),
    (("sit",), "m", [], "sit.m: expected at least one integer, got []"),
])
def test_config_table_rejects(tmp_path, capsys, block, key, value, name):
    cfg = copy.deepcopy(TABLE_BASE)
    target = cfg
    for part in block:
        target = target[part]
    target[key] = value
    path = write_config(tmp_path, "c.json", cfg)
    if name.startswith(("state.eta_x", "config.quadrature")):
        assert main(["verify", "--config", path, "--out", str(tmp_path / "out")]) == 2
        assert not (tmp_path / "out").exists()
    else:
        assert main(["coupler", "--config", path]) == 2
    assert name in capsys.readouterr().err


def test_config_table_base_is_valid(tmp_path, capsys):
    path = write_config(tmp_path, "c.json", TABLE_BASE)
    assert main(["coupler", "--config", path]) == 0


@pytest.mark.parametrize("command", ["verify", "coupler"])
def test_clamp_is_refused_where_nothing_is_drawn(tmp_path, capsys, command):
    path = write_config(tmp_path, "c.json", TABLE_BASE)
    with pytest.raises(SystemExit) as exit_:
        main([command, "--config", path, "--clamp", "1"])
    assert exit_.value.code == 2
    assert "unrecognized arguments: --clamp 1" in capsys.readouterr().err


def test_coupler_takes_threads_and_refuses_out(tmp_path, capsys):
    path = write_config(tmp_path, "c.json", TABLE_BASE)
    assert main(["coupler", "--config", path, "--threads", "1"]) == 0
    with pytest.raises(SystemExit) as exit_:
        main(["coupler", "--config", path, "--out", "d"])
    assert exit_.value.code == 2
    assert "unrecognized arguments: --out d" in capsys.readouterr().err
    assert not (tmp_path / "d").exists()


def _no_work(*args, **kwargs):
    raise AssertionError("work started before the output directory was made")


@pytest.mark.parametrize("key, out", [("--out", "taken"), ("--out", ""), ("out_dir", ""),
                                      ("out_dir", "a\0b")],
                         ids=["--out", "--out-empty", "out_dir", "out_dir-nul"])
@pytest.mark.parametrize("command", ["field", "wigner", "sit", "verify"])
def test_unmakeable_output_directory_names_its_key(tmp_path, capsys, monkeypatch, command, key, out):
    # --out names a regular file or nothing at all; out_dir is empty, or holds a NUL that no path may
    for name in ("intensity_field", "wigner_slice", "sit_field", "run_verify"):
        monkeypatch.setattr(cli, name, _no_work)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "taken").write_text("kept")
    cfg = {"state": {"m": 0, "sigma_x": 1.0, "sigma_y": 1.0}, "sit": {"m": 1}, "wigner": {"plane": "xy"}}
    argv = [command, "--threads", "1", "--config"]
    if key == "--out":
        argv += [write_config(tmp_path, "c.json", cfg), "--out", out]
    else:
        argv += [write_config(tmp_path, "c.json", dict(cfg, out_dir=out))]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key}: ") and err.count("\n") == 1
    assert sorted(os.listdir(tmp_path)) == ["c.json", "taken"]
    assert (tmp_path / "taken").read_text() == "kept"


# the xy slice fits and a later candidate slice overflows (the m = 12 example of tests/test_sweep.py)
_LATE_OVERFLOW = {"m": 12, "sigma_x": 0.0005131937684477312, "sigma_y": 9331.750516901184, "sign": -1,
                  "x0": -19062760.41137252, "y0": 3661415.118361576, "px0": -0.46066655972722625,
                  "py0": -98.98104090157928}


@pytest.mark.parametrize("command", ["wigner", "verify"])
def test_failed_run_leaves_an_existing_directory_as_it_was(tmp_path, capsys, monkeypatch, command):
    out = tmp_path / "o"
    out.mkdir()
    (out / "keep.txt").write_text("kept")
    if command == "wigner":
        cfg = write_config(tmp_path, "c.json", {"state": _LATE_OVERFLOW, "wigner": {"form": "candidate"}})
        argv = ["wigner", "--config", cfg, "--plane", "all"]
        key = "state.m"
    else:
        monkeypatch.setattr(oracle, "_MAX_RULE_NODES", 8)
        argv = ["verify", "--config", write_config(tmp_path, "c.json", {"state": small_state(3)})]
        key = "oracle"
    assert main(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {key}: ")
    assert os.listdir(out) == ["keep.txt"]
    assert (out / "keep.txt").read_text() == "kept"


def test_failed_run_keeps_the_files_an_earlier_run_wrote(tmp_path, capsys):
    # the failing run writes wigner_xy_candidate.csv/.pgm again before its pxpy slice overflows
    out = tmp_path / "o"
    cfg = write_config(tmp_path, "c.json", {"state": _LATE_OVERFLOW, "wigner": {"form": "candidate"}})
    argv = ["wigner", "--config", cfg, "--out", str(out)]
    assert main(argv + ["--plane", "xy"]) == 0
    before = {name: (out / name).read_bytes() for name in os.listdir(out)}
    assert sorted(before) == ["wigner_xy_candidate.csv", "wigner_xy_candidate.pgm"]
    capsys.readouterr()
    assert main(argv + ["--plane", "all"]) == 2
    assert capsys.readouterr().err.startswith("error: state.m: ")
    assert {name: (out / name).read_bytes() for name in os.listdir(out)} == before


@pytest.mark.parametrize("command, state, form, key", [
    ("field", {"m": 1, "sigma_x": 1.0, "sigma_y": 1.0, "x0": 1e17}, "standard", "state"),  # fails before its first file
    ("wigner", _LATE_OVERFLOW, "candidate", "state.m"),                                     # fails after it
], ids=["field", "wigner"])
def test_failed_run_removes_the_parents_it_made(tmp_path, capsys, command, state, form, key):
    cfg = write_config(tmp_path, "c.json", {"state": state, "wigner": {"form": form}})
    assert main([command, "--config", cfg, "--out", str(tmp_path / "a" / "b" / "c")]) == 2
    assert capsys.readouterr().err.startswith(f"error: {key}: ")
    assert os.listdir(tmp_path) == ["c.json"]


@pytest.mark.parametrize("command, taken, earlier", [
    ("wigner", "wigner_xpx_standard.pgm", "wigner_xy_standard.csv"),
    ("verify", "verify_summary.txt", "discrepancy_standard.txt"),
], ids=["wigner", "verify"])
def test_a_final_name_that_is_a_directory_renames_nothing(tmp_path, capsys, command, taken, earlier):
    # a rename cannot replace a directory with a file: every name is checked before the first rename
    out = tmp_path / "o"
    (out / taken).mkdir(parents=True)
    (out / earlier).write_text("an earlier run")
    cfg = write_config(tmp_path, "c.json", {"state": small_state(1), "wigner": {"form": "standard"}})
    assert main([command, "--config", cfg, "--threads", "1", "--out", str(out)]) == 2
    printed, err = capsys.readouterr()
    assert printed == "" and err.startswith("error: --out: ") and str(out / taken) in err
    assert sorted(os.listdir(out)) == sorted([earlier, taken])
    assert os.listdir(out / taken) == []
    assert (out / earlier).read_text() == "an earlier run"


def _write_half_then_fail(field, path):
    with open(path, "wb") as fh:
        fh.write(b"# half a file")
    raise OSError("disk full")


def _refuse(src, dst):
    raise OSError("rename refused")


@pytest.mark.parametrize("failure", ["mid-write", "replace"])
def test_failed_write_keeps_destination_and_leaves_no_temp(tmp_path, capsys, monkeypatch, failure):
    out = tmp_path / "o"
    out.mkdir()
    (out / "intensity.csv").write_bytes(b"old contents\n")
    if failure == "mid-write":
        monkeypatch.setattr(cli, "write_csv", _write_half_then_fail)
    else:
        monkeypatch.setattr(cli.os, "replace", _refuse)
    cfg = write_config(tmp_path, "c.json", {"state": small_state(1), "grid": small_grid(n=5)})
    assert main(["field", "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: --out: ")
    assert os.listdir(out) == ["intensity.csv"]
    assert (out / "intensity.csv").read_bytes() == b"old contents\n"


def _write_half_then_interrupt(field, path):
    with open(path, "wb") as fh:
        fh.write(b"# half a file")
    raise KeyboardInterrupt


def test_interrupted_write_keeps_destination_and_leaves_no_temp(tmp_path, monkeypatch):
    out = tmp_path / "o"
    out.mkdir()
    (out / "intensity.csv").write_bytes(b"old contents\n")
    monkeypatch.setattr(cli, "write_csv", _write_half_then_interrupt)
    cfg = write_config(tmp_path, "c.json", {"state": small_state(1), "grid": small_grid(n=5)})
    with pytest.raises(KeyboardInterrupt):
        main(["field", "--config", cfg, "--out", str(out)])
    assert os.listdir(out) == ["intensity.csv"]
    assert (out / "intensity.csv").read_bytes() == b"old contents\n"


def _refuse_mkdtemp(**kwargs):
    raise OSError("no room for a directory")


def test_a_failed_temporary_directory_removes_the_parents_it_made(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(tempfile, "mkdtemp", _refuse_mkdtemp)
    cfg = write_config(tmp_path, "c.json", {"state": small_state(1), "grid": small_grid(n=5)})
    assert main(["field", "--config", cfg, "--out", str(tmp_path / "a" / "b")]) == 2
    assert capsys.readouterr().err == "error: --out: no room for a directory\n"
    assert os.listdir(tmp_path) == ["c.json"]


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["022", "077"])
def test_outputs_take_the_mode_the_umask_gives(tmp_path, umask, mode):
    cfg = write_config(tmp_path, "c.json", {"state": small_state(1), "grid": small_grid(n=5)})
    old = os.umask(umask)
    try:
        assert main(["field", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    finally:
        os.umask(old)
    modes = {path.name: stat.S_IMODE(path.stat().st_mode) for path in (tmp_path / "o").iterdir()}
    assert modes == {"intensity.csv": mode, "intensity.pgm": mode}


def test_verify_at_one_thread_samples_on_one_worker(tmp_path, monkeypatch):
    # the minima-count suite's slices, the only ones verify samples (m >= 1), sample at the thread count given
    started = []

    class RecordingPool(gridio.ThreadPoolExecutor):
        def __init__(self, max_workers):
            started.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(gridio, "ThreadPoolExecutor", RecordingPool)
    run_verify(DeevParams.tied(1, 1.0, 1.0), threads=1)
    assert started and set(started) == {1}
    started.clear()
    cfg = write_config(tmp_path, "c.json", {"state": {"m": 1, "sigma_x": 1.0, "sigma_y": 1.0}})
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "cli"), "--threads", "1"]) == 0
    assert started and set(started) == {1}


@pytest.mark.parametrize("coupler, message", [
    ({"kind": "bs", "theta": math.nan}, "coupler.theta: expected a finite number, got nan"),
    ({"kind": "dcdc", "g": math.inf, "delta": 0, "t": 0}, "coupler.g: expected a finite number, got inf"),
    ({"kind": "dcdc", "g": 1, "delta": math.nan, "ratio": 2}, "coupler.delta: expected a finite number, got nan"),
], ids=["bs-theta-nan", "dcdc-g-inf", "dcdc-delta-nan"])
def test_coupler_non_finite_numbers_rejected_at_load(tmp_path, capsys, coupler, message):
    # json.load reads the NaN and Infinity tokens that json.dumps writes
    path = write_config(tmp_path, "c.json", {"coupler": coupler})
    assert main(["coupler", "--config", path]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("command, cfg, message", [
    ("field", {"state": {"m": 1, "sigma_x": 1.0}}, "state: missing required key(s) ['sigma_y']"),
    ("sit", {"sit": {"form": "sum"}}, "sit: no vortex order given (sit.m)"),
    ("coupler", {"state": small_state(1)}, "config: missing 'coupler' block"),
    ("coupler", {"coupler": {"kind": "dcdc", "g": 1.0, "delta": 0.0}},
     "coupler: dcdc needs exactly one of 't' or 'ratio'"),
    ("coupler", {"coupler": {"kind": "dcdc", "g": 1.0, "delta": 0.0, "t": 0.5, "ratio": 2.0}},
     "coupler: dcdc needs exactly one of 't' or 'ratio'"),
    ("coupler", {"coupler": {"kind": "dcdc", "g": 1.0, "delta": 0.0, "ratio": 0}},
     "coupler: ratio must be > 0, got 0.0"),
    ("verify", {"state": {"m": 0, "sigma_x": 1.0, "sigma_y": 1.0}, "seed": -1},
     "seed: expected a non-negative integer, got -1"),
], ids=["missing-key", "sit-no-order", "no-coupler", "dcdc-no-time", "dcdc-time-and-ratio", "dcdc-ratio-0",
        "verify-negative-seed"])
def test_config_errors_name_their_block(tmp_path, capsys, command, cfg, message):
    path = write_config(tmp_path, "c.json", cfg)
    out = tmp_path / "o"
    assert main([command, "--config", path] + (["--out", str(out)] if command != "coupler" else [])) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_unreadable_config_exits_2(tmp_path, capsys):
    path, out = tmp_path / "missing.json", tmp_path / "o"
    assert main(["field", "--config", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot read config {path}: ")
    assert not out.exists()


def test_field_clamp_sets_the_graymap_range(tmp_path):
    cfg = write_config(tmp_path, "c.json", {"state": small_state(1), "grid": small_grid(n=5)})
    out = tmp_path / "o"
    assert main(["field", "--config", cfg, "--out", str(out), "--clamp", "2.5"]) == 0
    assert (out / "intensity.pgm").read_bytes().split(b"\n")[1].startswith(b"# map vmin=-2.5 vmax=2.5 ")


@pytest.mark.parametrize("clamp", ["abc", "0", "-1", "inf", "nan"])
def test_field_bad_clamp_rejected_before_sampling(tmp_path, capsys, monkeypatch, clamp):
    monkeypatch.setattr(cli, "intensity_field", lambda *a, **k: pytest.fail("sampled before --clamp was checked"))
    cfg = write_config(tmp_path, "c.json", {"state": small_state(1), "grid": small_grid(n=5)})
    out = tmp_path / "o"
    assert main(["field", "--config", cfg, "--out", str(out), f"--clamp={clamp}"]) == 2
    assert capsys.readouterr().err == f"error: --clamp: expected a number with 0 < v < inf, got {clamp!r}\n"
    assert not out.exists()


@pytest.mark.parametrize("cap", [0, -1])
def test_sit_clamp_must_be_positive(tmp_path, capsys, cap):
    cfg = write_config(tmp_path, "c.json", {"sit": {"m": 1, "clamp": cap}})
    out = tmp_path / "o"
    assert main(["sit", "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: sit.clamp: expected a number with 0 < v < inf, got {float(cap)!r}\n"
    assert not out.exists()


_NOTE_XPX = ("note: grid: labels ('x', 'y') are not the xpx plane's ('x', 'px'); the grid went unused and the "
             "canonical one was sampled\n")

# case -> (command, config, the files it writes, what it prints to stderr)
_STDOUT_CLOSED = {
    "field": ("field", {"state": small_state(1), "grid": small_grid(n=5)}, ["intensity.csv", "intensity.pgm"], ""),
    "wigner": ("wigner", {"state": small_state(1), "wigner": {"plane": "xy"}},
               ["wigner_xy_standard.csv", "wigner_xy_standard.pgm"], ""),
    # stderr is printed before stdout, so the note survives the closed stdout
    "wigner-note": ("wigner", {"state": small_state(1), "wigner": {"plane": "xpx"}, "grid": small_grid(n=5)},
                    ["wigner_xpx_standard.csv", "wigner_xpx_standard.pgm"], _NOTE_XPX),
    "sit": ("sit", {"sit": {"m": 1}}, ["sit_m1_sum.csv", "sit_m1_sum.pgm"], ""),
    "verify": ("verify", {"state": small_state(1)},
               ["discrepancy_candidate.txt", "discrepancy_standard.txt", "verify_summary.txt"], ""),
    "coupler": ("coupler", {"coupler": {"kind": "bs", "theta": 0.7}}, None, ""),
}


@pytest.mark.parametrize("case", list(_STDOUT_CLOSED))
def test_closed_stdout_exits_141_and_keeps_the_files(tmp_path, case):
    # stdout is a pipe whose reader is gone before the command starts: its first write fails with EPIPE
    command, cfg, files, err = _STDOUT_CLOSED[case]
    out = tmp_path / "o"
    argv = [sys.executable, "-m", "deev.cli", command, "--config", write_config(tmp_path, "c.json", cfg)]
    src = os.path.dirname(os.path.dirname(deev.__file__))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        run = subprocess.run(argv + ([] if files is None else ["--out", str(out)]), stdout=write_end,
                             stderr=subprocess.PIPE, env=dict(os.environ, PYTHONPATH=src), text=True)
    finally:
        os.close(write_end)
    assert (run.returncode, run.stderr) == (141, err)
    # the files are renamed into place before their paths are printed, so they stay
    assert sorted(os.listdir(out)) == files if files else not out.exists()

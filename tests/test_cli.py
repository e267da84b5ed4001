import copy
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import deev
from deev import cli, oracle
from deev.cli import main
from deev.wigner import FORMS
from deev.gridio import read_csv


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


def test_field_rejects_wrong_labels(tmp_path):
    cfg = write_config(tmp_path, "c.json", {"state": small_state(),
                                            "grid": small_grid(l1="r", l2="s")})
    assert main(["field", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_malformed_json_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["field", "--config", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_unknown_key_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json", {"state": small_state(), "grids": small_grid()})
    assert main(["field", "--config", cfg]) == 2
    assert "unknown key" in capsys.readouterr().err


def test_unknown_nested_key_exits_2(tmp_path):
    st = small_state()
    st["sigmaz"] = 1.0
    cfg = write_config(tmp_path, "c.json", {"state": st})
    assert main(["field", "--config", cfg]) == 2


def test_missing_state_exits_2(tmp_path):
    cfg = write_config(tmp_path, "c.json", {"out_dir": "x"})
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


def test_sit_command_and_m0_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json", {
        "sit": {"m": [1, 2], "form": "sum", "clamp": 50.0},
        "grid": {"axis1": {"label": "r", "min": -5.0, "max": 5.0, "count": 21},
                 "axis2": {"label": "s", "min": -5.0, "max": 5.0, "count": 21}}})
    out = str(tmp_path / "s")
    assert main(["sit", "--config", cfg, "--out", out]) == 0
    assert len(os.listdir(out)) == 4
    assert main(["sit", "--config", cfg, "--out", out, "--m", "0"]) == 2
    assert "m >= 1" in capsys.readouterr().err


def test_sit_m1_matches_closed_form(tmp_path):
    cfg = write_config(tmp_path, "c.json", {
        "sit": {"m": 1, "form": "sum", "clamp": 50.0},
        "grid": {"axis1": {"label": "r", "min": -2.0, "max": 2.0, "count": 9},
                 "axis2": {"label": "s", "min": -2.0, "max": 2.0, "count": 9}}})
    out = str(tmp_path / "s")
    assert main(["sit", "--config", cfg, "--out", out]) == 0
    f = read_csv(os.path.join(out, "sit_m1_sum.csv"))
    rr, ss = f.spec.meshgrid()
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


def test_verify_m0_circular_exits_0(tmp_path, capsys):
    cfg = write_config(tmp_path, "v.json", {"state": {"m": 0, "sigma_x": 1.0, "sigma_y": 1.0}})
    out = str(tmp_path / "v")
    assert main(["verify", "--config", cfg, "--out", out]) == 0
    with open(os.path.join(out, "discrepancy_standard.txt"), encoding="ascii") as fh:
        assert fh.read().splitlines()[-1] == "verdict=match"
    assert "overall: PASS" in capsys.readouterr().out


def test_verify_starved_node_budget_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(oracle, "_MAX_NODES", 8)
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
    # the oracle only measures: a marginal quadrature that is 5% off fails the
    # marginal suite, and the run still writes its summary and both reports
    rule = oracle._rule
    monkeypatch.setattr(oracle, "_rule", lambda n: (rule(n)[0], 1.05 * rule(n)[1]))
    cfg = write_config(tmp_path, "v.json", {"state": small_state(1)})
    out = str(tmp_path / "v")
    assert main(["verify", "--config", cfg, "--out", out]) == 1
    lines = _verify_lines(out, capsys)
    assert any(line.startswith("FAIL marginal: ") for line in lines)
    assert lines[-1] == "overall: FAIL"


def test_verify_shape_mismatch_fails_through_adjudication(tmp_path, capsys, monkeypatch):
    monkeypatch.setitem(FORMS, "standard", FORMS["candidate"])
    cfg = write_config(tmp_path, "v.json", {"state": small_state(0)})
    out = str(tmp_path / "v")
    assert main(["verify", "--config", cfg, "--out", out]) == 1
    lines = _verify_lines(out, capsys)
    assert [line.split(":")[0] for line in lines if line.startswith("FAIL")] == ["FAIL adjudication"]
    assert "closed-form verdict: shape-mismatch" in lines


@pytest.mark.parametrize("m", [90, 120])
def test_verify_candidate_constant_overflow_names_state_m(tmp_path, capsys, m):
    cfg = write_config(tmp_path, "v.json", {"state": {"m": m, "sigma_x": 1.0, "sigma_y": 1.0}})
    out = tmp_path / "v"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (f"error: state.m: the candidate closed form's constant at m={m} "
                                       "does not fit a double\n")
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


@pytest.mark.parametrize("command", ["field", "verify"])
@pytest.mark.parametrize("m", [140, 200])
def test_unrepresentable_normalization_exits_2(tmp_path, capsys, command, m):
    cfg = write_config(tmp_path, "c.json", {"state": small_state(m), "grid": small_grid(n=5)})
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert f"m={m}" in capsys.readouterr().err


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
    assert run.stderr == f"error: state.m: the {form} closed form at m=400 overflows double precision on this grid\n"


@pytest.mark.parametrize("threads", ["1", "2"])
def test_field_overflow_names_state_m(tmp_path, threads):
    # psi's vortex factor overflows at m = 120 on this grid; numpy must not warn from any worker
    axis = {"min": -1000.0, "max": 1000.0, "count": 21}
    cfg = write_config(tmp_path, "c.json", {
        "state": {"m": 120, "sigma_x": 1.0, "sigma_y": 1.0},
        "grid": {"axis1": dict(axis, label="x"), "axis2": dict(axis, label="y")}})
    src = os.path.dirname(os.path.dirname(deev.__file__))
    out = tmp_path / "o"
    run = subprocess.run([sys.executable, "-m", "deev.cli", "field", "--config", cfg,
                          "--out", str(out), "--threads", threads],
                         env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True)
    assert run.returncode == 2
    assert run.stderr == "error: state.m: |psi|^2 at m=120 overflows double precision on this grid\n"
    assert not out.exists()


@pytest.mark.parametrize("command, key", [("field", "x0"), ("wigner", "x0"), ("wigner", "px0")])
def test_collapsed_default_grid_names_state(tmp_path, capsys, command, key):
    # at a center of 1e17 the default grid's 3-width span rounds away, so lo == hi
    cfg = write_config(tmp_path, "c.json", {"state": {"m": 1, "sigma_x": 1.0, "sigma_y": 1.0, key: 1e17}})
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: state: the default grid around the displaced center collapses")
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


TABLE_BASE = {
    "state": dict(small_state(1), eta_x=1 / (math.sqrt(2) * 5.0), eta_y=1 / (math.sqrt(2) * 3.0)),
    "grid": small_grid(n=5),
    "quadrature": {"abs_tol": 1e-12},
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
    (("quadrature",), "bogus", 1, "quadrature.bogus"),
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
    (("quadrature",), "truncation_radius", 7.0, "quadrature.truncation_radius"),
    (("state",), "eta_x", 0.9, "state.eta_x"),                # untied weights: verify only
    ((), "state", 3, "state: expected an object, got int"),
    (("state",), "x0", math.inf, "state.x0: expected a finite number, got inf"),
    (("quadrature",), "abs_tol", math.inf, "quadrature.abs_tol: expected a finite number, got inf"),
    (("sit",), "clamp", math.inf, "sit.clamp: expected a finite number, got inf"),
])
def test_config_table_rejects(tmp_path, capsys, block, key, value, name):
    cfg = copy.deepcopy(TABLE_BASE)
    target = cfg
    for part in block:
        target = target[part]
    target[key] = value
    path = write_config(tmp_path, "c.json", cfg)
    command = "verify" if name == "state.eta_x" else "coupler"
    assert main([command, "--config", path, "--out", str(tmp_path / "out")]) == 2
    assert name in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_config_table_base_is_valid(tmp_path, capsys):
    path = write_config(tmp_path, "c.json", TABLE_BASE)
    assert main(["coupler", "--config", path]) == 0


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
    ("sit", {"sit": {"form": "sum"}}, "sit: no vortex order given (sit.m in config or --m)"),
    ("coupler", {"state": small_state(1)}, "config: missing 'coupler' block"),
    ("coupler", {"coupler": {"kind": "dcdc", "g": 1.0, "delta": 0.0}},
     "coupler: dcdc needs either 't' or 'ratio'"),
    ("coupler", {"coupler": {"kind": "dcdc", "g": 1.0, "delta": 0.0, "ratio": 0}},
     "coupler: ratio must be > 0, got 0.0"),
], ids=["missing-key", "sit-no-order", "no-coupler", "dcdc-no-time", "dcdc-ratio-0"])
def test_config_errors_name_their_block(tmp_path, capsys, command, cfg, message):
    path = write_config(tmp_path, "c.json", cfg)
    out = tmp_path / "o"
    assert main([command, "--config", path, "--out", str(out)]) == 2
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

"""Tests of the benchmark itself (not collected by the repository's test run).

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py
"""

import json
import os
import sys

import pytest

import checks
import run
import tracing
import workloads
from workloads import Command

sys.path.insert(0, run.SRC)


def _configs(work_dir):
    cfg_dir = os.path.join(work_dir, "configs")
    return {name: open(os.path.join(cfg_dir, name)).read() for name in sorted(os.listdir(cfg_dir))}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(tmp_path, workload):
    a = workloads.make_pass(workload, 7, run.ROOT, str(tmp_path / "a"), 2)
    b = workloads.make_pass(workload, 7, run.ROOT, str(tmp_path / "b"), 2)
    c = workloads.make_pass(workload, 8, run.ROOT, str(tmp_path / "c"), 2)
    strip = [[arg.replace(str(tmp_path / d), "") for arg in cmd.argv] for d, cmds in (("a", a), ("b", b))
             for cmd in cmds]
    assert strip[:len(a)] == strip[len(a):]
    assert [(x.name, x.nodes, x.info) for x in a] == [(x.name, x.nodes, x.info) for x in b]
    assert _configs(tmp_path / "a") == _configs(tmp_path / "b")
    assert _configs(tmp_path / "a") != _configs(tmp_path / "c")


def test_verify_sweep_design_covers_the_m_range(tmp_path):
    for seed in range(20):
        cmds = workloads.make_pass("verify-sweep", seed, run.ROOT, str(tmp_path / str(seed)), 2)
        ms = [c.info["m"] for c in cmds]
        assert ms[0] == 3 and ms[1] == 0 and 6 <= ms[2] <= 8 and 9 <= ms[3] <= 16
        for c in cmds[1:]:
            st = json.load(open(c.argv[2]))["state"]
            assert 0.7 <= st["sigma_x"] <= 5.0 and 0.7 <= st["sigma_y"] <= 5.0
            assert all(st[k] != 0 for k in ("x0", "y0", "px0", "py0"))


def _run(cmd):
    return run.run_inprocess(0, cmd, None)


def _failures(cmds, results, seed=1):
    records = [{"name": c.name, "rc": rc} for c, (rc, _) in zip(cmds, results)]
    return run.check_pass(cmds, records, [out for _, out in results], checks.Checker(seed), lambda s: None)


def test_corrupted_recipe_output_counts_as_failure(tmp_path):
    cmd = workloads.make_pass("recipes", 1, run.ROOT, str(tmp_path), 2)[0]
    assert cmd.name == "field"
    rc, out = _run(cmd)
    assert _failures([cmd], [(rc, out)]) == 0
    rc, out = _run(cmd)
    path = os.path.join(cmd.out, "intensity.csv")
    data = bytearray(open(path, "rb").read())
    data[-3] = ord("0") if data[-3] != ord("0") else ord("1")
    open(path, "wb").write(bytes(data))
    assert _failures([cmd], [(rc, out)]) == 1


def _small_grid_command(tmp_path, kind):
    st = {"m": 2, "sigma_x": 1.3, "sigma_y": 0.8, "sign": -1, "x0": 0.4, "y0": -0.3, "px0": 0.5, "py0": -0.6}
    axes = {"axis1": {"label": "x", "min": -3.0, "max": 3.5, "count": 41},
            "axis2": {"label": "px", "min": -2.0, "max": 2.5, "count": 37}}
    cfg = {"state": st, "grid": axes, "wigner": {"plane": "xpx"}}
    if kind == "field":
        axes["axis2"] = {"label": "y", "min": -2.0, "max": 2.5, "count": 37}
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(cfg))
    stem = "intensity" if kind == "field" else "wigner_xpx_standard"
    out = str(tmp_path / kind)
    return Command(name=kind, argv=[kind, "--config", str(path), "--out", out, "--threads", "2"],
                   check="grid", out=out, nodes=41 * 37, threads=2,
                   info={"kind": kind, "state": st, "grid": axes, "stem": stem})


@pytest.mark.parametrize("kind", ["field", "wigner"])
def test_grid_values_agree_with_reference_and_corruption_fails(tmp_path, kind):
    cmd = _small_grid_command(tmp_path, kind)
    rc, out = _run(cmd)
    assert _failures([cmd], [(rc, out)]) == 0
    rc, out = _run(cmd)
    path = os.path.join(cmd.out, cmd.info["stem"] + ".csv")
    lines = open(path).read().splitlines()
    for k in range(2, len(lines)):      # perturb every value in its 8th digit
        a, b, v = lines[k].split(",")
        lines[k] = f"{a},{b},{float(v) * (1 + 1e-7)!r}"
    open(path, "w").write("\n".join(lines) + "\n")
    assert _failures([cmd], [(rc, out)]) == 1


def _fake_verify(tmp_path, verdicts=("match", "shape-mismatch"), overall="FAIL", rc=1):
    out = tmp_path / "verify"
    out.mkdir(exist_ok=True)
    summary = ["PASS normalization: x", "PASS marginal: x", "PASS oracle-equivalence: x",
               "PASS symmetry: x", "PASS adjudication: x", "FAIL minima-count: x",
               f"closed-form verdict: {verdicts[0]}", f"candidate-form verdict: {verdicts[1]}",
               f"overall: {overall}"]
    (out / "verify_summary.txt").write_text("\n".join(summary) + "\n")
    (out / "discrepancy_standard.txt").write_text(f"probe0=1\nverdict={verdicts[0]}\n")
    (out / "discrepancy_candidate.txt").write_text(f"probe0=1\nverdict={verdicts[1]}\n")
    cmd = Command(name="verify", argv=[], check="verify", out=str(out), info={"m": 3})
    return cmd, (rc, "\n".join(summary) + "\n")


def _verify_failures(tmp_path, edit=lambda out: out, **kwargs):
    cmd, (rc, out) = _fake_verify(tmp_path, **kwargs)
    return _failures([cmd], [(rc, edit(out))])


def test_verify_checks_count_wrong_verdicts_and_exit_codes(tmp_path):
    checker = checks.Checker(1)
    cmd, (rc, out) = _fake_verify(tmp_path)
    assert checker.check(cmd, rc, out, {}) == []
    assert len(checker.expected_failures) == 1      # minima-count FAIL is recorded, not failed
    assert _verify_failures(tmp_path) == 0
    assert _verify_failures(tmp_path, verdicts=("constant-only-mismatch", "shape-mismatch")) == 1
    assert _verify_failures(tmp_path, verdicts=("match", "match")) == 1
    assert _verify_failures(tmp_path, rc=0) == 1
    assert _verify_failures(tmp_path, overall="PASS") == 1
    assert _verify_failures(tmp_path, edit=lambda o: o.replace("PASS marginal", "FAIL marginal")) == 1


def test_coupler_checks(tmp_path):
    checker = checks.Checker(1)
    cmd = Command(name="c", argv=[], check="coupler-dcdc", info={"ratio": 1.0})
    good = "t = 0.785\na1 = +0.707106781186548+0i\na2 = +0+0.707106781186547i\n"
    assert checker.check(cmd, 0, good, {}) == []
    assert checker.check(cmd, 0, good.replace("+0.707106781186547i", "+0.6i"), {})
    assert checker.check(cmd, 2, good, {})


def _spec_names(section):
    with open(run.BENCHMARK_JSON) as fh:
        return [m["name"] for m in json.load(fh)[section]]


def test_end_to_end_metric_names_match_benchmark_json():
    passes = [{"seconds": 2.0, "commands": [{"seconds": 1.0 + i / 10, "rss_mb": 90.0, "nodes": 5}
                                            for i in range(3)]}] * 2
    metrics, label = run.end_to_end(passes, [0.7, 0.8, 0.9])
    assert list(metrics) == _spec_names("end_to_end")
    assert all(v > 0 for v in metrics.values())
    assert label.startswith("p100")


def test_tail_is_the_percentile_with_ten_samples_beyond():
    value, label = run.tail(list(range(200)))
    assert value == 189 and label.startswith("p95")
    value, label = run.tail(list(range(40)))
    assert value == 39 and label.startswith("p100")


def test_per_layer_metric_names_match_benchmark_json():
    names = ["import.deev_s", "import.modules_loaded", "import.scipy_loaded", "gridio.sample_speedup"]
    names += list(tracing.layer_metrics([], {})) + ["trace.overhead_frac", "trace.spans"]
    assert sorted(names) == sorted(_spec_names("per_layer"))


COUNTS = ("state.psi_calls", "state.psi_points", "special.alp_eval_points", "wigner.slice_nodes",
          "wigner.sit_nodes", "gridio.csv_bytes", "gridio.pgm_bytes", "oracle.wigner_points",
          "oracle.psi_points_per_point", "coupling.calls")


def test_traced_counts_repeat_exactly(tmp_path):
    cmds = workloads.make_pass("recipes", 3, run.ROOT, str(tmp_path / "r"), 2)
    cmds = [c for c in cmds if c.name in ("field", "sit", "coupler-dcdc-ratio")]
    cmds.append(_small_grid_command(tmp_path, "wigner"))
    cfg = tmp_path / "v.json"
    cfg.write_text(json.dumps({"state": {"m": 1, "sigma_x": 1.0, "sigma_y": 1.2, "x0": 0.3,
                                         "y0": -0.2, "px0": 0.1, "py0": 0.2}, "seed": 5}))
    cmds.append(Command(name="verify", argv=["verify", "--config", str(cfg), "--out",
                                             str(tmp_path / "v"), "--threads", "2"],
                        check="verify", out=str(tmp_path / "v"), info={"m": 1}))
    results = []
    for _ in range(2):
        tracer = tracing.Tracer()
        with tracer:
            _, failed = run.inprocess_pass(cmds, checks.Checker(3), lambda s: None, tracer)
        assert failed == 0
        results.append(tracing.layer_metrics(tracer.spans, tracer.errors))
    assert all(results[0][k] > 0 for k in COUNTS)
    assert {k: results[0][k] for k in COUNTS} == {k: results[1][k] for k in COUNTS}
    assert results[0]["verify.self_s"] < results[0]["verify.run_s"]
    probes = [run.import_probes() for _ in range(2)]
    assert probes[0]["import.modules_loaded"] == probes[1]["import.modules_loaded"] > 0


def test_self_time_subtracts_the_union_of_children():
    spans = [tracing.Span(1, "p", 0.0, 10.0, None, 0, 1), tracing.Span(2, "c", 1.0, 4.0, 1, 0, 1),
             tracing.Span(3, "c", 3.0, 5.0, 1, 0, 1), tracing.Span(4, "c", 9.0, 12.0, 1, 0, 1)]
    assert tracing.self_times(spans)[1] == pytest.approx(10.0 - 4.0 - 1.0)

"""The benchmark's patch targets and command lines stay valid.

``bench/tracing.py`` wraps each ``(module, attribute)`` of its BOUNDARIES by
name; a renamed or moved function would silently drop its span from the
per-layer metrics. ``bench/workloads.py`` sends the same harness flags to
every command, so an edit of the CLI's command table must keep accepting
them. The benchmark files are only imported here, never edited.
"""

import importlib
import importlib.util
import json
import os

import pytest

from deev.state import DeevParams
from deev.verify import run_verify

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", os.path.join(ROOT, "bench", f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _bench_module("tracing")
workloads = _bench_module("workloads")


@pytest.mark.parametrize("module, attr", [b[:2] for b in tracing.BOUNDARIES],
                         ids=[f"{b[0]}.{b[1]}" for b in tracing.BOUNDARIES])
def test_tracer_target_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))


def test_verify_calls_go_through_the_patched_names(tmp_path):
    # adjudicate and run_verify look these up in deev.verify's globals at call time
    with tracing.Tracer() as tracer:
        run_verify(DeevParams.tied(0, 1.0, 1.0), out_dir=str(tmp_path))
    names = {s.name for s in tracer.spans}
    assert {"oracle.calibrate", "oracle.wigner", "oracle.marginal", "oracle.norm",
            "gridio.write_report"} <= names
    calibrations = {s.id for s in tracer.spans if s.name == "oracle.calibrate"}
    assert any(s.name == "oracle.wigner" and s.parent in calibrations for s in tracer.spans)
    # oracle.psi_points_per_point counts the psi points under each oracle span
    name_of = {s.id: s.name for s in tracer.spans}
    psi_parents = {name_of.get(s.parent) for s in tracer.spans if s.name == "state.psi"}
    assert {"oracle.wigner", "oracle.marginal", "oracle.norm"} <= psi_parents


def test_cli_calls_go_through_the_patched_names(tmp_path):
    # each command looks its library functions up in deev.cli's globals at call time
    from deev import cli

    ratio = tmp_path / "ratio.json"
    ratio.write_text(json.dumps({"coupler": {"kind": "dcdc", "g": 1.0, "delta": 0.2, "ratio": 1.5}}))
    field = os.path.join(ROOT, "configs", "fig2_intensity.json")
    with tracing.Tracer() as tracer:
        assert cli.main(["field", "--config", field, "--out", str(tmp_path / "o")]) == 0
        assert cli.main(["coupler", "--config", str(ratio)]) == 0
    names = {s.name for s in tracer.spans}
    assert {"state.intensity_field", "gridio.write_csv", "gridio.write_pgm", "coupling.solve",
            "coupling.dcdc_coupler", "coupling.ellipticity"} <= names


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_parser_accepts_every_benchmark_argv(tmp_path, workload):
    from deev import cli

    for cmd in workloads.make_pass(workload, 1, ROOT, str(tmp_path), 2):
        assert cli.build_parser().parse_args(cmd.argv).command == cmd.argv[0]

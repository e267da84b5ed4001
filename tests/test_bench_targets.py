"""The benchmark tracer's patch targets stay in place.

``bench/tracing.py`` wraps each ``(module, attribute)`` of its BOUNDARIES by
name; a renamed or moved function would silently drop its span from the
per-layer metrics. The tracer is only imported here, never edited.
"""

import importlib
import importlib.util
import os

import pytest

from deev.state import DeevParams
from deev.verify import run_verify

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location("bench_tracing", os.path.join(ROOT, "bench", "tracing.py"))
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)


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

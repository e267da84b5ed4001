"""In-process tracing of ``deev.cli.main`` at the module boundaries.

Wrappers are installed from here, on the names each calling module looks
up, and removed afterwards; ``src/deev`` is not modified. The boundaries:

* cli -> state, wigner, gridio, verify, coupling (names imported into ``deev.cli``);
* verify -> oracle, and oracle -> oracle_wigner (calls from the calibration);
* oracle -> state.psi, and state -> psi (the intensity sampler);
* state / wigner -> gridio.sample_field, whose sampled callback is itself a
  span, so sample_field's self time is its own work (grids, thread pool,
  finiteness check);
* wigner -> special.alp_eval, and verify -> gridio.write_report.

A span is (id, name, start, end, parent id, command id, count). Spans are
kept in memory and written out at the end. Callbacks run in sample_field's
worker threads get their parent explicitly; everything else takes the
innermost open span of its own thread.
"""

import gzip
import importlib
import itertools
import os
import threading
import time
from collections import defaultdict, namedtuple

import numpy as np

Span = namedtuple("Span", "id name start end parent cmd count")

# (module, attribute, span name, how to count the work of one call)
BOUNDARIES = (
    ("deev.cli", "intensity_field", "state.intensity_field", "field"),
    ("deev.cli", "wigner_slice", "wigner.slice", "field"),
    ("deev.cli", "sit_field", "wigner.sit_field", "field"),
    ("deev.cli", "write_csv", "gridio.write_csv", "file"),
    ("deev.cli", "write_pgm", "gridio.write_pgm", "file"),
    ("deev.cli", "run_verify", "verify.run", None),
    ("deev.cli", "bs_coupler", "coupling.bs_coupler", None),
    ("deev.cli", "dcdc_coupler", "coupling.dcdc_coupler", None),
    ("deev.cli", "dcdc_time_for_ratio", "coupling.solve", None),
    ("deev.cli", "coupler_to_ellipticity", "coupling.ellipticity", None),
    ("deev.verify", "calibrate_constant_detailed", "oracle.calibrate", None),
    ("deev.verify", "oracle_wigner", "oracle.wigner", None),
    ("deev.verify", "oracle_marginal_xy", "oracle.marginal", None),
    ("deev.verify", "oracle_norm", "oracle.norm", None),
    ("deev.verify", "write_report", "gridio.write_report", None),
    ("deev.oracle", "oracle_wigner", "oracle.wigner", None),
    ("deev.oracle", "psi", "state.psi", "size"),
    ("deev.state", "psi", "state.psi", "size"),
    ("deev.state", "sample_field", "gridio.sample_field", "field"),
    ("deev.wigner", "sample_field", "gridio.sample_field", "field"),
    ("deev.wigner", "alp_eval", "special.alp_eval", "size"),
)


def _count(kind, args, result):
    if kind == "size":
        return int(np.size(result))
    if kind == "field":
        return int(result.values.size)
    if kind == "file":
        return os.path.getsize(args[1])
    return 1


class Tracer:
    """Collects spans while installed; one instance per traced run."""

    def __init__(self):
        self.spans = []
        self.errors = defaultdict(int)      # exception class name -> times raised
        self._raised = set()
        self.cmd = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._saved = []

    def _stack(self):
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def span(self, name, fn, kind=None, parent=None):
        """Wrap ``fn`` so each call records a span."""
        def traced(*args, **kwargs):
            stack = self._stack()
            sid = next(self._ids)
            par = parent if parent is not None else (stack[-1] if stack else None)
            if name == "gridio.sample_field":
                args = (self.span("gridio.sample_fn", args[0], parent=sid),) + args[1:]
            stack.append(sid)
            result, ok = None, False
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            except Exception as err:
                if id(err) not in self._raised:     # count where it was raised, not re-raised
                    self._raised.add(id(err))
                    self.errors[type(err).__name__] += 1
                raise
            finally:
                t1 = time.perf_counter()
                stack.pop()
                n = _count(kind, args, result) if ok else 0
                self.spans.append(Span(sid, name, t0, t1, par, self.cmd, n))
        return traced

    def install(self):
        for mod_name, attr, name, kind in BOUNDARIES:
            mod = importlib.import_module(mod_name)
            orig = getattr(mod, attr)
            self._saved.append((mod, attr, orig))
            setattr(mod, attr, self.span(name, orig, kind))

    def uninstall(self):
        for mod, attr, orig in reversed(self._saved):
            setattr(mod, attr, orig)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def run_command(self, cmd_id, fn):
        """Run one command as a ``cli.main`` root span."""
        self.cmd = cmd_id
        try:
            return self.span("cli.main", fn)()
        finally:
            self.cmd = None

    def write(self, path):
        with gzip.open(path, "wt", encoding="ascii") as fh:
            fh.write("\t".join(Span._fields) + "\n")
            for s in self.spans:
                fh.write("\t".join(map(str, s)) + "\n")


def _union_length(intervals, lo, hi):
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans, child_filter=None):
    """Span id -> duration minus the part of it covered by its child spans."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None and (child_filter is None or child_filter(s.name)):
            children[s.parent].append((s.start, s.end))
    return {s.id: (s.end - s.start) - _union_length(children[s.id], s.start, s.end) for s in spans}


def layer_metrics(spans, errors):
    """Per-layer metrics of one traced pass (names as in BENCHMARK.json)."""
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def total(name):
        return sum(s.end - s.start for s in by_name[name])

    def count(name):
        return sum(s.count for s in by_name[name])

    selfs = self_times(spans)
    oracle_selfs = self_times(spans, child_filter=lambda n: n.startswith("oracle."))
    oracle_ids = {s.id for s in by_name["oracle.wigner"]}
    psi_under_oracle = sum(s.count for s in by_name["state.psi"] if s.parent in oracle_ids)
    points = len(by_name["oracle.wigner"])
    # the CLI writes every field it samples to exactly one CSV
    csv_rows = count("wigner.slice") + count("wigner.sit_field") + count("state.intensity_field")
    return {
        "cli.self_s": sum(selfs[s.id] for s in by_name["cli.main"]),
        "coupling.calls": sum(len(v) for k, v in by_name.items() if k.startswith("coupling.")),
        "coupling.solve_s": total("coupling.solve"),
        "state.psi_calls": len(by_name["state.psi"]),
        "state.psi_points": count("state.psi"),
        "state.psi_s": total("state.psi"),
        "state.intensity_field_s": total("state.intensity_field"),
        "special.alp_eval_points": count("special.alp_eval"),
        "special.alp_eval_s": total("special.alp_eval"),
        "wigner.slice_s": total("wigner.slice"),
        "wigner.slice_nodes": count("wigner.slice"),
        "wigner.sit_field_s": total("wigner.sit_field"),
        "wigner.sit_nodes": count("wigner.sit_field"),
        "gridio.write_csv_s": total("gridio.write_csv"),
        "gridio.csv_bytes": count("gridio.write_csv"),
        "gridio.csv_ns_per_row": 1e9 * total("gridio.write_csv") / csv_rows if csv_rows else 0.0,
        "gridio.write_pgm_s": total("gridio.write_pgm"),
        "gridio.pgm_bytes": count("gridio.write_pgm"),
        "gridio.sample_field_self_s": sum(selfs[s.id] for s in by_name["gridio.sample_field"]),
        "gridio.write_report_s": total("gridio.write_report"),
        "oracle.wigner_points": points,
        "oracle.wigner_s": total("oracle.wigner"),
        "oracle.ms_per_point": 1e3 * total("oracle.wigner") / points if points else 0.0,
        "oracle.psi_points_per_point": psi_under_oracle / points if points else 0.0,
        "oracle.calibrate_s": total("oracle.calibrate"),
        "oracle.marginal_s": total("oracle.marginal"),
        "oracle.norm_s": total("oracle.norm"),
        "oracle.convergence_errors": errors.get("OracleConvergenceError", 0),
        "verify.run_s": total("verify.run"),
        "verify.self_s": sum(oracle_selfs[s.id] for s in by_name["verify.run"]),
    }

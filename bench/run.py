"""Benchmark of the deev CLI: three workloads, end-to-end and per-layer metrics.

Usage (from the repository root):

    python3 bench/run.py --workload recipes --seed 1 --seconds 25 --trace 0

``--trace 0`` runs every command as a fresh ``python -m deev.cli`` process
(``src`` on PYTHONPATH, explicit ``--threads``), one call at a time from a
single closed-loop client, and prints the end-to-end metrics. ``--trace 1``
runs the same generated commands in-process through ``deev.cli.main`` with
span wrappers at the module boundaries and prints the per-layer metrics.
Both check every output. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}. Generated configs
and outputs live in ``.bench_tmp/`` and are removed at exit; a record of
each run (host facts, every command, the metrics, and for traced runs the
spans) is written to ``.bench_results/``.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from importlib import metadata

import checks
import tracing
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")
SETUP_CALLS = 5
IMPORT_PROBES = 3
COMMAND_TIMEOUT_S = 150
TAIL_BEYOND = 10
TAIL_MIN_PCT = 90

IMPORT_PROBE = """
import json, sys, time
before = set(sys.modules)
t0 = time.perf_counter()
import deev
dt = time.perf_counter() - t0
new = set(sys.modules) - before
print(json.dumps({"s": dt, "modules": len(new),
                  "scipy": int(any(m == "scipy" or m.startswith("scipy.") for m in new))}))
"""


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(argv, stdout_path):
    """Run one fresh process; return (exit code, seconds, max RSS in MiB)."""
    with open(stdout_path, "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=out,
                                stderr=subprocess.DEVNULL, stdin=subprocess.DEVNULL)
        killer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        elapsed = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)     # reaped here, not by Popen
    return proc.returncode, elapsed, usage.ru_maxrss / 1024.0


def host_facts():
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    commit = None
    if os.path.exists(os.path.join(ROOT, ".git")):     # a bare checkout has no commit to report
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except OSError:
            pass
    src = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(SRC, "deev"))):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    src.update(name.encode() + b"\0" + fh.read())
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": version("numpy"), "scipy": version("scipy"), "machine": platform.machine(),
            "git_commit": commit, "src_sha256": src.hexdigest()}


def tail(values):
    """(value, label) of the highest percentile with TAIL_BEYOND samples beyond it.

    Below TAIL_MIN_PCT that percentile is no tail: with 20 samples it is the
    median. Runs that short report the maximum, labelled as such.
    """
    s = sorted(values)
    n = len(s)
    pct = 100.0 * (n - TAIL_BEYOND) / n
    if pct < TAIL_MIN_PCT:
        return s[-1], (f"p100 (max) of {n} commands: the highest percentile with {TAIL_BEYOND} "
                       f"samples beyond it, p{max(pct, 0):.0f}, is below p{TAIL_MIN_PCT}")
    return s[n - TAIL_BEYOND - 1], f"p{pct:.0f} of {n} commands ({TAIL_BEYOND} samples beyond it)"


def end_to_end(passes, setup_times):
    """End-to-end metrics from per-pass command records (trace off)."""
    lat = [r["seconds"] for p in passes for r in p["commands"]]
    nodes = sum(r["nodes"] for p in passes for r in p["commands"])
    tail_value, tail_label = tail(lat)
    metrics = {
        "wall_s": statistics.median(p["seconds"] for p in passes),
        "cmd_p50_s": statistics.median(lat),
        "cmd_tail_s": tail_value,
        "setup_s": statistics.median(setup_times),
        "nodes_per_s": nodes / sum(lat),
        "peak_rss_mb": statistics.median(max(r["rss_mb"] for r in p["commands"]) for p in passes),
    }
    return metrics, tail_label


def run_untraced(cmds, n_passes, work_dir, checker, log):
    passes, failed = [], 0
    for _ in range(n_passes):
        records = []
        t0 = time.perf_counter()
        for i, cmd in enumerate(cmds):
            stdout_path = os.path.join(work_dir, f"stdout-{i}.txt")
            rc, secs, rss = spawn([sys.executable, "-m", "deev.cli"] + cmd.argv, stdout_path)
            records.append({"name": cmd.name, "rc": rc, "seconds": secs, "rss_mb": rss,
                            "nodes": cmd.nodes, "threads": cmd.threads})
        elapsed = time.perf_counter() - t0
        stdouts = []
        for i in range(len(cmds)):
            with open(os.path.join(work_dir, f"stdout-{i}.txt"), encoding="utf-8", errors="replace") as fh:
                stdouts.append(fh.read())
        failed += check_pass(cmds, records, stdouts, checker, log)
        passes.append({"seconds": elapsed, "commands": records})
    return passes, failed


def check_pass(cmds, records, stdouts, checker, log):
    """Check each command's outputs, then delete them; return the failure count."""
    failed, done = 0, {}
    for cmd, rec, out in zip(cmds, records, stdouts):
        problems = checker.check(cmd, rec["rc"], out, done)
        rec["problems"] = problems
        failed += bool(problems)
        for p in problems:
            log(f"FAILED {p}")
        done[cmd.name] = cmd
    for cmd in cmds:
        if cmd.out:
            shutil.rmtree(cmd.out, ignore_errors=True)
    return failed


def run_inprocess(cmd_id, cmd, tracer):
    from deev import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        def call():
            # the exit codes a fresh process would give
            try:
                return cli.main(cmd.argv)
            except SystemExit as err:
                return err.code
            except Exception:
                traceback.print_exc()
                return 1
        rc = tracer.run_command(cmd_id, call) if tracer else call()
    return rc, buf.getvalue()


def inprocess_pass(cmds, checker, log, tracer=None):
    """One in-process pass; returns (seconds, failures)."""
    records, stdouts = [], []
    t0 = time.perf_counter()
    for i, cmd in enumerate(cmds):
        rc, out = run_inprocess(i, cmd, tracer)
        records.append({"name": cmd.name, "rc": rc})
        stdouts.append(out)
    elapsed = time.perf_counter() - t0
    return elapsed, check_pass(cmds, records, stdouts, checker, log)


def import_probes():
    runs = []
    for _ in range(IMPORT_PROBES):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=child_env(),
                             capture_output=True, text=True, timeout=COMMAND_TIMEOUT_S, check=True)
        runs.append(json.loads(out.stdout))
    return {"import.deev_s": statistics.median(r["s"] for r in runs),
            "import.modules_loaded": runs[0]["modules"],
            "import.scipy_loaded": runs[0]["scipy"]}


def sample_speedup(threads, repeats=3):
    """gridio.sample_field on a 601^2 standard Wigner slice: 1 thread over ``threads``."""
    from deev import DeevParams, wigner4d
    from deev.gridio import AxisSpec, GridSpec, sample_field

    params = DeevParams.tied(3, 2.0, 1.5)
    grid = GridSpec(AxisSpec("x", -6.0, 6.0, 601), AxisSpec("y", -4.5, 4.5, 601))

    def fn(a, b):
        return wigner4d(params, a, b, 0.1, -0.2)

    def best(n):
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            sample_field(fn, grid, threads=n)
            times.append(time.perf_counter() - t0)
        return statistics.median(times)

    return best(1) / best(threads)


def run_traced(cmds, threads, seconds, checker, log, spans_path):
    """Untraced and traced in-process passes in pairs, until ``seconds`` is used.

    Every per-layer metric is the median over the traced passes; the counts
    are the same in each. The first traced pass's spans are written out.
    """
    layer = import_probes()
    layer["gridio.sample_speedup"] = sample_speedup(threads)
    plain, traced, per_pass, tracers, failed = [], [], [], [], 0
    t_start = time.perf_counter()
    while True:
        t_pair = time.perf_counter()
        secs, bad = inprocess_pass(cmds, checker, log)
        plain.append(secs)
        failed += bad
        tracer = tracing.Tracer()
        with tracer:
            secs, bad = inprocess_pass(cmds, checker, log, tracer)
        traced.append(secs)
        failed += bad
        per_pass.append(tracing.layer_metrics(tracer.spans, tracer.errors))
        tracers.append(tracer)
        pair = time.perf_counter() - t_pair
        if time.perf_counter() - t_start + pair > seconds:
            break
    tracers[0].write(spans_path)
    for name in per_pass[0]:
        layer[name] = statistics.median(p[name] for p in per_pass)
    layer["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1.0
    layer["trace.spans"] = len(tracers[0].spans)
    attempted = 2 * len(cmds) * len(per_pass)
    return layer, attempted, failed, {"untraced_pass_s": plain, "traced_pass_s": traced}


def metric_specs(section):
    with open(BENCHMARK_JSON, encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    for needed in (os.path.join(SRC, "deev", "cli.py"), os.path.join(ROOT, "configs")):
        if not os.path.exists(needed):
            print(f"error: {needed} is missing; run from a deev checkout", file=sys.stderr)
            return 2
    units = metric_specs("per_layer" if args.trace else "end_to_end")

    def log(line):
        print(line, flush=True)

    host = host_facts()
    threads = host["nproc"]
    log(f"deev benchmark: workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
        f"trace={args.trace} threads={threads}")
    log("host: " + json.dumps(host, sort_keys=True))
    tmp_root = os.path.join(ROOT, ".bench_tmp")
    results_dir = os.path.join(ROOT, ".bench_results")
    os.makedirs(tmp_root, exist_ok=True)
    os.makedirs(results_dir, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work_dir = tempfile.mkdtemp(prefix=stem + "-", dir=tmp_root)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "host": host}
    try:
        cmds = workloads.make_pass(args.workload, args.seed, ROOT, work_dir, threads)
        checker = checks.Checker(args.seed)
        if args.trace:
            sys.path.insert(0, SRC)
            metrics, attempted, failed, extra = run_traced(
                cmds, threads, args.seconds, checker, log,
                os.path.join(results_dir, stem + ".spans.tsv.gz"))
            record.update(extra)
        else:
            setup = [spawn([sys.executable, "-m", "deev.cli", "--help"],
                           os.path.join(work_dir, "help.txt"))[1] for _ in range(SETUP_CALLS)]
            n_passes = workloads.passes_for(args.workload, args.seconds)
            passes, failed = run_untraced(cmds, n_passes, work_dir, checker, log)
            attempted = sum(len(p["commands"]) for p in passes)
            metrics, tail_label = end_to_end(passes, setup)
            log(f"cmd_tail_s is {tail_label}")
            record.update(passes=passes, setup_s=setup)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    for note in checker.expected_failures[:8]:
        log(f"expected: {note}")
    log(f"expected failures: {len(checker.expected_failures)}")
    log(f"failed_frac: {failed}/{attempted} = {failed / attempted:.4f}")
    for name, value in metrics.items():
        log(f"  {name} = {value:.6g} {units.get(name, '')}")
    record["metrics"] = metrics
    with open(os.path.join(results_dir, stem + ".json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                          for name, unit in units.items()}}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

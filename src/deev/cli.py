"""Command-line front end: field, wigner, sit, verify, coupler.

One table, ``_COMMANDS``, names each command's handler, help text, modules and own
flags; a module's names are the ones ``deev._EXPORTS`` lists, and the plane and form
choices are ``deev.PLANES``, ``deev.FORMS`` and ``deev.SIT_FORMS``. ``main`` reads the
config, checks ``--clamp``, makes a writing command's output directory before any work
starts and runs the handler inside ``_outputs``; every error it names exits 2 as
``error: <key>: <message>``. A stdout whose reader went away exits 141, for every command.

``_outputs`` is the one home of how a file reaches the output directory: every file a command writes, grids
and ``verify``'s reports alike, is staged in one temporary directory there, renamed into place only when the
whole run succeeds and removed when it fails. The library writers write plainly to the path they are given.

Configuration is a strict JSON document; unknown keys anywhere are
rejected (exit code 2) so a typo cannot silently fall back to a default.
Outputs are byte-identical across runs and thread counts.
"""

import argparse
import errno
import io
import json
import math
import os
import sys
from contextlib import contextmanager, redirect_stderr, redirect_stdout, suppress
from importlib import import_module
from pathlib import Path

from . import _EXPORTS, _MODULE_OF, FORMS, PLANES, SIT_FORMS

__all__ = ["main", "ConfigError", "load_config"]


def _load(*modules):
    """Bind each module and its ``deev._EXPORTS`` names here; a name patched first is kept."""
    for module_name in modules:
        module = import_module(f".{module_name}", __package__)
        globals().setdefault(module_name, module)
        for name in _EXPORTS[module_name]:
            globals().setdefault(name, getattr(module, name))


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _load(_MODULE_OF[name])
    return globals()[name]


class ConfigError(ValueError):
    pass


_PLANES = (*PLANES, "all")
_AXIS = {"label": (str, True), "min": (float, True), "max": (float, True), "count": (int, True)}
_COUPLERS = {
    "bs": {"theta": (float, True), "phi": (float, False)},
    "dcdc": {"g": (float, True), "delta": (float, True), "t": (float, False), "ratio": (float, False)},
}

# {block: {key: (type, required)}}. A type is float, int, str, dict (a nested block with
# its own row), list (one integer or a non-empty list of distinct ones) or a tuple of
# allowed values. Numbers are converted to the named type.
_SCHEMA = {
    "config": {**dict.fromkeys(("state", "coupler", "grid", "sit", "wigner"), (dict, False)),
               "out_dir": (str, False), "seed": (int, False)},
    "state": {"m": (int, True), "sigma_x": (float, True), "sigma_y": (float, True),
              "sign": (int, False),
              **dict.fromkeys(("x0", "y0", "px0", "py0", "eta_x", "eta_y"), (float, False))},
    "grid": {"axis1": (dict, True), "axis2": (dict, True)},
    "grid.axis1": _AXIS,
    "grid.axis2": _AXIS,
    "sit": {"m": (list, False), "form": (SIT_FORMS, False), "clamp": (float, False)},
    "wigner": {"plane": (_PLANES, False), "form": (FORMS, False)},
    "coupler": {"kind": (tuple(_COUPLERS), True),
                **{k: (t, False) for row in _COUPLERS.values() for k, (t, _) in row.items()}},
}


@contextmanager
def _names(key, errors=ValueError):
    """Re-raise a library error from the block as a config error naming ``key``."""
    try:
        yield
    except errors as err:
        raise ConfigError(f"{key}: {err}") from err


def _value(v, kind, where):
    if kind is dict:
        return _check(v, where.removeprefix("config."))
    if kind is list:
        items = [_value(x, int, where) for x in (v if isinstance(v, list) else [v])]
        if not items or len(set(items)) < len(items):
            want = "distinct integers" if items else "at least one integer"
            raise ConfigError(f"{where}: expected {want}, got {v!r}")
        return items
    if isinstance(kind, tuple):
        ok, want = v in kind, f"one of {list(kind)}"
    elif kind is str:
        ok, want = isinstance(v, str), "a string"
    else:
        ok = (isinstance(v, (int, float)) and not isinstance(v, bool)
              and (kind is float or isinstance(v, int) or v.is_integer()))
        want = "an integer" if kind is int else "a number"
        # json.load accepts NaN and Infinity, and a float cannot hold a huge integer
        if ok and not abs(v) <= sys.float_info.max:
            ok, want = False, "a finite number"
    if not ok:
        raise ConfigError(f"{where}: expected {want}, got {v!r}")
    return kind(v) if kind in (int, float) else v


def _check(block, where, row=None):
    """Validate ``block`` against its table row and return it with converted values."""
    row = _SCHEMA[where] if row is None else row
    if not isinstance(block, dict):
        raise ConfigError(f"{where}: expected an object, got {type(block).__name__}")
    unknown = sorted(set(block) - set(row))
    if unknown:
        raise ConfigError(f"{where}.{unknown[0]}: unknown key; allowed: {sorted(row)}")
    missing = [key for key, (_, required) in row.items() if required and key not in block]
    if missing:
        raise ConfigError(f"{where}: missing required key(s) {missing}")
    return {key: _value(v, row[key][0], f"{where}.{key}") for key, v in block.items()}


def load_config(path):
    """Read a JSON config and check every block against the table."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err
    # besides JSONDecodeError: bytes that are not UTF-8, an integer past int's digit limit, deep nesting
    except (ValueError, RecursionError) as err:
        raise ConfigError(f"config {path} is not valid JSON: {err}") from err
    return _check(raw, "config")


def _state_params(cfg):
    if "state" not in cfg:
        raise ConfigError("config: missing 'state' block")
    kwargs = dict(cfg["state"])
    m, sx, sy = kwargs.pop("m"), kwargs.pop("sigma_x"), kwargs.pop("sigma_y")
    if ("eta_x" in kwargs) != ("eta_y" in kwargs):
        raise ConfigError("state.eta_x/state.eta_y: give both eta_x and eta_y or neither")
    build = DeevParams.from_sigmas if "eta_x" in kwargs else DeevParams.tied
    with _names("state"):
        return build(m, sx, sy, **kwargs)


def _grid(cfg):
    if "grid" not in cfg:
        return None
    axes = []
    for name in ("axis1", "axis2"):
        a = cfg["grid"][name]
        with _names(f"grid.{name}"):
            axes.append(AxisSpec(label=a["label"], lo=a["min"], hi=a["max"], count=a["count"]))
    return GridSpec(*axes)


@contextmanager
def _default_grid():
    """Re-raise a default grid's axis error naming ``state``: its span leaves the double range
    (the axis error is also an OverflowError), or else the displacement swamps the width (lo == hi)."""
    try:
        yield
    except ValueError as err:
        how = "leaves the double range" if isinstance(err, OverflowError) else "collapses"
        raise ConfigError(f"state: the default grid around the displaced center {how}: {err}") from err


@contextmanager
def _outputs(out_dir, key):
    """Make ``out_dir``; yield ``stage(name)``, which returns ``name``'s path in the run's temporary directory.

    The run's files are staged in one ``tempfile.mkdtemp`` directory inside ``out_dir``, each made by its writer
    with ``open``'s mode, 0o666 less the umask. When the block ends and no final name is a directory (a rename
    cannot replace one), each file is renamed to its name; then what the block printed to stderr is printed,
    first, so a closed stdout cannot lose it, then its stdout and the paths. If the block or a rename raises, the
    temporary directory and the directories made are removed, so a failed command prints nothing but its error and
    leaves earlier files as they were. An OSError on the files names ``key``; one from printing does not.
    """
    import shutil       # here, not at the top: only a writing command stages files
    import tempfile
    printed, noted = io.StringIO(), io.StringIO()
    staged = []     # (temporary path, final path)
    with _names(key, OSError):
        if "\0" in out_dir:    # os calls raise ValueError for it, not the OSError named here
            raise OSError(f"embedded null byte in {out_dir!r}")
        made = [d for d in (Path(out_dir), *Path(out_dir).parents) if not d.is_dir()]    # deepest first
        os.makedirs(out_dir, exist_ok=True)
        tmp = None

        def stage(name):
            staged.append((os.path.join(tmp, name), os.path.join(out_dir, name)))
            return staged[-1][0]

        try:
            tmp = tempfile.mkdtemp(prefix=".tmp-", dir=out_dir)
            with redirect_stdout(printed), redirect_stderr(noted):
                yield stage
            for _, path in staged:
                if os.path.isdir(path) and not os.path.islink(path):
                    raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
            for tmp_path, path in staged:
                os.replace(tmp_path, path)
            os.rmdir(tmp)
        except BaseException:
            if tmp is not None:     # mkdtemp itself may have failed
                shutil.rmtree(tmp, ignore_errors=True)
            with suppress(OSError):     # a cleanup error must not hide the one raised
                for directory in made:
                    os.rmdir(directory)
            raise
    print(noted.getvalue(), end="", file=sys.stderr)
    print(printed.getvalue(), end="")
    for _, path in staged:
        print(path)


def _clamp(value, key):
    """Check a graymap clamp: 'auto' (or None) passes, anything else must be a number with 0 < v < inf."""
    if value is None or value == "auto":
        return "auto"
    try:
        v = float(value)
    except ValueError:
        v = math.nan
    if not 0 < v < math.inf:
        raise ConfigError(f"{key}: expected a number with 0 < v < inf, got {value!r}")
    return v


def _write_field(args, field, stem, clamp):
    """Write ``field`` as ``stem``.csv and ``stem``.pgm through the run's stager."""
    write_csv(field, args.stage(stem + ".csv"))
    write_pgm(field, args.stage(stem + ".pgm"), clamp=clamp)


def cmd_field(cfg, args):
    params = _state_params(cfg)
    with _names("state"):
        params.norm_constant
    grid = _grid(cfg)
    if grid is None:
        with _default_grid():
            lo, hi = params.phase_point(-3.4, -3.4, 0.0, 0.0), params.phase_point(3.4, 3.4, 0.0, 0.0)
            grid = GridSpec(axis1=AxisSpec("x", lo[0], hi[0], 201), axis2=AxisSpec("y", lo[1], hi[1], 201))
    # the grid's config error is not an OverflowError, so the outer name passes it through
    with _names("state.m", OverflowError), _names("grid"):
        field = intensity_field(params, grid, threads=args.threads)
    _write_field(args, field, "intensity", args.clamp)
    return 0


def cmd_wigner(cfg, args):
    params = _state_params(cfg)
    with _names("state"):
        params.scaled
    with _names("state.eta_x/state.eta_y"):
        wigner._require_tied(params, "wigner")
    wb = cfg.get("wigner", {})
    form = wb.get("form", FORMS[0])
    plane_name = args.plane or wb.get("plane", "all")
    planes = list(PLANES) if plane_name == "all" else [plane_name]
    override = _grid(cfg)
    labels = override and (override.axis1.label, override.axis2.label)
    if labels and labels not in PLANES.values():
        raise ConfigError(f"grid: labels {labels} name no plane; use one of {list(PLANES.values())}")
    for plane in planes:
        with _default_grid():
            grid = override if labels == PLANES[plane] else canonical_slice_grid(params, plane)
        with _names("state.m", OverflowError):
            field = wigner_slice(params, grid, form=form, threads=args.threads)
        _write_field(args, field, f"wigner_{plane}_{form}", args.clamp)
    if labels and all(labels != PLANES[plane] for plane in planes):
        print(f"note: grid: labels {labels} are not the {plane_name} plane's {PLANES[plane_name]}; the grid went "
              "unused and the canonical one was sampled", file=sys.stderr)
    return 0


def cmd_sit(cfg, args):
    sb = cfg.get("sit", {})
    orders = sb.get("m")
    if orders is None:
        raise ConfigError("sit: no vortex order given (sit.m)")
    form = sb.get("form", "sum")
    if "state" in cfg:
        params = _state_params(cfg)
        sx, sy = params.sigma_x, params.sigma_y
    else:
        sx = sy = 1.0
    cap = _clamp(sb.get("clamp", 1e12), "sit.clamp")
    for m in orders:
        with _names("sit.m", (ValueError, OverflowError)):
            wigner._sit_coeffs(m, sx, sy)
    grid = _grid(cfg) or GridSpec(axis1=AxisSpec("r", -5.0, 5.0, 201), axis2=AxisSpec("s", -5.0, 5.0, 201))
    for m in orders:
        # the grid's config error is not an OverflowError, so the outer name passes it through
        with _names("sit.m", OverflowError), _names("grid"):
            field = sit_field(m, sx, sy, grid, form=form, clamp_cap=cap, threads=args.threads)
        _write_field(args, field, f"sit_m{m}_{form}", cap if args.clamp == "auto" else args.clamp)
    return 0


def cmd_verify(cfg, args):
    params = _state_params(cfg)
    with _names("state"):
        params.norm_constant
    with _names("state.eta_x/state.eta_y"):
        wigner._require_tied(params, "verify")
    seed = cfg.get("seed", 2024)
    if seed < 0:
        raise ConfigError(f"seed: expected a non-negative integer, got {seed}")
    with _default_grid():
        verify._suite_grids(params)    # run_verify builds these too; this names a collapse before any suite runs
    with _names("state.m", OverflowError), _names("oracle", OracleConvergenceError):
        outcome = run_verify(params, threads=args.threads, seed=seed)
    for form, report in outcome.reports.items():
        verify.write_report(report, args.stage(f"discrepancy_{form}.txt"))
    summary = "\n".join(outcome.summary_lines()) + "\n"
    Path(args.stage("verify_summary.txt")).write_bytes(summary.encode("ascii"))
    print(summary, end="")
    return outcome.exit_code


def _print_coupler(c):
    ex, ey = coupler_to_ellipticity(c)
    # the +0.0 normalizes IEEE negative zeros out of the display
    print(f"a1 = {c.a1.real + 0.0:+.15g}{c.a1.imag + 0.0:+.15g}i")
    print(f"a2 = {c.a2.real + 0.0:+.15g}{c.a2.imag + 0.0:+.15g}i")
    print(f"|a1|^2 + |a2|^2 = {abs(c.a1) ** 2 + abs(c.a2) ** 2:.15g}")
    print(f"ellipticity (eta_x, eta_y) = ({ex:.15g}, {ey:.15g})")


def cmd_coupler(cfg, args):
    if "coupler" not in cfg:
        raise ConfigError("config: missing 'coupler' block")
    cb = cfg["coupler"]
    _check(cb, "coupler", {"kind": _SCHEMA["coupler"]["kind"], **_COUPLERS[cb["kind"]]})
    if cb["kind"] == "dcdc" and ("t" in cb) == ("ratio" in cb):
        raise ConfigError("coupler: dcdc needs exactly one of 't' or 'ratio'")
    with _names("coupler"):
        if cb["kind"] == "bs":
            c = bs_coupler(cb["theta"], cb.get("phi", 0.0))
        else:
            t = cb.get("t")
            if "ratio" in cb:
                t = dcdc_time_for_ratio(cb["ratio"], cb["g"], cb["delta"])
                print(f"t = {t:.15g}")
            c = dcdc_coupler(DcdcParams(g=cb["g"], delta=cb["delta"], t=t))
    _print_coupler(c)
    return 0


def _threads(text):
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


# flag -> its add_argument keywords. Every command takes the harness flags --config and --threads,
# which the benchmark passes to each command alike (``coupler`` ignores --threads).
_FLAGS = {
    "--config": dict(required=True, help="path to the JSON run configuration"),
    "--out": dict(default=None, help="output directory (overrides config out_dir)"),
    "--threads": dict(type=_threads, default=None,
                      help="row-parallel sampling threads (default: available parallelism)"),
    "--clamp": dict(default=None, help="graymap clamp half-range, a number or 'auto' (default auto)"),
    "--plane": dict(default=None, choices=_PLANES, help="which 2D reduction to sample (default: all)"),
}

# command -> (handler, help, the modules it calls, the flags it reads beyond the harness flags).
# ``main`` imports only the row's modules (``_load``), so ``coupler`` and ``--help`` load no numpy.
_COMMANDS = {
    "field": (cmd_field, "sample |psi|^2 and write CSV + PGM", ("state", "gridio"), ("--out", "--clamp")),
    "wigner": (cmd_wigner, "sample 2D Wigner reductions", ("state", "gridio", "wigner"),
               ("--out", "--clamp", "--plane")),
    "sit": (cmd_sit, "sample scaled interference terms", ("state", "gridio", "wigner"), ("--out", "--clamp")),
    "verify": (cmd_verify, "run the oracle verification suites", ("state", "wigner", "oracle", "verify"),
               ("--out",)),
    "coupler": (cmd_coupler, "print SU(2) coupler coefficients", ("coupling",), ()),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="deev",
        description="Displaced elliptical-elliptical vortex states: fields, Wigner slices, "
                    "interference terms, and oracle verification.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, text, _, flags) in _COMMANDS.items():
        p = sub.add_parser(command, help=text)
        for flag in ("--config", "--threads") + flags:
            p.add_argument(flag, **_FLAGS[flag])
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    run, _, modules, flags = _COMMANDS[args.command]
    try:
        cfg = load_config(args.config)
        if "--clamp" in flags:
            args.clamp = _clamp(args.clamp, "--clamp")
        _load(*modules)
        if "--out" not in flags:
            code = run(cfg, args)
        else:
            out_key = "out_dir" if args.out is None else "--out"
            args.out = cfg.get("out_dir", ".") if args.out is None else args.out
            with _outputs(args.out, out_key) as args.stage:
                code = run(cfg, args)
        sys.stdout.flush()      # a stdout whose reader went away fails here, not at exit
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # send what is left to devnull, as Python's SIGPIPE note does; the files renamed into place stay
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141      # the shell's status for a SIGPIPE death
    return code


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end: field, wigner, sit, verify, coupler.

One table, ``_COMMANDS``, names each command's handler, help text, modules and own
flags; a module's names are the ones ``deev._EXPORTS`` lists, and the plane and form
choices are ``deev.PLANES``, ``deev.FORMS`` and ``deev.SIT_FORMS``. ``main`` reads the
config, checks ``--clamp``, makes a writing command's output directory before any work
starts and runs the handler inside ``_outputs``, which removes what a failed run wrote;
every error it names exits 2 as ``error: <key>: <message>``.

Configuration is a strict JSON document; unknown keys anywhere are
rejected (exit code 2) so a typo cannot silently fall back to a default.
Outputs are written atomically and are byte-identical across runs and
thread counts.
"""

import argparse
import json
import math
import os
import sys
from contextlib import contextmanager, suppress
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
    "config": {**dict.fromkeys(("state", "coupler", "grid", "quadrature", "sit", "wigner"),
                               (dict, False)),
               "out_dir": (str, False), "seed": (int, False)},
    "state": {"m": (int, True), "sigma_x": (float, True), "sigma_y": (float, True),
              "sign": (int, False),
              **dict.fromkeys(("x0", "y0", "px0", "py0", "eta_x", "eta_y"), (float, False))},
    "grid": {"axis1": (dict, True), "axis2": (dict, True)},
    "grid.axis1": _AXIS,
    "grid.axis2": _AXIS,
    "quadrature": {"abs_tol": (float, False), "rel_tol": (float, False)},
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


# a default grid whose center swamps its width
_COLLAPSED = "state: the default grid around the displaced center collapses"


@contextmanager
def _outputs(out_dir):
    """Make ``out_dir``; yield ``write(field, stem, clamp)``, which writes ``stem``.csv and .pgm there.

    The paths are printed when the block ends. If it raises, the files written and the
    directories made are removed, so a failed command leaves no output.
    """
    if "\0" in out_dir:    # os calls raise ValueError for it, not the OSError that main names
        raise OSError(f"embedded null byte in {out_dir!r}")
    made = [d for d in (Path(out_dir), *Path(out_dir).parents) if not d.is_dir()]    # deepest first
    os.makedirs(out_dir, exist_ok=True)
    paths = []

    def write(field, stem, clamp):
        stem = os.path.join(out_dir, stem)
        write_csv(field, stem + ".csv")
        paths.append(stem + ".csv")
        write_pgm(field, stem + ".pgm", clamp=clamp)
        paths.append(stem + ".pgm")

    try:
        yield write
    except BaseException:
        with suppress(OSError):     # a cleanup error must not hide the one raised
            for path in paths:
                os.remove(path)
            for directory in made:
                os.rmdir(directory)
        raise
    for path in paths:
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


def cmd_field(cfg, args):
    params = _state_params(cfg)
    with _names("state"):
        params.norm_constant
    grid = _grid(cfg)
    if grid is None:
        with _names(_COLLAPSED):
            lo, hi = params.phase_point(-3.4, -3.4, 0.0, 0.0), params.phase_point(3.4, 3.4, 0.0, 0.0)
            grid = GridSpec(axis1=AxisSpec("x", lo[0], hi[0], 201), axis2=AxisSpec("y", lo[1], hi[1], 201))
    # the grid's config error is not an OverflowError, so the outer name passes it through
    with _names("state.m", OverflowError), _names("grid"):
        field = intensity_field(params, grid, threads=args.threads)
    args.write(field, "intensity", args.clamp)
    return 0


def cmd_wigner(cfg, args):
    params = _state_params(cfg)
    with _names("state.eta_x/state.eta_y"):
        wigner._require_tied(params, "wigner")
    wb = cfg.get("wigner", {})
    form = args.form or wb.get("form", FORMS[0])
    plane_name = args.plane or wb.get("plane", "all")
    planes = list(PLANES) if plane_name == "all" else [plane_name]
    override = _grid(cfg)
    labels = override and (override.axis1.label, override.axis2.label)
    for plane in planes:
        with _names(_COLLAPSED):
            grid = override if labels == PLANES[plane] else canonical_slice_grid(params, plane)
        with _names("state.m", OverflowError):
            field = wigner_slice(params, grid, form=form, threads=args.threads)
        args.write(field, f"wigner_{plane}_{form}", args.clamp)
    return 0


def cmd_sit(cfg, args):
    sb = cfg.get("sit", {})
    orders = [args.m] if args.m is not None else sb.get("m")
    if orders is None:
        raise ConfigError("sit: no vortex order given (sit.m in config or --m)")
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
        args.write(field, f"sit_m{m}_{form}", cap if args.clamp == "auto" else args.clamp)
    return 0


def cmd_verify(cfg, args):
    params = _state_params(cfg)
    with _names("state"):
        params.norm_constant
    with _names("state.eta_x/state.eta_y"):
        wigner._require_tied(params, "verify")
    with _names("quadrature"):
        q = QuadratureSpec(**cfg.get("quadrature", {}))
    seed = cfg.get("seed", 2024)
    if seed < 0:
        raise ConfigError(f"seed: expected a non-negative integer, got {seed}")
    with _names(_COLLAPSED):
        verify._suite_grids(params)    # run_verify builds these too; this names a collapse before any suite runs
    with _names("state.m", OverflowError), _names("oracle", OracleConvergenceError):
        outcome = run_verify(params, q=q, out_dir=args.out, threads=args.threads, seed=seed)
    print(*outcome.summary_lines(), *outcome.report_paths, sep="\n")
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
    "--m": dict(type=int, default=None, help="vortex order (overrides config)"),
    "--form": dict(default=None, choices=FORMS,
                   help=f"closed form to sample (default from config, else {FORMS[0]})"),
}

# command -> (handler, help, the modules it calls, the flags it reads beyond the harness flags).
# ``main`` imports only the row's modules (``_load``), so ``coupler`` and ``--help`` load no numpy.
_COMMANDS = {
    "field": (cmd_field, "sample |psi|^2 and write CSV + PGM", ("state", "gridio"), ("--out", "--clamp")),
    "wigner": (cmd_wigner, "sample 2D Wigner reductions", ("state", "gridio", "wigner"),
               ("--out", "--clamp", "--plane", "--form")),
    "sit": (cmd_sit, "sample scaled interference terms", ("state", "gridio", "wigner"),
            ("--out", "--clamp", "--m")),
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
            return run(cfg, args)
        out_key = "out_dir" if args.out is None else "--out"
        args.out = cfg.get("out_dir", ".") if args.out is None else args.out
        # the only OSError here is an output directory that cannot be made or written
        with _names(out_key, OSError), _outputs(args.out) as args.write:
            return run(cfg, args)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

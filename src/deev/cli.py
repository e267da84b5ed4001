"""Command-line front end: field, wigner, sit, verify, coupler.

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
from contextlib import contextmanager

from .coupling import (DcdcParams, bs_coupler, coupler_to_ellipticity, dcdc_coupler,
                       dcdc_time_for_ratio)
from .gridio import AxisSpec, GridSpec, write_csv, write_pgm
from .oracle import OracleConvergenceError, QuadratureSpec
from .state import DeevParams, intensity_field
from .verify import canonical_slice_grid, run_verify
from .wigner import FORMS, SIT_FORMS, STANDARD, SlicePlane, _require_tied, _sit_coeffs, sit_field, wigner_slice

__all__ = ["main", "ConfigError", "load_config"]


class ConfigError(ValueError):
    pass


_PLANES = tuple(p.name.lower() for p in SlicePlane) + ("all",)
_AXIS = {"label": (str, True), "min": (float, True), "max": (float, True), "count": (int, True)}
_COUPLERS = {
    "bs": {"theta": (float, True), "phi": (float, False)},
    "dcdc": {"g": (float, True), "delta": (float, True), "t": (float, False), "ratio": (float, False)},
}

# {block: {key: (type, required)}}. A type is float, int, str, dict (a nested
# block with its own row), list (one integer or a list of them) or a tuple of
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
    "wigner": {"plane": (_PLANES, False), "form": (tuple(FORMS), False)},
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
        return [_value(x, int, where) for x in (v if isinstance(v, list) else [v])]
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
    except json.JSONDecodeError as err:
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


def _out_dir(cfg, args):
    return args.out or cfg.get("out_dir", ".")


def _write_pair(field, out_dir, stem, clamp):
    # created with the first file, so a command rejected before it leaves no output directory
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, stem + ".csv")
    pgm_path = os.path.join(out_dir, stem + ".pgm")
    write_csv(field, csv_path)
    write_pgm(field, pgm_path, clamp=clamp)
    return csv_path, pgm_path


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


def cmd_field(args):
    cfg = load_config(args.config)
    clamp = _clamp(args.clamp, "--clamp")
    params = _state_params(cfg)
    with _names("state"):
        params.norm_constant
    grid = _grid(cfg)
    if grid is None:
        with _names(_COLLAPSED):
            grid = GridSpec(
                axis1=AxisSpec("x", params.x0 - 3.4 * params.sigma_x, params.x0 + 3.4 * params.sigma_x, 201),
                axis2=AxisSpec("y", params.y0 - 3.4 * params.sigma_y, params.y0 + 3.4 * params.sigma_y, 201))
    if (grid.axis1.label, grid.axis2.label) != ("x", "y"):
        raise ConfigError("field: grid axes must be labeled x and y")
    out = _out_dir(cfg, args)
    with _names("state.m", OverflowError):
        field = intensity_field(params, grid, threads=args.threads)
    for p in _write_pair(field, out, "intensity", clamp):
        print(p)
    return 0


def cmd_wigner(args):
    cfg = load_config(args.config)
    params = _state_params(cfg)
    with _names("state.eta_x/state.eta_y"):
        _require_tied(params, "wigner")
    wb = cfg.get("wigner", {})
    form = args.form or wb.get("form", STANDARD)
    plane_name = args.plane or wb.get("plane", "all")
    planes = list(SlicePlane) if plane_name == "all" else [SlicePlane[plane_name.upper()]]
    out = _out_dir(cfg, args)
    clamp = _clamp(args.clamp, "--clamp")
    override = _grid(cfg)
    # every grid is built before the first file is written
    with _names(_COLLAPSED):
        grids = [override if override is not None
                 and (override.axis1.label, override.axis2.label) == plane.axis_labels
                 else canonical_slice_grid(params, plane) for plane in planes]
    for plane, grid in zip(planes, grids):
        with _names("state.m", OverflowError):
            field = wigner_slice(params, plane, grid, form=form, threads=args.threads)
        for p in _write_pair(field, out, f"wigner_{plane.name.lower()}_{form}", clamp):
            print(p)
    return 0


def cmd_sit(args):
    cfg = load_config(args.config)
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
            _sit_coeffs(m, sx, sy)
    grid = _grid(cfg) or GridSpec(axis1=AxisSpec("r", -5.0, 5.0, 201), axis2=AxisSpec("s", -5.0, 5.0, 201))
    out = _out_dir(cfg, args)
    clamp = _clamp(args.clamp, "--clamp")
    if clamp == "auto":
        clamp = cap
    for m in orders:
        # the grid's config error is not an OverflowError, so the outer name passes it through
        with _names("sit.m", OverflowError), _names("grid"):
            field = sit_field(m, sx, sy, grid, form=form, clamp_cap=cap, threads=args.threads)
        for p in _write_pair(field, out, f"sit_m{m}_{form}", clamp):
            print(p)
    return 0


def cmd_verify(args):
    cfg = load_config(args.config)
    params = _state_params(cfg)
    with _names("state"):
        params.norm_constant
    with _names("state.eta_x/state.eta_y"):
        _require_tied(params, "verify")
    for form in FORMS:
        try:
            FORMS[form].nominal(params)
        except OverflowError:
            raise ConfigError(f"state.m: the {form} closed form's constant at m={params.m} "
                              "does not fit a double") from None
    with _names("quadrature"):
        q = QuadratureSpec(**cfg.get("quadrature", {}))
    seed = cfg.get("seed", 2024)
    out = _out_dir(cfg, args)
    with _names("oracle", OracleConvergenceError):
        outcome = run_verify(params, q=q, out_dir=out, threads=args.threads, seed=seed)
    for line in outcome.summary_lines():
        print(line)
    for p in outcome.report_paths:
        print(p)
    return outcome.exit_code


def _print_coupler(c, prefix=""):
    ex, ey = coupler_to_ellipticity(c)
    # the +0.0 normalizes IEEE negative zeros out of the display
    print(f"{prefix}a1 = {c.a1.real + 0.0:+.15g}{c.a1.imag + 0.0:+.15g}i")
    print(f"{prefix}a2 = {c.a2.real + 0.0:+.15g}{c.a2.imag + 0.0:+.15g}i")
    print(f"{prefix}|a1|^2 + |a2|^2 = {abs(c.a1) ** 2 + abs(c.a2) ** 2:.15g}")
    print(f"{prefix}ellipticity (eta_x, eta_y) = ({ex:.15g}, {ey:.15g})")


def cmd_coupler(args):
    cfg = load_config(args.config)
    if "coupler" not in cfg:
        raise ConfigError("config: missing 'coupler' block")
    cb = cfg["coupler"]
    _check(cb, "coupler", {"kind": _SCHEMA["coupler"]["kind"], **_COUPLERS[cb["kind"]]})
    if cb["kind"] == "dcdc" and not ("t" in cb or "ratio" in cb):
        raise ConfigError("coupler: dcdc needs either 't' or 'ratio'")
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


def build_parser():
    parser = argparse.ArgumentParser(
        prog="deev",
        description="Displaced elliptical-elliptical vortex states: fields, Wigner slices, "
                    "interference terms, and oracle verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, run, plane=False, m=False, form=False):
        p.set_defaults(run=run)
        p.add_argument("--config", required=True, help="path to the JSON run configuration")
        p.add_argument("--out", default=None, help="output directory (overrides config out_dir)")
        p.add_argument("--threads", type=_threads, default=None,
                       help="row-parallel sampling threads (default: available parallelism)")
        p.add_argument("--clamp", default=None,
                       help="graymap clamp half-range, a number or 'auto' (default auto)")
        if plane:
            p.add_argument("--plane", default=None, choices=_PLANES,
                           help="which 2D reduction to sample (default: all)")
        if m:
            p.add_argument("--m", type=int, default=None, help="vortex order (overrides config)")
        if form:
            p.add_argument("--form", default=None, choices=list(FORMS),
                           help=f"closed form to sample (default from config, else {STANDARD})")

    common(sub.add_parser("field", help="sample |psi|^2 and write CSV + PGM"), cmd_field)
    common(sub.add_parser("wigner", help="sample 2D Wigner reductions"), cmd_wigner, plane=True, form=True)
    common(sub.add_parser("sit", help="sample scaled interference terms"), cmd_sit, m=True)
    common(sub.add_parser("verify", help="run the oracle verification suites"), cmd_verify)
    common(sub.add_parser("coupler", help="print SU(2) coupler coefficients"), cmd_coupler)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Seeded command lists for the three benchmark workloads.

A workload is a *pass*: an ordered list of ``deev`` CLI invocations. The
benchmark repeats the same pass several times, so every pass of a run does
identical work and only the workload seed changes the inputs. Generated
configs are written into a temporary directory; the program sees only them.

* ``recipes``: the checked-in figure recipes plus two generated couplers
  (one beam splitter, one directional coupler solved for a ratio).
* ``verify-sweep``: ``deev verify`` on the checked-in m = 3 recipe plus three
  generated states from a fixed design, so the seed moves the parameters
  without moving the amount of work much: m = 0 (no minima suite) with a
  strong width anisotropy, m in 6..8 and m in 9..16 with near-equal widths.
* ``large-grid``: one 1001 x 1001 field, one single-plane standard Wigner
  slice and one SIT field, then the same Wigner slice again at one thread.
"""

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("recipes", "verify-sweep", "large-grid")

# Expected duration of one pass on a 2-CPU host. The number of passes in a
# run is fixed from --seconds and these constants alone, so a run always
# holds the same number of samples and a faster program is compared on
# identical work.
NOMINAL_PASS_S = {"recipes": 8.0, "verify-sweep": 12.0, "large-grid": 14.0}

LARGE_COUNT = 1001
WIDTH_LO, WIDTH_HI = 0.7, 5.0
PLANE_AXES = {"xy": ("x", "y"), "pxpy": ("px", "py"), "xpx": ("x", "px"),
              "ypy": ("y", "py"), "xpy": ("x", "py"), "ypx": ("y", "px")}
SQRT2 = math.sqrt(2.0)


@dataclass
class Command:
    """One CLI call and what its outputs are checked against."""

    name: str
    argv: list
    check: str                      # golden | coupler-bs | coupler-dcdc | verify | grid
    out: str = None                 # --out directory, if the command writes files
    nodes: int = 0                  # grid nodes the command produces
    threads: int = 1
    info: dict = field(default_factory=dict)


def passes_for(workload, seconds):
    return max(1, round(seconds / NOMINAL_PASS_S[workload]))


def make_pass(workload, seed, root, work_dir, threads):
    """Write the workload's configs under ``work_dir`` and return its commands."""
    rng = np.random.default_rng([WORKLOADS.index(workload), seed])
    cfg_dir = os.path.join(work_dir, "configs")
    out_dir = os.path.join(work_dir, "out")
    os.makedirs(cfg_dir, exist_ok=True)
    build = {"recipes": _recipes, "verify-sweep": _verify_sweep, "large-grid": _large_grid}[workload]
    return build(rng, seed, root, cfg_dir, out_dir, threads)


def _write_config(cfg_dir, name, cfg):
    path = os.path.join(cfg_dir, name + ".json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cfg, fh, indent=1, sort_keys=True)
    return path


def _command(name, sub, config, out_dir, threads, check, extra=(), nodes=0, writes=True, info=None):
    out = os.path.join(out_dir, name) if writes else None
    argv = [sub, "--config", config, *extra]
    if out:
        argv += ["--out", out]
    argv += ["--threads", str(threads)]
    return Command(name=name, argv=argv, check=check, out=out, nodes=nodes, threads=threads,
                   info=info or {})


def _widths(rng, anisotropy):
    """Two widths in [WIDTH_LO, WIDTH_HI] whose log-ratio is ``anisotropy``."""
    lo, hi = math.log(WIDTH_LO), math.log(WIDTH_HI)
    centre = rng.uniform(lo + anisotropy / 2, hi - anisotropy / 2)
    small, big = math.exp(centre - anisotropy / 2), math.exp(centre + anisotropy / 2)
    return (small, big) if rng.random() < 0.5 else (big, small)


def _log_uniform_width(rng):
    return math.exp(rng.uniform(math.log(WIDTH_LO), math.log(WIDTH_HI)))


def _signed(rng, lo, hi):
    return float(rng.choice([-1.0, 1.0]) * rng.uniform(lo, hi))


def _state(rng, m, sx, sy):
    """Tied-weight state with nonzero displacement in all four coordinates."""
    return {"m": int(m), "sigma_x": sx, "sigma_y": sy, "sign": int(rng.choice([-1, 1])),
            "x0": _signed(rng, 0.2, 2.0) * sx, "y0": _signed(rng, 0.2, 2.0) * sy,
            "px0": _signed(rng, 0.2, 2.0) / sx, "py0": _signed(rng, 0.2, 2.0) / sy}


def _recipes(rng, seed, root, cfg_dir, out_dir, threads):
    def recipe(name, sub, config, extra=(), nodes=0, writes=True):
        return _command(name, sub, os.path.join(root, "configs", config), out_dir, threads,
                        "golden", extra=extra, nodes=nodes, writes=writes)

    cmds = [
        recipe("field", "field", "fig2_intensity.json", nodes=201 * 201),
        recipe("wigner-standard", "wigner", "fig3_wigner_standard.json", nodes=6 * 301 * 301),
        recipe("wigner-candidate-xpx", "wigner", "fig3_wigner_candidate.json", ("--plane", "xpx"),
               nodes=301 * 301),
        recipe("sit", "sit", "fig4_sit.json", nodes=4 * 201 * 201),
        recipe("coupler-dcdc-5050", "coupler", "coupler_dcdc_5050.json", writes=False),
    ]
    theta, phi = float(rng.uniform(0.05, 1.5)), float(rng.uniform(-math.pi, math.pi))
    bs = _write_config(cfg_dir, "coupler_bs", {"coupler": {"kind": "bs", "theta": theta, "phi": phi}})
    cmds.append(_command("coupler-bs", "coupler", bs, out_dir, threads, "coupler-bs", writes=False,
                         info={"theta": theta}))
    g = float(rng.uniform(0.5, 2.0))
    delta = float(rng.uniform(-0.5, 0.5)) * g
    ratio = float(rng.uniform(abs(delta) / g + 0.05, 3.0))
    dc = _write_config(cfg_dir, "coupler_dcdc",
                       {"coupler": {"kind": "dcdc", "g": g, "delta": delta, "ratio": ratio}})
    cmds.append(_command("coupler-dcdc-ratio", "coupler", dc, out_dir, threads, "coupler-dcdc",
                         writes=False, info={"ratio": ratio}))
    return cmds


def verify_nodes(m):
    """Slice nodes the verify suites sample: symmetry 2 x 101^2, minima 4 x 301^2 for m >= 1."""
    return 2 * 101 * 101 + (4 * 301 * 301 if m >= 1 else 0)


def _verify_sweep(rng, seed, root, cfg_dir, out_dir, threads):
    cmds = [_command("verify-m3", "verify", os.path.join(root, "configs", "verify_elliptic_m3.json"),
                     out_dir, threads, "verify", nodes=verify_nodes(3), info={"m": 3})]
    top = math.log(WIDTH_HI / WIDTH_LO)
    # (m range, anisotropy range): verify time grows with m up to about 8 and
    # with anisotropy, so each state takes a fixed share of the work and the
    # seed moves parameters, not the size of the pass. The m = 3 recipe
    # covers low m.
    design = (((0, 0), (0.9 * top, top)), ((6, 8), (0.0, 0.15 * top)), ((9, 16), (0.0, 0.15 * top)))
    for i, ((m_lo, m_hi), (a_lo, a_hi)) in enumerate(design):
        m = int(rng.integers(m_lo, m_hi + 1))
        sx, sy = _widths(rng, rng.uniform(a_lo, a_hi))
        if i == 0:
            sx, sy = max(sx, sy), min(sx, sy)
        cfg = {"state": _state(rng, m, sx, sy), "seed": int(seed * 10 + i) % 2 ** 31}
        path = _write_config(cfg_dir, f"verify_{i}", cfg)
        cmds.append(_command(f"verify-{i}-m{m}", "verify", path, out_dir, threads, "verify",
                             nodes=verify_nodes(m), info={"m": m}))
    return cmds


def _grid(labels, centres, halves, count=LARGE_COUNT):
    return {f"axis{k + 1}": {"label": lab, "min": c - h, "max": c + h, "count": count}
            for k, (lab, c, h) in enumerate(zip(labels, centres, halves))}


def _large_grid(rng, seed, root, cfg_dir, out_dir, threads):
    n = LARGE_COUNT * LARGE_COUNT
    cmds = []

    st = _state(rng, rng.integers(0, 9), _log_uniform_width(rng), _log_uniform_width(rng))
    grid = _grid(("x", "y"), (st["x0"], st["y0"]), (3.4 * st["sigma_x"], 3.4 * st["sigma_y"]))
    path = _write_config(cfg_dir, "field", {"state": st, "grid": grid})
    cmds.append(_command("field", "field", path, out_dir, threads, "grid", nodes=n,
                         info={"kind": "field", "state": st, "grid": grid, "stem": "intensity"}))

    st = _state(rng, rng.integers(0, 9), _log_uniform_width(rng), _log_uniform_width(rng))
    plane = list(PLANE_AXES)[int(rng.integers(0, len(PLANE_AXES)))]
    labels = PLANE_AXES[plane]
    centre = {"x": st["x0"], "y": st["y0"], "px": st["px0"], "py": st["py0"]}
    half = {"x": 3.0 * st["sigma_x"], "y": 3.0 * st["sigma_y"],
            "px": 3.0 * SQRT2 / st["sigma_x"], "py": 3.0 * SQRT2 / st["sigma_y"]}
    grid = _grid(labels, [centre[a] for a in labels], [half[a] for a in labels])
    wigner = _write_config(cfg_dir, "wigner", {"state": st, "grid": grid,
                                               "wigner": {"plane": plane, "form": "standard"}})
    info = {"kind": "wigner", "state": st, "grid": grid, "stem": f"wigner_{plane}_standard"}
    cmds.append(_command("wigner", "wigner", wigner, out_dir, threads, "grid", nodes=n, info=info))

    m = int(rng.integers(1, 7))
    sx, sy = _log_uniform_width(rng), _log_uniform_width(rng)
    form = ("sum", "difference")[int(rng.integers(0, 2))]
    grid = _grid(("r", "s"), (0.0, 0.0), (5.0, 5.0))
    path = _write_config(cfg_dir, "sit", {"state": {"m": m, "sigma_x": sx, "sigma_y": sy},
                                          "sit": {"m": m, "form": form, "clamp": 50.0}, "grid": grid})
    cmds.append(_command("sit", "sit", path, out_dir, threads, "grid", nodes=n,
                         info={"kind": "sit", "m": m, "sigma_x": sx, "sigma_y": sy, "form": form,
                               "grid": grid, "stem": f"sit_m{m}_{form}"}))

    # the plain single-thread baseline: same slice, and its files must be
    # byte-identical to the threaded run's
    cmds.append(_command("wigner-1thread", "wigner", wigner, out_dir, 1, "grid", nodes=n,
                         info=dict(info, same_as="wigner")))
    return cmds

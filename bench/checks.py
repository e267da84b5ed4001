"""Output checks for every benchmark command.

Each check returns a list of problems; an empty list means the command's
outputs are correct. The references here are written from the formulas in
PAPER.md and share no code with ``src/deev``:

* recipes: sha256 of every canonical output against ``golden.json``, taken
  from the seed commit; generated couplers must be unitary and give the
  requested |a1|/|a2| ratio (beam splitters |cos theta|, |sin theta|);
* verify: the normalization, marginal, oracle-equivalence, symmetry and
  adjudication suites print PASS, the verdicts are ``match`` (closed form)
  and ``shape-mismatch`` (candidate), and the exit code agrees with the
  ``overall:`` line. The minima-count FAIL for m >= 1 is documented
  behaviour and is counted as an expected failure, not hidden;
* large grids: header, row count, PGM size, and at seeded nodes the CSV
  value against an independent evaluation of |psi|^2, the standard Wigner
  form or the SIT. The one-thread Wigner slice must be byte-identical to
  the threaded one.
"""

import hashlib
import json
import math
import os
import re
import zlib

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_PATH = os.path.join(HERE, "golden.json")
SAMPLED_NODES = 48
REL_TOL = 1e-9
VERIFY_MUST_PASS = ("normalization", "marginal", "oracle-equivalence", "symmetry", "adjudication")


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def output_hashes(cmd, stdout):
    """What golden.json records for a command: file hashes, or stdout for couplers."""
    if cmd.out is None:
        return {"stdout": hashlib.sha256(stdout.encode()).hexdigest()}
    return {name: sha256_file(os.path.join(cmd.out, name)) for name in sorted(os.listdir(cmd.out))}


class Checker:
    """Checks the commands of one run; ``seed`` picks the sampled grid nodes."""

    def __init__(self, seed):
        self.seed = seed
        self.golden = None
        self.expected_failures = []

    def check(self, cmd, rc, stdout, done):
        """Problems with one command; ``done`` maps names of earlier commands to theirs."""
        try:
            return getattr(self, "_" + cmd.check.replace("-", "_"))(cmd, rc, stdout, done)
        except (OSError, ValueError, KeyError, IndexError) as err:
            return [f"{cmd.name}: cannot check outputs: {type(err).__name__}: {err}"]

    def _golden(self, cmd, rc, stdout, done):
        if self.golden is None:
            with open(GOLDEN_PATH, encoding="utf-8") as fh:
                self.golden = json.load(fh)
        if rc != 0:
            return [f"{cmd.name}: exit code {rc}"]
        want = self.golden[cmd.name]
        got = output_hashes(cmd, stdout)
        if set(got) != set(want):
            return [f"{cmd.name}: outputs {sorted(got)} differ from golden {sorted(want)}"]
        return [f"{cmd.name}: {name} sha256 {got[name][:12]} != golden {want[name][:12]}"
                for name in sorted(want) if got[name] != want[name]]

    def _coupler_bs(self, cmd, rc, stdout, done):
        problems, a1, a2 = _coupler_amplitudes(cmd, rc, stdout)
        if not problems:
            th = cmd.info["theta"]
            if abs(abs(a1) - abs(math.cos(th))) > 1e-12 or abs(abs(a2) - abs(math.sin(th))) > 1e-12:
                problems.append(f"{cmd.name}: |a1|, |a2| = {abs(a1)!r}, {abs(a2)!r}; "
                                f"expected |cos|, |sin| of theta = {th!r}")
        return problems

    def _coupler_dcdc(self, cmd, rc, stdout, done):
        problems, a1, a2 = _coupler_amplitudes(cmd, rc, stdout)
        if not problems:
            ratio = cmd.info["ratio"]
            if not re.search(r"^t = \S+$", stdout, re.M):
                problems.append(f"{cmd.name}: no solved 't = ...' line")
            elif abs(abs(a1) / abs(a2) / ratio - 1.0) > 1e-9:
                problems.append(f"{cmd.name}: |a1|/|a2| = {abs(a1) / abs(a2)!r}, requested {ratio!r}")
        return problems

    def _verify(self, cmd, rc, stdout, done):
        problems = []
        lines = stdout.splitlines()
        suites = {}
        for line in lines:
            mt = re.match(r"^(PASS|FAIL) ([\w-]+): ", line)
            if mt:
                suites[mt.group(2)] = mt.group(1)
        for name in VERIFY_MUST_PASS:
            if suites.get(name) != "PASS":
                problems.append(f"{cmd.name}: suite {name} is {suites.get(name, 'missing')}")
        m = cmd.info["m"]
        if m >= 1 and "minima-count" not in suites:
            problems.append(f"{cmd.name}: minima-count suite missing for m = {m}")
        if m == 0 and "minima-count" in suites:
            problems.append(f"{cmd.name}: minima-count suite ran for m = 0")
        if suites.get("minima-count") == "FAIL":
            self.expected_failures.append(f"{cmd.name}: minima-count FAIL (documented for m >= 1)")
        for label, want in (("closed-form", "match"), ("candidate-form", "shape-mismatch")):
            if f"{label} verdict: {want}" not in lines:
                problems.append(f"{cmd.name}: {label} verdict is not {want}")
        overall = [ln for ln in lines if ln.startswith("overall: ")]
        if overall not in (["overall: PASS"], ["overall: FAIL"]):
            problems.append(f"{cmd.name}: overall line {overall!r}")
        elif rc != (0 if overall == ["overall: PASS"] else 1):
            problems.append(f"{cmd.name}: exit code {rc} disagrees with {overall[0]!r}")
        for stem, want in (("discrepancy_standard", "match"), ("discrepancy_candidate", "shape-mismatch")):
            with open(os.path.join(cmd.out, stem + ".txt"), encoding="ascii") as fh:
                last = fh.read().strip().splitlines()[-1]
            if last != f"verdict={want}":
                problems.append(f"{cmd.name}: {stem}.txt ends with {last!r}")
        with open(os.path.join(cmd.out, "verify_summary.txt"), encoding="ascii") as fh:
            summary = fh.read().splitlines()
        if summary != [ln for ln in lines if ln.startswith(("PASS ", "FAIL ", "closed-form",
                                                            "candidate-form", "overall"))]:
            problems.append(f"{cmd.name}: verify_summary.txt differs from the printed summary")
        return problems

    def _grid(self, cmd, rc, stdout, done):
        if rc != 0:
            return [f"{cmd.name}: exit code {rc}"]
        info = cmd.info
        csv_path = os.path.join(cmd.out, info["stem"] + ".csv")
        pgm_path = os.path.join(cmd.out, info["stem"] + ".pgm")
        if "same_as" in info:
            twin = done[info["same_as"]]
            other = os.path.join(twin.out, info["stem"])
            if (sha256_file(csv_path), sha256_file(pgm_path)) != (sha256_file(other + ".csv"),
                                                                  sha256_file(other + ".pgm")):
                return [f"{cmd.name}: outputs differ from {twin.name} at {twin.threads} threads"]
            return []
        with open(csv_path, "rb") as fh:
            data = fh.read()
        rows = data.split(b"\n")
        if rows[-1] != b"":
            return [f"{cmd.name}: CSV does not end with a newline"]
        meta = dict(tok.split("=", 1) for tok in rows[0][2:].decode().split(" "))
        axes = [meta[f"axis{k}"].split(":") for k in (1, 2)]
        axes = [(a[0], float(a[1]), float(a[2]), int(a[3])) for a in axes]
        want = [info["grid"][f"axis{k}"] for k in (1, 2)]
        if axes != [(w["label"], w["min"], w["max"], w["count"]) for w in want]:
            return [f"{cmd.name}: CSV axes {axes} differ from the config grid"]
        labels = [a[0] for a in axes]
        nodes = [np.linspace(lo, hi, count) for _, lo, hi, count in axes]
        n1, n2 = len(nodes[0]), len(nodes[1])
        problems = []
        if not rows[0].startswith(b"# ") or rows[1] != f"{labels[0]},{labels[1]},value".encode():
            problems.append(f"{cmd.name}: bad metadata or header line")
        if len(rows) - 3 != n1 * n2 or n1 * n2 != cmd.nodes:
            problems.append(f"{cmd.name}: {len(rows) - 3} rows for a {n1} x {n2} grid")
            return problems
        with open(pgm_path, "rb") as fh:
            pgm = fh.read()
        size_line = f"\n{n2} {n1}\n65535\n".encode()
        end = pgm.find(size_line, 0, 200)
        if not pgm.startswith(b"P5\n# map ") or end < 0 or len(pgm) != end + len(size_line) + 2 * n1 * n2:
            problems.append(f"{cmd.name}: PGM header or size is wrong")
        rng = np.random.default_rng([self.seed, zlib.crc32(cmd.name.encode())])
        for _ in range(SAMPLED_NODES):
            i, j = int(rng.integers(0, n1)), int(rng.integers(0, n2))
            a, b, v = (float(t) for t in rows[2 + i * n2 + j].split(b","))
            if (a, b) != (nodes[0][i], nodes[1][j]):
                problems.append(f"{cmd.name}: node ({i}, {j}) has coordinates ({a!r}, {b!r})")
                break
            want, tol = reference_value(info, labels, a, b)
            if not _close(v, want, tol):
                problems.append(f"{cmd.name}: node ({i}, {j}) = {v!r}, reference {want!r} (tol {tol:.3g})")
                break
        return problems


def _coupler_amplitudes(cmd, rc, stdout):
    if rc != 0:
        return [f"{cmd.name}: exit code {rc}"], None, None
    num = r"[+-](?:inf|nan|[0-9.]+(?:e[+-]?[0-9]+)?)"
    amps = {}
    for key in ("a1", "a2"):
        mt = re.search(rf"^{key} = ({num})({num})i$", stdout, re.M)
        if not mt:
            return [f"{cmd.name}: no '{key} = ...' line"], None, None
        amps[key] = complex(float(mt.group(1)), float(mt.group(2)))
    a1, a2 = amps["a1"], amps["a2"]
    if abs(abs(a1) ** 2 + abs(a2) ** 2 - 1.0) > 1e-12:
        return [f"{cmd.name}: |a1|^2 + |a2|^2 = {abs(a1) ** 2 + abs(a2) ** 2!r}, not unitary"], a1, a2
    return [], a1, a2


def _close(got, want, tol):
    if math.isnan(want) or math.isinf(want):
        return got == want or (math.isnan(got) and math.isnan(want))
    return abs(got - want) <= tol


def reference_value(info, labels, a, b):
    """(value, absolute tolerance) of the sampled quantity at axis values (a, b)."""
    if info["kind"] == "field":
        return _intensity(info["state"], a, b)
    if info["kind"] == "wigner":
        coords = {"x": info["state"]["x0"], "y": info["state"]["y0"],
                  "px": info["state"]["px0"], "py": info["state"]["py0"]}
        coords[labels[0]], coords[labels[1]] = a, b
        return _wigner_standard(info["state"], **coords)
    return _sit(info["m"], info["sigma_x"], info["sigma_y"], a, b, info["form"])


def _intensity(st, x, y):
    """|psi|^2 with tied weights eta_i = 1/(sqrt(2) sigma_i).

    N^-2 = sigma_x sigma_y sum_k C(m, k) h^(2m) Gamma(k + 1/2) Gamma(m - k + 1/2),
    h = eta_i sigma_i = 1/sqrt(2).
    """
    m, sx, sy = st["m"], st["sigma_x"], st["sigma_y"]
    X, Y = x - st["x0"], y - st["y0"]
    inv_n2 = sx * sy * 0.5 ** m * sum(math.comb(m, k) * math.gamma(k + 0.5) * math.gamma(m - k + 0.5)
                                      for k in range(m + 1))
    poly = ((X / sx) ** 2 / 2 + (Y / sy) ** 2 / 2) ** m
    val = poly * math.exp(-(X / sx) ** 2 - (Y / sy) ** 2) / inv_n2
    return val, REL_TOL * abs(val) + 1e-300


def _wigner_standard(st, x, y, px, py):
    """((-1)^m / pi^2) exp(-(A^2+B^2+P^2+Q^2)) L_m((A + sQ)^2 + (B - sP)^2)."""
    m, s = st["m"], st["sign"]
    A, B = (x - st["x0"]) / st["sigma_x"], (y - st["y0"]) / st["sigma_y"]
    P, Q = st["sigma_x"] * (px - st["px0"]), st["sigma_y"] * (py - st["py0"])
    z = (A + s * Q) ** 2 + (B - s * P) ** 2
    terms = [(-1) ** k * math.comb(m, k) * z ** k / math.factorial(k) for k in range(m + 1)]
    scale = math.exp(-(A * A + B * B + P * P + Q * Q)) / math.pi ** 2
    val = (-1) ** m * scale * sum(terms)
    return val, REL_TOL * scale * sum(abs(t) for t in terms) + 1e-300


def _alp_half_coeffs(m):
    """Series coefficients of L_m^{-1/2}: (-1)^k C(m - 1/2, m - k) / k!."""
    out = []
    for k in range(m + 1):
        binom = 1.0
        for i in range(1, m - k + 1):
            binom *= (k - 0.5 + i) / i
        out.append((-1) ** k * binom / math.factorial(k))
    return out


def _sit(m, sx, sy, r, s, form):
    """Cross monomials over single-variable monomials of L_m^{-1/2}((r +/- s)^2 / d)."""
    c = _alp_half_coeffs(m)
    d = sx * sx + sy * sy
    t = r + s if form == "sum" else r - s
    num = den = num_abs = den_abs = 0.0
    for k in range(1, m + 1):
        ck = c[k] / d ** k
        tk, rk, sk = t ** (2 * k), r ** (2 * k), s ** (2 * k)
        num += ck * (tk - rk - sk)
        den += ck * (rk + sk)
        num_abs += abs(ck) * (tk + rk + sk)
        den_abs += abs(ck) * (rk + sk)
    if den == 0.0:
        return (math.inf if num > 0 else -math.inf if num < 0 else math.nan), 0.0
    val = num / den
    return val, REL_TOL * (num_abs + abs(val) * den_abs) / abs(den) + 1e-300

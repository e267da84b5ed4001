"""The fault table: each ``verify`` suite must catch a named fault.

A check that cannot fail looks like a passing one. Each row breaks one
function of ``deev`` by monkeypatching it (no source file is rewritten), runs
``run_verify`` in process at one thread on the m = 3 recipe and/or the
displaced state (and, for one row, a tied m = 40 state), and asserts exactly
which suites fail. Minima-count is left out: it fails by design on every
state (the validated form's mixed-plane slices are rings), with or without a
fault.

Each row's comment names the Tier-1 tests that also catch its fault, found by
applying the same fault as a one-line source edit to a copy of the tree.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from deev import oracle, state, verify, wigner
from deev.state import DeevParams
from deev.verify import run_verify
from deev.wigner import STANDARD

STATES = {
    "recipe": lambda: DeevParams.tied(3, 5.0, 3.0),     # configs/verify_elliptic_m3.json
    "displaced": lambda: DeevParams.tied(3, 0.37, 2.9, sign=-1, x0=0.7, y0=-1.3, px0=0.4, py0=-0.2),
    # |psi|^2 is a ring at scaled radius sqrt(40), where the marginal suite must look to see anything
    "m40": lambda: DeevParams.tied(40, 5.0, 3.0),
}
BOTH = ("recipe", "displaced")

_norm = DeevParams.norm_constant.func
_offsets = DeevParams.offsets
_swapped = DeevParams.swapped
_psi = state.psi
_wigner4d = wigner.wigner4d
_standard_constant = wigner.standard_constant


def _patch_psi(monkeypatch, faulty):
    # psi is called by the intensity sampler, the oracle and the marginal suite (raw psi at the lab point)
    for module in (state, oracle, verify):
        monkeypatch.setattr(module, "psi", faulty)


def _patch_standard_form(monkeypatch, faulty):
    # the validated form is called by the marginal, equivalence and symmetry suites and, through CLOSED_FORMS,
    # adjudication
    monkeypatch.setattr(verify, "wigner4d", faulty)
    monkeypatch.setitem(wigner.CLOSED_FORMS, STANDARD, replace(wigner.CLOSED_FORMS[STANDARD], evaluate=faulty))


def norm_drops_sigma_factor(monkeypatch):
    # N = 1 / sqrt(integral) without sigma_x sigma_y is N sqrt(sigma_x sigma_y)
    monkeypatch.setattr(DeevParams, "norm_constant",
                        property(lambda p: _norm(p) * math.sqrt(p.sigma_x * p.sigma_y)))


def psi_vortex_sign_flipped(monkeypatch):
    _patch_psi(monkeypatch, lambda p, x, y: _psi(replace(p, sign=-p.sign), x, y))


def psi_gauss_y_exponent_halved(monkeypatch):
    # exp(-B^2 / 4) in place of exp(-B^2 / 2), with N unchanged
    _patch_psi(monkeypatch, lambda p, x, y: _psi(p, x, y) * np.exp(((np.asarray(y) - p.y0) / p.sigma_y) ** 2 / 4))


def scaled_keeps_eta(monkeypatch):
    monkeypatch.setattr(DeevParams, "scaled", property(
        lambda p: replace(p, sigma_x=1.0, sigma_y=1.0, x0=0.0, y0=0.0, px0=0.0, py0=0.0)))


def laguerre_argument_a_minus_sq(monkeypatch):
    # L_m((A - sQ)^2 + (B - sP)^2) is the validated form at the point reflected in Q
    _patch_standard_form(monkeypatch, lambda p, x, y, px, py, constant=None:
                         _wigner4d(p, x, y, px, 2.0 * p.py0 - py, constant=constant))


def exponent_takes_099_q2(monkeypatch):
    _patch_standard_form(monkeypatch, lambda p, x, y, px, py, constant=None:
                         _wigner4d(p, x, y, px, py, constant=constant)
                         * np.exp(0.01 * p.offsets(x, y, px, py)[3] ** 2))


def standard_constant_off_by_1e5(monkeypatch):
    monkeypatch.setattr(wigner, "standard_constant", lambda m: _standard_constant(m) * (1 + 1e-5))


def offsets_q_uses_sigma_x(monkeypatch):
    def offsets(p, x, y, px, py):
        a, b, pp, _ = _offsets(p, x, y, px, py)
        return a, b, pp, p.sigma_x * (py - p.py0)
    monkeypatch.setattr(DeevParams, "offsets", offsets)


def swapped_keeps_sign(monkeypatch):
    monkeypatch.setattr(DeevParams, "swapped", lambda p: replace(_swapped(p), sign=p.sign))


def offsets_p_ignores_px0(monkeypatch):
    def offsets(p, x, y, px, py):
        a, b, _, q = _offsets(p, x, y, px, py)
        return a, b, p.sigma_x * px, q
    monkeypatch.setattr(DeevParams, "offsets", offsets)


def offsets_pq_ignore_px0_py0(monkeypatch):
    def offsets(p, x, y, px, py):
        a, b, _, _ = _offsets(p, x, y, px, py)
        return a, b, p.sigma_x * px, p.sigma_y * py
    monkeypatch.setattr(DeevParams, "offsets", offsets)


def plane_wave_conjugated(monkeypatch):
    # exp(-i p0.X) is psi's own expression at the opposite momentum displacement
    _patch_psi(monkeypatch, lambda p, x, y: _psi(replace(p, px0=-p.px0, py0=-p.py0), x, y))


def norm_rule_at_m_plus_1_nodes(monkeypatch):
    def norm(p):
        s, w = np.polynomial.hermite.hermgauss(p.m + 1)
        hx, hy = p.eta_x * p.sigma_x, p.eta_y * p.sigma_y
        poly = ((hx * s[:, None]) ** 2 + (hy * s[None, :]) ** 2) ** p.m
        return 1.0 / math.sqrt(p.sigma_x * p.sigma_y * float(np.sum(w[:, None] * w[None, :] * poly)))
    monkeypatch.setattr(DeevParams, "norm_constant", property(norm))


# ROADMAP item 18: no suite checks the momentum displacement without DeevParams.offsets
_MISSED_TODAY = pytest.mark.xfail(strict=True, raises=AssertionError,
                                  reason="item 18: verify misses a momentum-frame error")

# (fault, states, the suites that fail besides minima-count, or the exception that stops the run). Each comment
# names the Tier-1 tests that also fail.
ROWS = [
    # 19 tests: test_state.py's normalization tests, test_oracle.py's marginal tests, criterion 4,
    # test_wigner4d_marginal_is_intensity, test_closed_form_marginal_is_intensity_exactly, the field and
    # verify goldens and the verify sweeps. At m = 40 the marginal suite catches it only on the intensity ring
    pytest.param(norm_drops_sigma_factor, (*BOTH, "m40"), {"marginal"}, id="norm_constant drops its sigma factor"),
    # 18 tests: test_oracle.py's closed-form comparisons and calibrations, criteria 2 and 3,
    # test_oracle_equivalence_all_parameter_sets, test_swapped_is_the_mode_exchange, the verify golden and sweeps
    pytest.param(psi_vortex_sign_flipped, BOTH, {"oracle-equivalence", "adjudication"},
                 id="psi's vortex sign flipped"),
    # 40 tests, among them test_state.py's normalization tests, test_oracle.py::test_norm_is_one,
    # test_closed_form_marginal_is_intensity_exactly, criteria 1, 2, 3 and 5, and the field and verify goldens
    pytest.param(psi_gauss_y_exponent_halved, BOTH, {"normalization", "marginal", "oracle-equivalence", "adjudication"},
                 id="psi's Gaussian exponent in y halved"),
    # the run stops: the tie rule reads the weights of the scaled state, so the calibration's wigner4d, the
    # first closed-form call, rejects the state. The normalization reads them too. 105 tests, among them
    # test_scaled_state_is_psi_in_its_own_frame, the normalization tests, the closed-form tests on states
    # with widths other than 1, the other fault rows, every golden and the verify sweeps
    pytest.param(scaled_keeps_eta, BOTH, ValueError, id="scaled keeps eta"),
    # 21 tests: test_swapped_is_the_mode_exchange, test_verify_symmetry_fails_when_the_exchange_keeps_the_sign,
    # the oracle comparisons, criteria 2 and 3, the wigner-standard and verify goldens. Not the identity
    # tests: the fault is a reflection in Q, which leaves both integrals as they are
    pytest.param(laguerre_argument_a_minus_sq, BOTH, {"oracle-equivalence", "symmetry", "adjudication"},
                 id="Laguerre argument (a - sq)^2"),
    # 30 tests, among them the identity, box and exact marginal integrals of test_wigner.py, the oracle
    # comparisons, test_swapped_is_the_mode_exchange, the wigner-standard and verify goldens
    pytest.param(exponent_takes_099_q2, BOTH, {"marginal", "oracle-equivalence", "symmetry", "adjudication"},
                 id="wigner4d's exponent takes 0.99 q^2"),
    # adjudication passes it (constant-only-mismatch passes by design) and the marginal suite's 1e-5 misses it;
    # 28 tests catch it, among them test_wigner4d_is_pure, test_wigner4d_integrates_to_one_exactly and
    # test_closed_form_marginal_is_intensity_exactly, test_center_values, the oracle comparisons and
    # calibrations, the wigner-standard and verify goldens
    pytest.param(standard_constant_off_by_1e5, BOTH, {"oracle-equivalence"},
                 id="standard constant off by 1e-5"),
    # 17 tests: test_offsets_invert_phase_point, test_swapped_is_the_mode_exchange, test_no_width_reaches_the_oracle,
    # the identity and box integrals, the wigner-standard and verify goldens and sweeps
    pytest.param(offsets_q_uses_sigma_x, BOTH, {"symmetry"}, id="offsets: Q uses sigma_x"),
    # 8 tests: test_swapped_is_the_mode_exchange, test_verify_at_one_thread_samples_on_one_worker, the verify golden
    # and sweeps
    pytest.param(swapped_keeps_sign, BOTH, {"symmetry"}, id="swapped keeps the sign"),
    # the recipe has px0 = 0, where the fault changes nothing. 11 tests: test_offsets_invert_phase_point,
    # test_swapped_is_the_mode_exchange, test_displacement_covariance, test_center_values, the identity
    # integrals, test_displaced_states_in_width_units, test_no_width_reaches_the_oracle, the verify golden
    # (its displaced state) and two verify sweeps
    pytest.param(offsets_p_ignores_px0, ("displaced",), {"symmetry"}, id="offsets: P ignores px0"),
    # 9 tests: those of the row above but test_swapped_is_the_mode_exchange (the fault is symmetric)
    pytest.param(offsets_pq_ignore_px0_py0, ("displaced",), {"oracle-equivalence"},
                 marks=_MISSED_TODAY, id="offsets: P and Q ignore px0, py0"),
    # 1 test: test_state.py::test_displacement_covariance_pointwise
    pytest.param(plane_wave_conjugated, ("displaced",), {"oracle-equivalence"},
                 marks=_MISSED_TODAY, id="psi's plane wave conjugated"),
    # not a fault: m + 1 nodes are exact for the degree-2m integrand too. Only the two field goldens
    # fail, since N's last digits move
    pytest.param(norm_rule_at_m_plus_1_nodes, BOTH, set(), id="normalization rule at m + 1 nodes"),
]


@pytest.mark.parametrize("fault, states, failing", ROWS)
def test_each_fault_fails_its_suites(monkeypatch, fault, states, failing):
    fault(monkeypatch)
    for name in states:
        if failing is ValueError:
            with pytest.raises(ValueError, match="wigner4d requires eta_x sigma_x == eta_y sigma_y"):
                run_verify(STATES[name](), threads=1)
            continue
        outcome = run_verify(STATES[name](), threads=1)
        got = {s.name for s in outcome.suites if not s.passed and s.name != "minima-count"}
        assert got == failing, name

"""Byte-identity guard: the canonical recipes reproduce the recorded sha256.

``bench/golden.json`` holds the sha256 of every output file of five
checked-in recipes (and of the coupler's stdout). Each recipe runs
in-process at one and at two threads; the file is only read here.
"""

import hashlib
import json
import os

import pytest

from deev.cli import main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RECIPES = {
    "field": ("field", "fig2_intensity.json"),
    "wigner-standard": ("wigner", "fig3_wigner_standard.json"),
    "wigner-candidate-xpx": ("wigner", "fig3_wigner_candidate.json", "--plane", "xpx"),
    "sit": ("sit", "fig4_sit.json"),
    "coupler-dcdc-5050": ("coupler", "coupler_dcdc_5050.json"),
}


def sha256(data):
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module")
def golden():
    with open(os.path.join(ROOT, "bench", "golden.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_every_golden_entry_has_a_recipe(golden):
    assert sorted(golden) == sorted(RECIPES)


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("name", sorted(RECIPES))
def test_recipe_matches_golden(golden, tmp_path, capsys, name, threads):
    command, config, *extra = RECIPES[name]
    out = tmp_path / "out"
    argv = [command, "--config", os.path.join(ROOT, "configs", config), *extra,
            "--out", str(out), "--threads", threads]
    assert main(argv) == 0
    stdout = capsys.readouterr().out
    if "stdout" in golden[name]:
        got = {"stdout": sha256(stdout.encode())}
    else:
        got = {f: sha256((out / f).read_bytes()) for f in sorted(os.listdir(out))}
    assert got == golden[name]


def verify_outcome(code, stdout, out):
    """The parts of a verify run that only a change of result moves.

    The status word and name of each suite, the verdict and overall lines,
    both reports' verdicts and the exit code; the numeric details move with
    any legitimate oracle change and are not part of it.
    """
    lines = stdout.splitlines()
    suites = [" ".join(line.split()[:2]) for line in lines if line.startswith(("PASS ", "FAIL "))]
    verdicts = [line for line in lines if line.startswith(("closed-form verdict:", "candidate-form verdict:",
                                                           "overall:"))]
    reports = [(out / f"discrepancy_{form}.txt").read_text("ascii").splitlines()[-1].removeprefix("verdict=")
               for form in ("standard", "candidate")]
    return "\n".join(suites + verdicts + reports + [f"exit={code}"])


# sha256 of verify_outcome for configs/verify_elliptic_m3.json; bench/golden.json holds no verify entry
VERIFY_GOLDEN = "8b6632fa706e57b3a0a1436806699ebf49119119d145832512d90950727a5203"


def test_verify_recipe_matches_golden(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["verify", "--config", os.path.join(ROOT, "configs", "verify_elliptic_m3.json"),
                 "--out", str(out)])
    outcome = verify_outcome(code, capsys.readouterr().out, out)
    assert sha256(outcome.encode()) == VERIFY_GOLDEN

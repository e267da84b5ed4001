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

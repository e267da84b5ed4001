"""The README's own examples, run as written: the CLI's exit table and the library example.

The README holds the only copy of each; these tests read them from it, so a row or an example that
no longer holds fails here.
"""

import math
import os
import shlex
from pathlib import Path

import pytest

from deev.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
_WRITERS = ("field", "wigner", "sit", "verify")
_COLUMNS = ("case", "command", "config", "flags", "exit", "key", "fragment")


def readme_between(start, end):
    """The README's text between the line ``start`` and the next line ``end``."""
    text = README.read_text(encoding="utf-8")
    head = text.index(f"\n{start}\n") + len(start) + 2
    return text[head:text.index(f"\n{end}\n", head)]


def exit_rows():
    """The rows of the README's exit table, each a dict by column, code spans unwrapped."""
    lines = readme_between("<!-- exit-table -->", "<!-- /exit-table -->").splitlines()
    rows = [[cell.strip().removeprefix("`").removesuffix("`") for cell in line.strip().strip("|").split("|")]
            for line in lines]
    assert rows[0] == list(_COLUMNS) and all(len(row) == len(_COLUMNS) for row in rows), "a cell holds a '|'"
    return [dict(zip(_COLUMNS, row)) for row in rows[2:]]


_ROWS = exit_rows()


@pytest.mark.parametrize("row", _ROWS, ids=[row["case"] for row in _ROWS])
def test_readme_exit_table(tmp_path, capsys, monkeypatch, row):
    monkeypatch.chdir(tmp_path)     # an out_dir in the config is relative to the working directory
    for command in row["command"].split(", "):
        run = tmp_path / command
        run.mkdir()
        config = run / "c.json"
        config.write_text(row["config"], encoding="utf-8")
        flags = [flag.replace("{config}", str(config)) for flag in shlex.split(row["flags"])]
        out = run / "out"
        if command in _WRITERS and "--out" not in flags and '"out_dir"' not in row["config"]:
            flags += ["--out", str(out)]
        try:
            code = main([command, "--config", str(config), *flags])
        except SystemExit as exit_:     # argparse's own errors
            code = exit_.code
        printed, err = capsys.readouterr()
        assert code == int(row["exit"]), (command, err)
        if code == 2:
            assert err.startswith(f"error: {row['key']}: ") if row["key"] else "error: " in err, (command, err)
            assert row["fragment"] in err, (command, err)
            assert printed == "" and os.listdir(run) == ["c.json"], command
        else:
            paths = [line for line in printed.splitlines() if line.startswith(str(out))]
            assert (paths != []) == (command in _WRITERS), (command, printed)
            assert all(os.path.isfile(path) for path in paths), (command, printed)
            assert row["fragment"] in printed + err, (command, printed, err)
    assert sorted(os.listdir(tmp_path)) == sorted(row["command"].split(", ")), "a run left output outside --out"


def test_readme_library_example():
    # the block's comment says what the calibrated constant should be
    block = readme_between("```python", "```")
    namespace = {}
    exec(block, namespace)
    assert "calibrate_constant_detailed(p).constant  # (-1)^m / pi^2" in block
    m = namespace["p"].m
    assert namespace["k"] == pytest.approx((-1) ** m / math.pi ** 2, rel=1e-12, abs=0.0)

"""The README's examples run as written.

Every ``dopplerlab`` command in the README's ``sh`` blocks runs through
:func:`dopplerlab.cli.main` into a temporary output directory, and the
Python API block is executed.
"""

import re
import shlex
from pathlib import Path

import pytest

from dopplerlab.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def _blocks(lang):
    return re.findall(rf"```{lang}\n(.*?)```", README.read_text(), re.S)


COMMANDS = [shlex.split(line)[1:]
            for block in _blocks("sh")
            for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("dopplerlab ")]


def test_readme_has_cli_examples():
    assert COMMANDS


@pytest.mark.parametrize("argv", COMMANDS, ids=[argv[0] for argv in COMMANDS])
def test_cli_example_runs(argv, tmp_path):
    assert main([*argv, "--out", str(tmp_path)]) == 0
    assert any(tmp_path.iterdir())


def test_python_example_runs(capsys):
    (block,) = _blocks("python")
    exec(compile(block, str(README), "exec"), {})
    t_e, residual = map(float, capsys.readouterr().out.split())
    assert 0.0 <= t_e <= 12.0
    assert residual <= 1e-12

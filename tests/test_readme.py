"""The README's examples run as written.

Every ``dopplerlab`` command in the README's ``sh`` blocks runs through
:func:`dopplerlab.cli.main` into a temporary output directory, the
Python API block is executed, the CLI table's "flags" column lists each
command's flags as :func:`dopplerlab.cli.build_parser` builds them, and the
config block names every key of :data:`dopplerlab.config.SCHEMA`.
"""

import json
import re
import shlex
from pathlib import Path

import pytest

from dopplerlab.cli import main
from dopplerlab.config import SCHEMA, parse_config

from conftest import cli_subparsers

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


def test_cli_table_flags_are_the_parser_flags():
    # The table whose header starts "| command | flags |"; its rows are
    # "| `command ...` | `flags` | writes | purpose |".
    (block,) = re.findall(r"^\| command +\| flags +\|.*?\n\n", README.read_text(), re.M | re.S)
    rows = re.findall(r"^\| `([a-z-]+)[^`]*` *\| ([^|]*)\|", block, re.M)
    table = {name: set(re.findall(r"--[a-z-]+", flags)) for name, flags in rows}
    subparsers = cli_subparsers()
    parser = {name: {s for a in sub._actions for s in a.option_strings}
              - {"-h", "--help", "--config", "--out"} for name, sub in subparsers.items()}
    assert table == parser
    # Every command takes --out, and all but figure take --config.
    assert {name for name, sub in subparsers.items()
            if "--config" in sub._option_string_actions} == set(parser) - {"figure"}
    assert all("--out" in sub._option_string_actions for sub in subparsers.values())


def test_python_example_runs(capsys):
    (block,) = _blocks("python")
    exec(compile(block, str(README), "exec"), {})
    t_e, residual = map(float, capsys.readouterr().out.split())
    assert 0.0 <= t_e <= 12.0
    assert residual <= 1e-12


def test_config_block_is_the_schema(tmp_path):
    (block,) = _blocks("json")
    doc = json.loads(block)
    parse_config(doc)
    assert {name: set(table) for name, table in doc.items()} == \
        {name: set(table) for name, table in SCHEMA.items()}
    path = tmp_path / "run.json"
    path.write_text(block)
    out = tmp_path / "out"
    assert main(["spectrum", "--config", str(path), "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["spectrum.csv", "spectrum_peaks.csv"]

"""Every command of README's "Command line" section runs cleanly, and
every path its "Layout" block lists exists."""

import re
import shlex
from pathlib import Path

import pytest

from powerlab.cli import main

ROOT = Path(__file__).resolve().parent.parent
LOOP = re.compile(r"for (\w+) in ([^;]*); do (.*); done")


def _section(title: str) -> str:
    text = (ROOT / "README.md").read_text()
    return text.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def _commands() -> list:
    """The command lines of the section's shell blocks; a ``for`` loop
    around one command is one line."""
    section = _section("Command line")
    blocks = re.findall(r"```sh\n(.*?)```", section, re.S)
    lines = [line for block in blocks for line in block.splitlines() if line.strip()]
    if not lines:
        raise ValueError("README's Command line section has no shell block")
    return lines


def _argvs(line: str) -> list:
    loop = LOOP.fullmatch(line)
    if loop is None:
        return [shlex.split(line)]
    var, values, body = loop.groups()
    return [shlex.split(body.replace(f"${var}", v)) for v in values.split()]


@pytest.mark.parametrize("line", _commands())
def test_readme_command_exits_0_and_writes_no_error(line, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # `compile --output` writes into the working directory
    for argv in _argvs(line):
        assert argv[0] == "powerlab", line
        args = [str(ROOT / a) if a.startswith("scenarios/") else a for a in argv[1:]]
        assert main(args) == 0, argv
        assert capsys.readouterr().err == "", argv


def _layout_paths() -> list:
    """The paths listed in README's "Layout" block, one per line."""
    block = re.search(r"```\n(.*?)```", _section("Layout"), re.S)
    if block is None:
        raise ValueError("README's Layout section has no code block")
    return [line.split()[0] for line in block.group(1).splitlines() if line.strip()]


@pytest.mark.parametrize("path", _layout_paths())
def test_readme_layout_path_exists(path):
    assert (ROOT / path).exists(), path

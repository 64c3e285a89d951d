"""The `$ gmspectra ...` examples in README.md print exactly what they show."""

import re
import shlex
from pathlib import Path

import pytest
from click.testing import CliRunner

from gmspectra import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def examples():
    """(command, shown output lines) for every `$ gmspectra` line of a text block.

    A block cut short with `...` shows only the lines above it; a command
    followed directly by another shows no output.
    """
    out = []
    for block in re.findall(r"```text\n(.*?)```", README.read_text(), re.S):
        for chunk in re.split(r"^(?=\$ )", block, flags=re.M):
            if chunk.startswith("$ gmspectra "):
                command, *shown = chunk.rstrip("\n").split("\n")
                out.append((command[2:], shown))
    return out


EXAMPLES = examples()


@pytest.mark.parametrize("command,shown", EXAMPLES, ids=[c for c, _ in EXAMPLES])
def test_readme_example(command, shown):
    args = shlex.split(command, comments=True)[1:]
    result = CliRunner().invoke(cli.main, args)
    assert result.exit_code == 0, result.output
    lines = result.output.splitlines()
    if shown and shown[-1] == "...":
        shown = shown[:-1]
        lines = lines[: len(shown)]
    if shown:
        assert lines == shown


def test_every_example_is_collected():
    assert len(EXAMPLES) == 8

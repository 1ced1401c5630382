"""The README's examples run as printed."""

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from monodromy import cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _block(heading, language):
    """The first ``language`` fence under ``## heading``."""
    match = re.search(rf"^## {heading}\n.*?^```{language}\n(.*?)^```", README, re.M | re.S)
    assert match, f"no {language} block under {heading!r}"
    return match.group(1)


COMMANDS = [line for line in _block("Command line", "sh").splitlines() if line.startswith("monodromy ")]


def test_readme_has_commands():
    assert COMMANDS


@pytest.mark.parametrize("line", COMMANDS)
def test_readme_command_runs(capsys, line):
    assert cli.main(shlex.split(line)[1:]) == 0
    assert capsys.readouterr().err == ""


def test_readme_library_use_prints_its_comments():
    code = _block("Library use", "python")
    expected = [line.split("# ", 1)[1].strip() for line in code.splitlines() if line.startswith("print(")]
    assert expected
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    assert out.getvalue().splitlines() == expected

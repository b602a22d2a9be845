"""README's command lines and library example run as written.

Each `cliquegrowth ...` line of the Command line block goes through
`cli.main` in a directory holding `data/fig1.edges`, as the README assumes;
`--out traj.csv` writes there too.
"""
import shlex
from pathlib import Path

import pytest

from cliquegrowth.cli import main

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")


def readme_block(heading: str, lang: str) -> str:
    """The first ```lang block after the `heading` line."""
    rest = README.split(f"\n{heading}\n", 1)[1]
    return rest.split(f"```{lang}\n", 1)[1].split("```", 1)[0]


def readme_commands() -> list[list[str]]:
    """The argv of each `cliquegrowth` line, continuations joined and
    trailing comments dropped."""
    text = readme_block("## Command line", "sh").replace("\\\n", " ")
    return [shlex.split(line, comments=True)[1:] for line in text.splitlines()
            if line.startswith("cliquegrowth ")]


COMMANDS = readme_commands()


@pytest.fixture
def readme_dir(tmp_path, monkeypatch):
    (tmp_path / "data").mkdir()
    (tmp_path / "data" / "fig1.edges").write_bytes((ROOT / "data" / "fig1.edges").read_bytes())
    monkeypatch.chdir(tmp_path)
    return tmp_path


def test_every_subcommand_shown():
    assert {argv[0] for argv in COMMANDS} == {
        "cliques", "dsets", "final-clique", "simulate", "localize", "exact",
        "bounds", "zchain", "drift"}


@pytest.mark.parametrize("argv", COMMANDS, ids=[argv[0] for argv in COMMANDS])
def test_command_line_runs(argv, readme_dir, capsys):
    assert main(argv) == 0, capsys.readouterr().err


def test_library_example(readme_dir, capsys):
    exec(readme_block("## Library example", "python"), {})
    assert capsys.readouterr().out.splitlines()[0] == "[4, 5, 6]"

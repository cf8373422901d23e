"""The README's quick start prints the table it shows."""

import re
from pathlib import Path

from logvicinity.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_prints_the_readme_table(tmp_path, capsys):
    section = README.read_text().split("## Quick start", 1)[1].split("\n## ")[0]
    command, table = re.findall(r"```[a-z]*\n(.*?)```", section, re.S)
    assert command.split() == ["logvicinity", "pipeline", "--generate",
                               "--seed", "7", "--workdir", "run"]
    assert main(command.split()[1:-1] + [str(tmp_path / "run")]) == 0
    assert capsys.readouterr().out == table

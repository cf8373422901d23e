"""The README's quick start prints the table it shows, and its
step-by-step commands run as written."""

import re
import shlex
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


def test_step_by_step_runs_as_written(tmp_path, monkeypatch, capsys):
    section = README.read_text().split("## Step-by-step pipeline", 1)[1]
    script = "".join(re.findall(r"```sh\n(.*?)```",
                                section.split("\n## ")[0], re.S))
    commands = [shlex.split(line, comments=True)
                for line in script.replace("\\\n", " ").splitlines()]
    commands = [argv for argv in commands if argv]
    assert len(commands) == 9
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert argv[0] == "logvicinity"
        assert main(argv[1:]) == 0, argv
        err = capsys.readouterr().err
        assert "warning:" not in err, (argv, err)

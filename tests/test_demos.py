"""Every demo script and the README's examples run against the checkout."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from clustercrypt.cli import main

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_exits_cleanly(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    result = subprocess.run(
        [sys.executable, str(demo)], cwd=ROOT, env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr


README = (ROOT / "README.md").read_text()


def readme_block(language, after):
    """The first fenced `language` block below the heading `after`."""
    section = README[README.index(after):]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


def test_readme_library_example(capsys):
    code = readme_block("python", "## Library in five lines")
    exec(compile(code, "README.md", "exec"), {})
    expected = [line[2:] for line in code.splitlines() if line.startswith("# ")]
    assert expected == ["DecodedMessage(number=6, letter='F')"]
    assert capsys.readouterr().out.splitlines() == expected


def test_readme_cli_session(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for line in readme_block("sh", "## CLI session").splitlines():
        command, _, comment = line.partition("#")
        argv = shlex.split(command)
        assert argv[0] == "clustercrypt"
        assert main(argv[1:]) == 0, line
        out = capsys.readouterr().out
        if argv[1] == "graph":
            # the comment states the counts: "14 classes, 84 labeled seeds"
            classes, seeds = re.findall(r"\d+", comment)
            assert f"mutation classes: {classes}\n" in out
            assert f"labeled seeds:    {seeds}\n" in out

"""The README's documented outputs hold: every Python block of its
"Library quick start" section runs and prints, line by line, what the
comments of its print calls say, and each `schurres` command of its shell
blocks that a comment documents prints that comment."""

import contextlib
import io
import re
import shlex
from pathlib import Path

from schurres.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def blocks(language, text):
    return re.findall(rf"^```{language}\n(.*?)^```$", text, re.M | re.S)


def documented(block, start):
    """(code, comment) for each line of block that begins with start, the
    comment being the one that ends the line, or else a comment line right
    after it, or None."""
    lines = block.splitlines()
    for line, following in zip(lines, lines[1:] + [""]):
        if line.startswith(start):
            code, mark, comment = line.partition("  # ")
            if not mark:
                comment = following[2:] if following.startswith("# ") else None
            yield code, comment


def test_the_quick_start_prints_what_its_comments_say():
    section = README.split("## Library quick start\n", 1)[1].split("\n## ", 1)[0]
    quick_start = blocks("python", section)
    assert len(quick_start) == 2
    for block in quick_start:
        expected = [comment for _, comment in documented(block, "print(")]
        assert None not in expected
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(compile(block, "README.md", "exec"), {})
        assert out.getvalue().splitlines() == expected


def test_each_documented_command_prints_its_comment(capsys):
    commands = [(code, comment) for block in blocks("sh", README)
                for code, comment in documented(block, "schurres ") if comment is not None]
    assert [code.split()[1] for code, _ in commands] == ["multiply"]
    for code, comment in commands:
        assert main(shlex.split(code)[1:]) == 0
        assert capsys.readouterr().out == comment + "\n"

"""The README's examples run and print what they say they print.

The Library quickstart block is executed statement by statement; a
statement followed by a ``# value`` comment must evaluate to that value.
In the Command line section, each ``solist ...`` line followed by
``# output`` lines is run in-process and must print exactly those lines
(``cat > FILE <<'EOF'`` blocks before it are written first).
"""

import ast
import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from solist.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _section(title: str) -> str:
    start = README.index(f"\n## {title}\n")
    end = README.find("\n## ", start + 1)
    return README[start:end if end >= 0 else None]


def _blocks(section: str, language: str) -> list[list[str]]:
    return [block.splitlines() for block in re.findall(rf"```{language}\n(.*?)```", section, re.S)]


def _leading_literal(text: str):
    """The Python literal at the start of ``text``: '"3.1a" (note)' is "3.1a"."""
    for end in range(len(text), 0, -1):
        try:
            return ast.literal_eval(text[:end].strip())
        except (ValueError, SyntaxError):
            continue
    raise ValueError(f"no literal at the start of {text!r}")


def test_library_quickstart_values():
    (lines,) = _blocks(_section("Library quickstart"), "python")
    namespace: dict = {}
    checked = 0
    for statement in ast.parse("\n".join(lines)).body:
        line = lines[statement.lineno - 1]
        code, hash_, comment = line.partition("#")
        if isinstance(statement, ast.Expr) and hash_:
            assert eval(code, namespace) == _leading_literal(comment), line
            checked += 1
        else:
            exec(compile(ast.Module([statement], []), "README", "exec"), namespace)
    assert checked == 6


def _command_examples() -> list[tuple[str, list[str], dict[str, str]]]:
    examples = []
    for lines in _blocks(_section("Command line"), "sh"):
        files: dict[str, str] = {}
        at = 0
        while at < len(lines):
            line = lines[at]
            heredoc = re.fullmatch(r"cat > (\S+) <<'EOF'", line)
            if heredoc:
                end = lines.index("EOF", at)
                files[heredoc.group(1)] = "\n".join(lines[at + 1:end]) + "\n"
                at = end
            elif line.startswith("solist "):
                output = []
                while at + 1 < len(lines) and lines[at + 1].startswith("# "):
                    at += 1
                    output.append(lines[at][2:])
                if output:
                    examples.append((line, output, dict(files)))
            at += 1
    return examples


EXAMPLES = _command_examples()


def test_command_examples_are_found():
    assert len(EXAMPLES) == 4


@pytest.mark.parametrize("command, output, files", EXAMPLES, ids=[example[0] for example in EXAMPLES])
def test_command_line_example(command, output, files, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(shlex.split(command)[1:])
    assert (code, out.getvalue().splitlines()) == (0, output)

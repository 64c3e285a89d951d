"""The examples in README.md compute exactly what they show.

The `$ gmspectra ...` lines of its text blocks print the lines below them,
and each statement of its Python block whose comment opens with a value
(the comment up to its first ": ", or a comment line right below the
statement) evaluates to that value.
"""

import ast
import io
import re
import shlex
import tokenize
from pathlib import Path

import pytest
from cli_invoke import invoke

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
    result = invoke(*args)
    assert result.exit_code == 0, result.output
    lines = result.output.splitlines()
    if shown and shown[-1] == "...":
        shown = shown[:-1]
        lines = lines[: len(shown)]
    if shown:
        assert lines == shown


def test_every_example_is_collected():
    assert len(EXAMPLES) == 8


def library_statements():
    """(statement, shown) for each top-level statement of the Python block;
    shown is the head of its comment, or None where it has no comment."""
    source = re.search(r"```python\n(.*?)```", README.read_text(), re.S).group(1)
    comments = {tok.start[0]: tok.string[1:].strip()
                for tok in tokenize.generate_tokens(io.StringIO(source).readline)
                if tok.type == tokenize.COMMENT}
    body = ast.parse(source).body
    starts = {stmt.lineno for stmt in body}
    out = []
    for stmt in body:
        below = stmt.end_lineno + 1
        comment = comments.get(stmt.end_lineno) or (
            comments.get(below) if below not in starts else None)
        out.append((stmt, comment and comment.split(": ")[0]))
    return out


def test_library_example_shows_what_it_computes():
    namespace = {}
    checked = []
    for stmt, shown in library_statements():
        if isinstance(stmt, ast.Expr):
            actual = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
            actual = namespace[stmt.targets[0].id] if isinstance(stmt, ast.Assign) else None
        if shown is None:
            continue
        try:
            expected = eval(shown, dict(namespace))
        except (SyntaxError, NameError):  # prose, not a value
            continue
        assert actual == expected, (ast.unparse(stmt), shown)
        checked.append(shown)
    # gap sequence, chi1, chi2, alpha twice, the runs' columns, the dense
    # sequence, chi1_log and the alpha_search loci
    assert checked == ["[1, 1, 0, 1]", "7", "31", "Fraction(29, 60)", "Fraction(29, 60)",
                       "((0, 1, 2), (0, 1, 2))", "(6, 3, 1)", "(6, 3, 1)", "4",
                       "[(7, 3), (10,)]"]

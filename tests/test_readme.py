"""The README quick start runs, and every result it shows is the one it prints.

The first python block of README.md is executed statement by statement. An
expression followed by ``# ...`` comment lines, on its own last line or on
the lines right after it, shows its result there: the expression's repr must
equal the comment text, whitespace ignored.
"""

import ast
import re
from pathlib import Path

from sigrel import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_start():
    match = re.search(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert match, "README.md has no python block"
    return match[1]


def shown_result(lines, node):
    """The comment text after ``node``: inline on its last line, then each
    comment line directly below it. None if there is no comment."""
    parts = []
    tail = lines[node.end_lineno - 1][node.end_col_offset :].strip()
    if tail.startswith("#"):
        parts.append(tail[1:])
    for line in lines[node.end_lineno :]:
        if not line.startswith("#"):
            break
        parts.append(line[1:])
    return "".join(parts) if parts else None


def test_quick_start_results_match_the_comments():
    source = quick_start()
    lines = source.splitlines()
    namespace: dict = {}
    checked = []
    for node in ast.parse(source).body:
        want = shown_result(lines, node) if isinstance(node, ast.Expr) else None
        if want is None:
            exec(compile(ast.Module([node], []), str(README), "exec"), namespace)
            continue
        got = repr(eval(compile(ast.Expression(node.value), str(README), "eval"), namespace))
        assert re.sub(r"\s", "", got) == re.sub(r"\s", "", want), ast.unparse(node)
        checked.append(ast.unparse(node))
    # boland and probability signatures, agreement, the curve's two tuples, verdicts
    assert len(checked) == 6, checked


def test_every_public_limit_is_named():
    """Each public module-level ``*_LIMIT`` constant of the package is named in
    the README. The module sources are read, not ``sigrel.__all__``, so that a
    limit left out of its module's ``__all__`` is still found."""
    readme = README.read_text(encoding="utf-8")
    limits = [
        target.id
        for path in sorted((README.parent / "src" / "sigrel").glob("*.py"))
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name)
        and target.id.endswith("_LIMIT")
        and not target.id.startswith("_")
    ]
    assert len(limits) >= 4, limits
    assert [name for name in limits if not re.search(rf"\b{name}\b", readme)] == []


def test_every_command_is_shown():
    """Each subcommand of the parser appears as ``sigrel <name>`` in the
    README's "Command line" block."""
    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    match = re.search(r"```sh\n(.*?)```", section, re.S)
    assert match, "the Command line section has no sh block"
    shown = set(re.findall(r"^sigrel (\S+)", match[1], re.M))
    (commands,) = [a.choices for a in cli._build_parser()._actions if a.dest == "command"]
    assert len(commands) >= 6, commands
    assert sorted(set(commands) - shown) == []

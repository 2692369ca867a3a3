"""The README's library example runs, its command-line examples print
what their comments state, and its prose names only live functions, so a
removed public name cannot linger in the documentation."""

from __future__ import annotations

import builtins
import importlib
import re
import shlex
from pathlib import Path

import ttrees
from ttrees import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def _block(heading: str, language: str) -> str:
    """The first fenced block of `language` under a `## heading` of the README."""
    section = README.read_text(encoding="utf-8").split(f"\n## {heading}\n", 1)[1]
    return re.search(rf"```{language}\n(.*?)```", section, re.DOTALL).group(1)


def _library_example() -> dict:
    """The names the README's library example binds, after running it."""
    names: dict = {}
    exec(compile(_block("Library", "python"), "README.md", "exec"), names)
    return names


def test_library_example_runs():
    _library_example()


# `# -> OUT` states what a command prints with exit 0; `# "OUT", exit N` both.
_STATED = re.compile(r'^ttrees (.+?)\s+# (?:-> (.+)|"([^"]+)", exit (\d+))$', re.MULTILINE)


def test_command_line_examples_print_what_they_state(tmp_path, monkeypatch, capsys):
    examples = _STATED.findall(_block("Command line", "bash"))
    assert len(examples) >= 5, "the pattern no longer matches the README's examples"
    problem = _library_example()["problem"]
    (tmp_path / "problem.prob").write_text(ttrees.render_problem(problem), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    for command, printed, quoted, code in examples:
        status = cli.run(shlex.split(command))
        out, err = capsys.readouterr()
        assert (status, out, err) == (int(code or 0), (printed or quoted) + "\n", ""), command


def _resolves(call: str) -> bool:
    """Whether a called name such as `compare`, `problem.type` or
    `ttrees.cli.run` is public API, an attribute of a public class, or a
    builtin."""
    if call.startswith("ttrees."):
        *modules, name = call.split(".")
        return hasattr(importlib.import_module(".".join(modules)), name)
    name = call.rsplit(".", 1)[-1]
    classes = [obj for obj in map(ttrees.__dict__.get, ttrees.__all__) if isinstance(obj, type)]
    return (
        name in ttrees.__all__
        or any(hasattr(cls, name) for cls in classes)
        or hasattr(builtins, name)
    )


def test_prose_names_only_live_functions():
    text = README.read_text(encoding="utf-8")
    prose = re.sub(r"^```.*?^```", "", text, flags=re.DOTALL | re.MULTILINE)
    # Lowercase calls only: `A(B(D),B)` and the like are tree expressions.
    calls = {
        call
        for span in re.findall(r"`([^`\n]+)`", prose)
        for call in re.findall(r"(?<![\w.])((?:[A-Za-z_]\w*\.)*[a-z_]\w*)\(", span)
    }
    assert calls, "no backticked calls found; the pattern no longer matches the README"
    assert [call for call in sorted(calls) if not _resolves(call)] == []

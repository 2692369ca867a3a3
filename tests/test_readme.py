"""The README's library example runs, and its prose names only live
functions, so a removed public name cannot linger in the documentation."""

from __future__ import annotations

import builtins
import importlib
import re
from pathlib import Path

import ttrees

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs():
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(block, "README.md", "exec"), {})


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

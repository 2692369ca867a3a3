"""The public API is what `__all__` says, and nothing defined in `src/` is
dead: every definition is used or documented somewhere outside itself.
Tests do not count as a user: a name that only tests read is a test
oracle, and belongs in `tests/`."""

from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path

import ttrees

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "ttrees").glob("*.py"))
CORPUS = [
    *sorted((ROOT / "src").rglob("*.py")),
    *sorted((ROOT / "perfbench").glob("*.py")),
    ROOT / "README.md",
]


def _definitions(path: Path) -> list[tuple[str, int, int]]:
    """(name, first line, last line) of each top-level function and class
    of a module, and of each non-dunder method of its classes."""
    found = []
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.append((node.name, node.lineno, node.end_lineno))
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    found.append((item.name, item.lineno, item.end_lineno))
    return found


def test_all_names_resolve_once():
    repeated = [name for name, n in Counter(ttrees.__all__).items() if n > 1]
    assert repeated == []
    missing = [name for name in ttrees.__all__ if not hasattr(ttrees, name)]
    assert missing == []


def test_each_module_lists_its_public_definitions():
    """A new public function or class is one edit: its module's `__all__`,
    which the package concatenates."""
    modules = [ttrees.core, ttrees.counting, ttrees.order, ttrees.search]
    for module in modules:
        body = ast.parse(Path(module.__file__).read_text(encoding="utf-8")).body
        public = [
            node.name
            for node in body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
        ]
        assert module.__all__ == sorted(public), module.__name__
    names = [name for module in modules for name in module.__all__]
    assert ttrees.__all__ == names
    assert len(set(names)) == len(names)
    star: dict = {}
    exec("from ttrees import *", star)
    assert sorted(star.keys() - {"__builtins__"}) == sorted(names)


def test_every_definition_is_referenced():
    texts = {path: path.read_text(encoding="utf-8") for path in CORPUS}
    unused = []
    for source in SOURCES:
        lines = texts[source].splitlines()
        for name, first, last in _definitions(source):
            word = re.compile(rf"\b{re.escape(name)}\b")
            # The definition's own text (signature, body, docstring) is no use.
            own = "\n".join(lines[: first - 1] + lines[last:])
            others = (text for path, text in texts.items() if path != source)
            if not word.search(own) and not any(word.search(text) for text in others):
                unused.append(f"{source.name}: {name}")
    assert unused == []


def test_every_private_option_is_passed():
    """An optional parameter of a module-level `_private` function is passed,
    by position or by keyword, in some call in `src/`; otherwise its default
    is the only value and the parameter is a knob that nobody sets.  Calls
    are matched by name or attribute, so `f(...)` and `module.f(...)` both
    count for `f`."""
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES]
    options = {}  # (function, parameter) -> its position, or None if keyword-only
    for tree in trees:
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and node.name.startswith("_"):
                args = node.args
                positional = args.posonlyargs + args.args
                for i in range(len(positional) - len(args.defaults), len(positional)):
                    options[node.name, positional[i].arg] = i
                for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                    if default is not None:
                        options[node.name, arg.arg] = None
    passed = set()
    for call in (node for tree in trees for node in ast.walk(tree)):
        if isinstance(call, ast.Call):
            name = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
            passed.update((name, keyword.arg) for keyword in call.keywords)
            passed.update((name, i) for i in range(len(call.args)))
    unset = [
        f"{function}({parameter})"
        for (function, parameter), position in options.items()
        if (function, parameter) not in passed and (function, position) not in passed
    ]
    assert unset == []

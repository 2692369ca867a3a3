"""Input generation and output checking for the benchmark, independent of ttrees.

Nothing here imports the package under test: the expected tree counts come
from this module's own sequence/multiset recurrences, T-tree lines are
parsed and checked by this module's own parser, and the tree order is
re-derived as a tuple key.  The key of a node lists, for each component
type of its label in type order, the length of that T-list followed by the
keys of its members; comparing keys lexicographically is the package's
tree order (shorter T-list first, then member by member).
"""

from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass


@dataclass(frozen=True)
class Spec:
    """A structural problem: `types` in type order, `rels` as
    (composite, component, max) triples."""

    root: str
    types: tuple[str, ...]
    rels: tuple[tuple[str, str, int], ...]

    def text(self) -> str:
        lines = [f"root {self.root}"] + [f"type {t}" for t in self.types]
        lines += [f"rel {a} {b} max {m}" for a, b, m in self.rels]
        return "\n".join(lines) + "\n"

    def slots(self) -> dict[str, list[tuple[str, int]]]:
        """Component types of each type, in type order, with their maxima."""
        rank = {t: i for i, t in enumerate(self.types)}
        out: dict[str, list[tuple[str, int]]] = {t: [] for t in self.types}
        for a, b, m in self.rels:
            out[a].append((b, m))
        for components in out.values():
            components.sort(key=lambda pair: rank[pair[0]])
        return out


def chain_spec(depth: int, branch: int) -> Spec:
    types = tuple(f"T{i}" for i in range(depth + 1))
    return Spec("T0", types, tuple((types[i], types[i + 1], branch) for i in range(depth)))


def count_trees(spec: Spec, max_height: int | None, canonical: bool) -> int:
    """Conforming T-trees of height <= max_height (all of them when None,
    which requires an acyclic type graph).

    A T-list of at most m members is a sequence (sum of N^i, i = 0..m) for
    all trees and a multiset (C(M + m, m)) for canonical ones.
    """
    height = len(spec.types) if max_height is None else max_height
    slots = spec.slots()
    counts = {t: 1 for t in spec.types}  # height 0: leaves only
    for _ in range(height):
        grown = {}
        for t in spec.types:
            value = 1
            for child, m in slots[t]:
                c = counts[child]
                value *= math.comb(c + m, m) if canonical else sum(c**i for i in range(m + 1))
            grown[t] = value
        counts = grown
    return counts[spec.root]


_TOKEN = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|[(),]")


class _Reject(Exception):
    pass


class TreeChecker:
    """Parses rendered T-tree lines and checks them against a problem."""

    def __init__(self, spec: Spec, max_height: int | None = None):
        self.spec = spec
        self.max_height = max_height
        self.rank = {t: i for i, t in enumerate(spec.types)}
        self.slots = spec.slots()
        self._sorted = True

    def check(self, line: str, canonical: bool) -> str | None:
        """None when `line` is a normalized rendering of a conforming tree
        (and canonical, if asked); otherwise the reason it is not."""
        tokens = _TOKEN.findall(line)
        if "".join(tokens) != line:
            return "unexpected characters"
        self._sorted = True
        try:
            label, _, height = self._parse(tokens)
        except _Reject as exc:
            return str(exc)
        if label != self.spec.root:
            return f"root {label} is not {self.spec.root}"
        if self.max_height is not None and height > self.max_height:
            return f"height {height} exceeds {self.max_height}"
        if canonical and not self._sorted:
            return "not canonical"
        return None

    def _parse(self, tokens: list[str]) -> tuple:
        # Frames are [label, children]; the bottom frame collects the root.
        stack: list[list] = [[None, []]]
        pending: str | None = None
        need_name = True
        for tok in tokens:
            if tok not in "(),":
                if not need_name:
                    raise _Reject("two labels in a row")
                pending, need_name = tok, False
                continue
            if tok == "(":
                if pending is None:
                    raise _Reject("'(' without a label")
                stack.append([pending, []])
                pending, need_name = None, True
                continue
            if need_name:
                raise _Reject(f"missing label before {tok!r}")
            if pending is not None:
                stack[-1][1].append(self._node(pending, []))
                pending = None
            if tok == ",":
                need_name = True
            else:
                if len(stack) == 1:
                    raise _Reject("unbalanced ')'")
                label, children = stack.pop()
                stack[-1][1].append(self._node(label, children))
        if need_name or len(stack) != 1:
            raise _Reject("unexpected end of input")
        if pending is not None:
            stack[0][1].append(self._node(pending, []))
        if len(stack[0][1]) != 1:
            raise _Reject("more than one tree on the line")
        return stack[0][1][0]

    def _node(self, label: str, children: list) -> tuple:
        """(label, order key, height) of a node; notes unsorted T-lists."""
        if label not in self.slots:
            raise _Reject(f"unknown type {label}")
        groups: dict[str, list] = {}
        last = -1
        for child_label, key, _ in children:
            rank = self.rank[child_label]
            if rank < last:
                raise _Reject("children not grouped in type order")
            if rank > last:
                groups[child_label] = []
                last = rank
            groups[child_label].append(key)
        flat: list = []
        for child_label, m in self.slots[label]:
            keys = groups.pop(child_label, [])
            if len(keys) > m:
                raise _Reject(f"more than {m} {child_label} inside {label}")
            if any(a > b for a, b in zip(keys, keys[1:])):
                self._sorted = False
            flat.append(len(keys))
            flat.extend(keys)
        if groups:
            raise _Reject(f"{next(iter(groups))} inside {label}")
        height = 1 + max((h for _, _, h in children), default=-1)
        return label, tuple(flat), height


def check_lines(checker: TreeChecker, text: str, expected: int, canonical: bool) -> list[str]:
    """Problems with an `enum` output: wrong count, duplicates, lines that
    do not parse or conform, or (for `--canonical`) non-canonical lines."""
    lines = text.splitlines()
    errors = []
    if len(lines) != expected:
        errors.append(f"{len(lines)} lines, expected {expected}")
    if len(set(lines)) != len(lines):
        errors.append(f"{len(lines) - len(set(lines))} duplicate lines")
    for line in lines:
        problem = checker.check(line, canonical)
        if problem is not None:
            errors.append(f"{line!r}: {problem}")
            break
    return errors


@dataclass
class GeneratedTree:
    """A random conforming tree as arrays; children always have larger
    indices than their parent, so reversed index order is bottom-up."""

    labels: list[str]
    kids: list[list[list[int]]]  # per node, per component slot, member ids

    def render(self, kids: list[list[list[int]]] | None = None) -> str:
        kids = self.kids if kids is None else kids
        text: list[str | None] = [None] * len(self.labels)
        for i in range(len(self.labels) - 1, -1, -1):
            members = [text[c] for slot in kids[i] for c in slot]
            text[i] = f"{self.labels[i]}({','.join(members)})" if members else self.labels[i]
            for slot in kids[i]:
                for c in slot:
                    text[c] = None
        return text[0]

    def shuffled(self, rng: random.Random) -> list[list[list[int]]]:
        out = []
        for slots in self.kids:
            copy = []
            for slot in slots:
                slot = list(slot)
                rng.shuffle(slot)
                copy.append(slot)
            out.append(copy)
        return out

    def canonical(self) -> list[list[list[int]]]:
        """Children of every T-list sorted by the tree order."""
        keys: list = [None] * len(self.labels)
        out: list = [None] * len(self.labels)
        for i in range(len(self.labels) - 1, -1, -1):
            flat: list = []
            slots = []
            for slot in self.kids[i]:
                ordered = sorted(slot, key=keys.__getitem__)
                slots.append(ordered)
                flat.append(len(ordered))
                flat.extend(keys[c] for c in ordered)
            keys[i] = tuple(flat)
            out[i] = slots
        return out

    def config_text(self, rng: random.Random) -> str:
        """Configuration with random object ids, ascending along each
        T-list so that reading it back reproduces `render()`, and with
        lines in random order."""
        n = len(self.labels)
        ids = rng.sample(range(10 * n), n)
        for slots in self.kids:
            for slot in slots:
                for c, obj in zip(slot, sorted(ids[c] for c in slot)):
                    ids[c] = obj
        objs = [f"obj {ids[i]} {self.labels[i]}" for i in range(n)]
        links = [
            f"link {ids[i]} {ids[c]}"
            for i in range(n)
            for slot in self.kids[i]
            for c in slot
        ]
        rng.shuffle(objs)
        rng.shuffle(links)
        return "\n".join(objs + links) + "\n"


def generate_tree(spec: Spec, size: int, rng: random.Random) -> GeneratedTree:
    """Grow a conforming tree of `size` nodes leaf by leaf, each leaf at a
    uniformly chosen open site."""
    slots = spec.slots()
    labels = [spec.root]
    kids: list[list[list[int]]] = [[[] for _ in slots[spec.root]]]
    sites = [[0, j, m] for j, (_, m) in enumerate(slots[spec.root])]
    while len(labels) < size:
        if not sites:
            raise ValueError(f"problem admits no tree of {size} nodes")
        pick = rng.randrange(len(sites))
        site = sites[pick]
        parent, slot = site[0], site[1]
        label = slots[labels[parent]][slot][0]
        child = len(labels)
        labels.append(label)
        kids.append([[] for _ in slots[label]])
        kids[parent][slot].append(child)
        site[2] -= 1
        if site[2] == 0:
            sites[pick] = sites[-1]
            sites.pop()
        sites.extend([child, j, m] for j, (_, m) in enumerate(slots[label]))
    return GeneratedTree(labels, kids)


def path_tree(depth: int) -> tuple[Spec, str, str]:
    """A path of `depth` nodes (A then B, B, ...): its problem, its
    expression and its configuration."""
    spec = Spec("A", ("A", "B"), (("A", "B", 1), ("B", "B", 1)))
    expr = "A(" + "B(" * (depth - 2) + "B" + ")" * (depth - 1)
    lines = ["obj 0 A"] + [f"obj {i} B" for i in range(1, depth)]
    lines += [f"link {i - 1} {i}" for i in range(1, depth)]
    return spec, expr, "\n".join(lines) + "\n"


def decimal_equals(digits: str, value: int) -> bool:
    """`digits` spells `value`, checked in chunks so that no conversion
    exceeds the interpreter's integer string limit."""
    if not digits.isdigit():
        return False
    total = 0
    for start in range(0, len(digits), 4000):
        chunk = digits[start : start + 4000]
        total = total * 10 ** len(chunk) + int(chunk)
    return total == value


def table_errors(text: str, pmax: int, kmax: int) -> list[str]:
    """Problems with `ttrees table --csv` output for the chain family."""
    lines = text.splitlines()
    if not lines or lines[0] != "p,k,N,M":
        return ["missing p,k,N,M header"]
    if len(lines) != 1 + pmax * kmax:
        return [f"{len(lines) - 1} rows, expected {pmax * kmax}"]
    errors = []
    rows = iter(lines[1:])
    for p in range(1, pmax + 1):
        for k in range(1, kmax + 1):
            fields = next(rows).split(",")
            spec = chain_spec(p, k)
            if (
                len(fields) != 4
                or fields[:2] != [str(p), str(k)]
                or not decimal_equals(fields[2], count_trees(spec, None, False))
                or not decimal_equals(fields[3], count_trees(spec, None, True))
            ):
                errors.append(f"wrong row for p={p} k={k}")
    return errors

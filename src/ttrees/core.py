"""Structural problems, T-trees, and object configurations.

A *structural problem* declares a root type, a totally ordered set of
component types, and binary composition relations with maximum
cardinalities.  Its solutions are trees of typed objects.  Because every
component object has exactly one composite (parent), a solution is fully
described up to isomorphism by its *T-tree*: the tree obtained by erasing
object identities and keeping only type labels, with each node's children
grouped per component type into *T-lists*.

This module defines those three shapes (`StructuralProblem`, `TTree`,
`ConfigTree`), the conversions between configurations and T-trees, and
plain-text formats for all of them.
"""

from __future__ import annotations

import re
from collections import Counter, defaultdict
from contextlib import suppress
from dataclasses import dataclass
from graphlib import CycleError, TopologicalSorter
from itertools import islice
from typing import Iterable, NamedTuple, Sequence

__all__ = [
    "ConfigError",
    "ConfigTree",
    "ParseError",
    "ProblemError",
    "StructuralProblem",
    "TTree",
    "TypeSymbol",
    "UnknownTypeError",
    "config_to_ttree",
    "make_config",
    "parse_config",
    "parse_problem",
    "parse_ttree",
    "parse_ttrees",
    "render_config",
    "render_problem",
    "render_ttree",
    "ttree_conforms",
    "ttree_to_config",
]


class ProblemError(ValueError):
    """Raised for an ill-formed structural problem definition."""


class UnknownTypeError(ProblemError):
    """Raised when a type symbol does not belong to the problem at hand."""


class ParseError(ValueError):
    """Raised for malformed T-tree expressions.

    `position` is the 0-based offset into the input text.
    """

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class ConfigError(ValueError):
    """Raised for an ill-formed object configuration."""


_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


class TypeSymbol(NamedTuple):
    """A component type; `rank` is its position in the total type order."""

    name: str
    rank: int

    def __str__(self) -> str:
        return self.name


class StructuralProblem:
    """A validated structural problem.

    Construction checks every well-formedness rule, so an instance that
    exists is usable: type names are unique identifiers, relations do not
    repeat an endpoint pair, the root type is never a component, and the
    type graph is acyclic unless `allow_cyclic` is set (then a root type
    that reaches a cycle needs an explicit height bound to enumerate).

    `types` order defines the total order on type symbols (rank =
    declaration index).
    """

    def __init__(
        self,
        root: str,
        types: Sequence[str],
        relations: Iterable[tuple[str, str, int]] = (),
        *,
        allow_cyclic: bool = False,
    ):
        for name, given in (("types", types), ("relations", relations)):  # a set has no order
            kind = type(given).__name__ if isinstance(given, (set, frozenset)) else "str"
            if kind != "str" or isinstance(given, str) or not isinstance(given, Iterable):
                raise ProblemError(f"{name} must be an iterable other than a {kind}, got {given!r}")
        by_name: dict[str, TypeSymbol] = {}
        for index, name in enumerate(types):
            if type(name) is not str or not _NAME.fullmatch(name):
                raise ProblemError(f"invalid type name {name!r}")
            if name in by_name:
                raise ProblemError(f"duplicate type {name!r}")
            by_name[name] = TypeSymbol(name, index)
        if type(root) is not str or root not in by_name:  # `in` fails on an unhashable root
            raise ProblemError(f"root type {root!r} is not declared")

        triples: list[tuple[TypeSymbol, TypeSymbol, int]] = []
        caps: list[dict[int, int]] = [{} for _ in by_name]  # by composite rank
        for relation in relations:
            try:
                composite, component, max_cardinality = relation
            except (TypeError, ValueError):
                raise ProblemError(f"relation {relation!r} needs three fields") from None
            for endpoint in (composite, component):
                if type(endpoint) is not str or endpoint not in by_name:
                    raise ProblemError(f"relation references unknown type {endpoint!r}")
            if component == root:
                raise ProblemError(f"root type {root!r} cannot be a component")
            above, below = by_name[composite], by_name[component]
            if below.rank in caps[above.rank]:
                raise ProblemError(
                    f"duplicate relation between {composite!r} and {component!r}"
                )
            if type(max_cardinality) is not int or max_cardinality < 1:
                raise ProblemError(
                    f"relation {composite!r}->{component!r} needs an integer max cardinality "
                    f">= 1, got {max_cardinality!r}"
                )
            caps[above.rank][below.rank] = max_cardinality
            triples.append((above, below, max_cardinality))

        self.root_type = by_name[root]
        self.types: tuple[TypeSymbol, ...] = tuple(by_name.values())
        self.relations = tuple(triples)  # (composite, component, max), in declaration order
        self._by_name = by_name
        # The table every reader uses: by composite rank, component rank -> cap, in rank order.
        self._caps = tuple(dict(sorted(below.items())) for below in caps)
        # By rank, each type's reach: the height of its tallest tree, if it reaches no cycle.
        reach, sorter = {}, TopologicalSorter(dict(enumerate(caps)))
        with suppress(CycleError):  # the sorter still yields the types that reach no cycle
            sorter.prepare()
        while ready := sorter.get_ready():
            reach.update((r, max([reach[c] + 1 for c in caps[r]], default=0)) for r in ready)
            sorter.done(*ready)
        self._reach, self.is_cyclic = reach, len(reach) < len(caps)
        if self.is_cyclic and not allow_cyclic:
            raise ProblemError(
                "composition type graph is cyclic; pass allow_cyclic=True and "
                "enumerate with an explicit height bound"
            )

    def type(self, name: str) -> TypeSymbol:
        try:
            return self._by_name[name]
        except KeyError:
            raise UnknownTypeError(f"unknown type {name!r}") from None

    def symbol_of(self, symbol: TypeSymbol) -> TypeSymbol:
        """Return `symbol` if it is this problem's symbol, else raise."""
        own = self.type(symbol.name)
        if own != symbol:
            raise UnknownTypeError(
                f"type symbol {symbol.name!r} was built against a different problem"
            )
        return own

    def __repr__(self) -> str:
        return (
            f"StructuralProblem(root={self.root_type.name!r}, "
            f"types={len(self.types)}, relations={len(self.relations)})"
        )


def parse_problem(text: str, *, allow_cyclic: bool = False) -> StructuralProblem:
    """Parse the line-based problem format.

    Directives (one per line, `#` starts a comment, numbers in ASCII digits):
      root <TypeName>
      type <TypeName>          # declaration order defines the type order
      rel <Composite> <Component> max <positive-int>
    """
    root: str | None = None
    types: list[str] = []
    relations: list[tuple[str, str, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if tokens[0] == "root" and len(tokens) == 2:
            if root is not None:
                raise ProblemError(f"line {lineno}: root declared twice")
            root = tokens[1]
        elif tokens[0] == "type" and len(tokens) == 2:
            types.append(tokens[1])
        elif tokens[0] == "rel" and len(tokens) == 5 and tokens[3] == "max":
            try:
                (max_cardinality,) = _naturals(tokens[4:])
            except ValueError:
                raise ProblemError(f"line {lineno}: bad cardinality {tokens[4]!r}") from None
            relations.append((tokens[1], tokens[2], max_cardinality))
        else:
            raise ProblemError(f"line {lineno}: unrecognized directive {line!r}")
    if root is None:
        raise ProblemError("missing root declaration")
    return StructuralProblem(root, types, relations, allow_cyclic=allow_cyclic)


def render_problem(problem: StructuralProblem) -> str:
    """Inverse of `parse_problem` (up to comments and blank lines)."""
    lines = [f"root {problem.root_type.name}"]
    lines += [f"type {t.name}" for t in problem.types]
    lines += [f"rel {a.name} {b.name} max {cap}" for a, b, cap in problem.relations]
    return "\n".join(lines) + "\n"


TList = tuple["TTree", ...]
Groups = tuple[tuple[TypeSymbol, TList], ...]


@dataclass(frozen=True, eq=False, slots=True, init=False)
class TTree:
    """A type-labeled rooted tree with children grouped into T-lists.

    `TTree(label, children)` stably groups `children` by type: `groups`
    holds one `(component type, T-list)` pair per component type that has
    children, in increasing type rank, and children of one type keep their
    relative order.  The constructor raises ValueError for a label that is
    not a `TypeSymbol`, for a child that is not a `TTree`, and for child
    types with clashing ranks, which come only from mixing unrelated type
    universes.  Instances are immutable and compare structurally.  The
    parsers, `config_to_ttree` and `canonicalize` share equal subtrees, and
    the walkers visit each object once; `is` between subtrees is no
    promise.  No hash is stored; `hash()` renders the tree, so it costs
    O(n) per call.
    """

    label: TypeSymbol
    groups: Groups

    def __init__(self, label: TypeSymbol, children: Iterable[TTree] = ()) -> None:
        if not (isinstance(label, TypeSymbol) and isinstance(children, Iterable)):
            raise ValueError("a TTree needs a TypeSymbol label and an iterable of children")
        children = tuple(children)
        for child in children:
            if not isinstance(child, TTree):
                raise ValueError(f"a T-list member must be a TTree, got {child!r}")
        _set_label(self, label)
        _set_groups(self, _group(children) if children else ())

    def __hash__(self) -> int:
        return hash(render_ttree(self))  # equal trees render alike

    def __reduce__(self) -> tuple:
        return config_to_ttree, (ttree_to_config(self),)  # flat, so any depth pickles

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TTree):
            return NotImplemented
        pairs, partner = [(self, other)], {}  # a's last partner, by id, so shared pairs meet once
        while pairs:
            a, b = pairs.pop()
            if a is not b and partner.get(id(a)) is not b:
                partner[id(a)] = b
                if a.label != b.label or len(a.groups) != len(b.groups):
                    return False
                for (_, la), (_, lb) in zip(a.groups, b.groups):  # members carry the types
                    if len(la) != len(lb):
                        return False
                    pairs.extend(zip(la, lb))
        return True

    @property
    def is_leaf(self) -> bool:
        return not self.groups

    def tlist(self, symbol: TypeSymbol) -> TList:
        for t, members in self.groups:
            if t == symbol:
                return members
        return ()

    @property
    def node_count(self) -> int:
        return sum(map(len, _levels([self], distinct=False)))

    @property
    def height(self) -> int:
        return len(_levels([self])) - 1

    def __str__(self) -> str:
        return render_ttree(self)

    def __repr__(self) -> str:
        return f"<TTree {render_ttree(self)}>"


_new_object = object.__new__
_set_label = TTree.label.__set__  # the slot descriptors skip the frozen __setattr__
_set_groups = TTree.groups.__set__


def _trusted_ttree(label: TypeSymbol, groups: Groups = ()) -> TTree:
    """A `TTree` whose groups are known to be valid: the public
    constructor's checks and grouping are skipped."""
    tree = _new_object(TTree)
    _set_label(tree, label)
    _set_groups(tree, groups)
    return tree


def _shared_ttree(table: dict, label: TypeSymbol, children: list[TTree]) -> TTree:
    """One label's node with these children, from `table` by their ids or made."""
    key = id(children[0]) if len(children) == 1 else (*map(id, children),)
    return table.get(key) or table.setdefault(key, _trusted_ttree(label, _group(children)))


def _levels(roots: list[TTree], distinct: bool = True) -> list[list[TTree]]:
    """The nodes of the forest `roots` depth by depth: the members of one
    depth's T-lists make up the next, each object once if `distinct`."""
    levels = [roots]
    while below := [m for node in levels[-1] for _, ms in node.groups for m in ms]:
        levels.append(list({id(m): m for m in below}.values()) if distinct else below)
    return levels


def _group(children: Sequence[TTree]) -> Groups:
    """Stably group a non-empty child sequence into T-lists in rank order.

    Raises ValueError when two child types carry clashing ranks.
    """
    first = children[0].label
    for child in children:
        if child.label is not first:
            break
    else:
        return ((first, tuple(children)),)
    buckets: dict[TypeSymbol, list[TTree]] = {}
    for child in children:
        buckets.setdefault(child.label, []).append(child)
    symbols = sorted(buckets, key=lambda t: (t.rank, t.name))
    for left, right in zip(symbols, symbols[1:]):
        if left.rank == right.rank:
            raise _rank_clash(left, right)
    return tuple((t, tuple(buckets[t])) for t in symbols)


def _rank_clash(left: TypeSymbol, right: TypeSymbol) -> ValueError:
    """The error for two distinct types that share a rank."""
    return ValueError(
        f"types {left.name!r} and {right.name!r} share rank {left.rank}; "
        "trees come from incompatible type universes"
    )


def render_ttree(tree: TTree) -> str:
    """Render as `TYPE` or `TYPE(child,...)`, children in type order."""
    if not tree.groups:
        return tree.label.name
    out: list[str] = []
    spans: dict[int, slice] = {}  # the pieces of `out` an inner node's text fills
    stack: list = [tree]  # inner nodes, text and node ends still to emit, last first
    while stack:
        item = stack.pop()
        if item.__class__ is str:
            out.append(item)
            continue
        if item.__class__ is tuple:  # a node's end: its ")" closes its span
            out.append(")")
            spans[item[0]] = slice(item[1], len(out))
            continue
        if id(item) in spans:  # a shared subtree: copy its pieces, not its text
            out += out[spans[id(item)]]
            continue
        children = g[0][1] if len(g := item.groups) == 1 else [m for _, ms in g for m in ms]
        stack.append((id(item), len(out)))
        for child in reversed(children[1:]):
            stack.append(child if child.groups else child.label.name)
            stack.append(",")
        if children[0].groups:
            out.append(item.label.name + "(")
            stack.append(children[0])
        else:
            out.append(item.label.name + "(" + children[0].label.name)
    return "".join(out)


# Stands in for names the problem does not declare until parsing ends.
_UNKNOWN = TypeSymbol("?", -1)


def _name_order(names: Iterable) -> dict[str, TypeSymbol]:
    """The types of input with no problem, in name order; refuses a bad name."""
    distinct = dict.fromkeys(names)  # in input order
    bad = [name for name in distinct if type(name) is not str or not _NAME.fullmatch(name)]
    if bad:
        raise ConfigError(f"invalid type name {bad[0]!r}")
    return {name: TypeSymbol(name, rank) for rank, name in enumerate(sorted(distinct))}


def parse_ttrees(texts: Sequence[str], problem: StructuralProblem | None = None) -> list[TTree]:
    """Parse several T-tree expressions against one shared type universe.

    With a `problem`, labels resolve to the problem's symbols and unknown
    names raise `UnknownTypeError`.  Without one, the type order defaults
    to name order over all names appearing in `texts`, so the resulting
    trees are mutually comparable.
    """
    names = (name for text in texts for name in _NAME.findall(text))
    symbols = problem.types if problem is not None else _name_order(names).values()
    # Trees are immutable, so one leaf per type and one node per distinct subtree serve all texts.
    leaves = {symbol.name: _trusted_ttree(symbol) for symbol in symbols}
    shared: dict[TypeSymbol, dict] = defaultdict(dict)  # per label, for `_shared_ttree`
    trees = [_parse(text, leaves, problem, shared) for text in texts]
    # Syntax errors in any text take precedence over unknown names.
    unknown = [name for name, leaf in leaves.items() if leaf.label is _UNKNOWN]
    if unknown:
        raise UnknownTypeError(f"unknown type {unknown[0]!r}")
    return trees


def _parse(text: str, leaves: dict, problem: StructuralProblem | None, shared: dict) -> TTree:
    # One pass with an explicit stack; each distinct node is built once, at its ')'.
    tokens = text.replace("(", " ( ").replace(")", " ) ").replace(",", " , ").split() + [""]
    stack: list[tuple] = []  # (label, children) of the enclosing open nodes
    children = None  # members read so far of the innermost open node
    i = 0  # the next token, which must be a name
    while True:
        leaf = leaves.get(tokens[i])
        if leaf is None:
            if problem is None or not _NAME.fullmatch(tokens[i]):
                raise _error("expected a type name", text, tokens[: i + 1])
            leaf = leaves[tokens[i]] = _trusted_ttree(_UNKNOWN)
        i += 1
        if tokens[i] == "(":
            stack.append((leaf.label, children))
            children = []
            i += 1
            continue
        node = leaf
        while children is not None:
            children.append(node)
            if tokens[i] == ",":
                break
            if tokens[i] != ")":
                fault = "expected ',' or ')'" if tokens[i] else "unclosed '('"
                raise _error(fault, text, tokens[: i + 1])
            label, parent = stack.pop()
            node, children = _shared_ttree(shared[label], label, children), parent
            i += 1
        else:
            if tokens[i]:
                raise _error("unexpected trailing input", text, tokens[: i + 1])
            return node
        i += 1


def _error(message: str, text: str, tokens: list[str]) -> ParseError:
    """A ParseError at the last of `tokens`, those `_parse` cut from `text` up to a fault."""
    end = 0  # where the previous token ends; only blanks lie between tokens
    for token in tokens[:-1]:
        end = text.index(token, end) + len(token)
    return ParseError(message, text.index(tokens[-1], end) if tokens[-1] else len(text))


def parse_ttree(text: str, problem: StructuralProblem | None = None) -> TTree:
    """Parse one T-tree expression; see `parse_ttrees`."""
    return parse_ttrees([text], problem)[0]


def ttree_conforms(tree: TTree, problem: StructuralProblem) -> bool:
    """True iff `tree` is a solution shape of `problem`.

    Checks the root label, that every edge realizes a declared relation,
    and that no T-list exceeds its maximum cardinality.  Labels that do
    not belong to the problem raise `UnknownTypeError` rather than
    returning False.
    """
    if problem.symbol_of(tree.label) is not problem.root_type:
        return False
    stack, seen, caps, own = [tree], set(), problem._caps, set(problem.types)
    while stack:
        node = stack.pop()
        if id(node) not in seen:  # a subtree met again was checked where first met
            seen.add(id(node))
            for symbol, members in node.groups:
                if symbol not in own:  # the problem's own symbols pass as they are
                    problem.symbol_of(symbol)
                if len(members) > caps[node.label.rank].get(symbol.rank, 0):
                    return False
                stack.extend(members)
    return True


@dataclass(frozen=True)
class ConfigTree:
    """A configuration: a rooted tree of typed objects.

    Objects are stored by *position*, their index in `ids`, the object ids
    in ascending order.  The object at position p has type `labels[p]` and
    the child positions `children[p]`, ordered by (component type rank,
    object id); the root is at `root_position`.  Equality and hashing are
    structural.  `root`, `types` and `links` (one pair per object, by
    ascending id) speak in object ids.  Use `make_config` / `parse_config`
    to build validated instances, and `render_config` to write one out.
    """

    ids: tuple[int, ...]
    labels: tuple[TypeSymbol, ...]
    children: tuple[tuple[int, ...], ...]
    root_position: int

    @property
    def root(self) -> int:
        return self.ids[self.root_position]

    @property
    def types(self) -> tuple[tuple[int, TypeSymbol], ...]:
        return tuple(zip(self.ids, self.labels))

    @property
    def links(self) -> tuple[tuple[int, tuple[int, ...]], ...]:
        ids = self.ids
        return tuple([(obj, tuple([ids[c] for c in cs])) for obj, cs in zip(ids, self.children)])

    def __repr__(self) -> str:
        return f"<ConfigTree root={self.root} objects={len(self.ids)}>"


def make_config(
    objects: Iterable[tuple[int, str]],
    links: Iterable[tuple[int, int]],
    problem: StructuralProblem | None = None,
) -> ConfigTree:
    """Validate and build a configuration from (id, type name) pairs and
    (parent, child) links.

    Requires a unique root (the one object that is nobody's component),
    a unique parent per other object and full reachability from the root.
    With a `problem`, types resolve against it and every edge must match a
    declared relation within its cardinality bound; without one, the type
    order defaults to name order and relation checks are skipped.
    """
    objects, links = list(objects), list(links)
    try:
        ids, names = [obj for obj, _ in objects], [name for _, name in objects]
        sources, targets = [s for s, _ in links], [t for _, t in links]
    except (TypeError, ValueError):  # only now walk the pairs, to name the first bad one
        bad = next(p for p in objects + links if not isinstance(p, Iterable) or len([*p]) != 2)
        what = "object" if bad in objects else "link"
        raise ConfigError(f"{what} {bad!r} needs two fields") from None
    if not {int}.issuperset(map(type, ids)):  # a bool is no natural either
        bad = next(obj for obj in ids if type(obj) is not int or obj < 0)
        raise ConfigError(f"object ids must be naturals, got {bad!r}")
    return _build_config(ids, names, sources, targets, problem)


def _build_config(ids, names, sources, targets, problem: StructuralProblem | None) -> ConfigTree:
    """`make_config` on parallel columns.  Each check runs on whole columns;
    only one that fails walks them in order, to name the first fault."""
    n = len(ids)
    if not n:
        raise ConfigError("configuration has no objects")
    symbols = problem._by_name if problem is not None else _name_order(names)
    order = sorted(range(n), key=ids.__getitem__)  # input indices by ascending id
    ordered = list(map(ids.__getitem__, order))
    labels = list(map(symbols.get, map(names.__getitem__, order)))  # None if unknown
    del order  # its n ints go before the dict's n are made
    position = dict(zip(ordered, range(n)))  # built in id order, so lookups stay local
    if len(position) < n or ordered[0] < 0:
        seen = set()
        for obj in ids:
            if obj < 0:
                raise ConfigError(f"object ids must be naturals, got {obj}")
            if obj in seen:
                raise ConfigError(f"object {obj} declared twice")
            seen.add(obj)
    if not symbols.keys() >= set(names):
        unknown = next(name for name in names if name not in symbols)
        raise ConfigError(f"unknown type {unknown!r}")

    heads, tails = list(map(position.get, sources)), list(map(position.get, targets))
    valid = min([ends.index(None) for ends in (heads, tails) if None in ends], default=len(heads))
    parent = [-1] * n
    kids: list = [None] * n  # child positions in link order; None until one
    for p, c in islice(zip(heads, tails), valid):  # links before the first undeclared end
        if parent[c] >= 0:
            raise ConfigError(f"object {ordered[c]} has two composites")
        parent[c] = p
        if kids[p] is None:
            kids[p] = [c]
        else:
            kids[p].append(c)
    if valid < len(heads):
        undeclared = sources[valid] if heads[valid] is None else targets[valid]
        raise ConfigError(f"link references undeclared object {undeclared}")
    if parent.count(-1) != 1:
        raise ConfigError(f"expected exactly one root object, found {parent.count(-1)}")
    root = parent.index(-1)
    # Every object but the root has one parent, so this visits each
    # object reachable from the root exactly once.
    reached = [root]
    for p in reached:
        reached.extend(kids[p] or ())
    if len(reached) != n:
        missing = sorted(set(range(n)).difference(reached))
        raise ConfigError(f"objects not reachable from the root: {[ordered[p] for p in missing]}")

    ranks = [label.rank for label in labels]
    if problem is not None:
        if labels[root] != problem.root_type:
            raise ConfigError(
                f"root object must have type {problem.root_type.name!r}, "
                f"got {labels[root].name!r}"
            )
        caps, counts = problem._caps, Counter(zip(heads, map(ranks.__getitem__, tails)))
        if any(count > caps[ranks[p]].get(r, 0) for (p, r), count in counts.items()):
            for obj in ids:  # objects in input order, children in link order
                p, tally = position[obj], Counter()
                for c in kids[p] or ():
                    tally[ranks[c]] += 1
                    allowed = caps[ranks[p]].get(ranks[c], 0)
                    if tally[ranks[c]] > allowed:
                        raise ConfigError(
                            f"object {obj} exceeds max cardinality {allowed} for {labels[c].name}"
                            if allowed
                            else f"no relation allows a {labels[c].name} inside "
                            f"a {labels[p].name} (objects {obj} -> {ordered[c]})"
                        )

    for below in kids:
        if below:
            below.sort()  # positions ascend with ids
            below.sort(key=ranks.__getitem__)  # stable: by (rank, id)
    children = tuple([tuple(below) if below else () for below in kids])
    return ConfigTree(tuple(ordered), tuple(labels), children, root)


def _naturals(tokens: list[str]) -> list[int]:
    """The numbers `tokens` spell; ValueError unless each is ASCII digits."""
    digits = "".join(tokens)
    if tokens and not (digits.isascii() and digits.isdigit()):
        raise ValueError("a number that is not ASCII digits")
    return list(map(int, tokens))


def parse_config(text: str, problem: StructuralProblem | None = None) -> ConfigTree:
    """Parse the line-based configuration format.

    Lines, in any order (`#` starts a comment; ids are ASCII digits):
      obj <id> <TypeName>
      link <parent-id> <child-id>
    """
    ids, names, sources, targets = [], [], [], []
    distinct: dict[str, str] = {}  # one string object per type name
    try:
        for raw in text.splitlines():
            if "#" in raw:
                raw = raw[: raw.index("#")]
            tokens = raw.split()
            if len(tokens) == 3 and tokens[0] == "obj":
                ids.append(tokens[1])
                names.append(distinct.setdefault(tokens[2], tokens[2]))
            elif len(tokens) == 3 and tokens[0] == "link":
                sources.append(tokens[1])
                targets.append(tokens[2])
            elif tokens:
                raise ValueError("unrecognized directive")
        ids, sources, targets = map(_naturals, (ids, sources, targets))
    except ValueError:
        for lineno, raw in enumerate(text.splitlines(), start=1):  # name the first bad line
            line = raw.split("#", 1)[0].strip()
            tokens = line.split()
            if tokens and (len(tokens) != 3 or tokens[0] not in ("obj", "link")):
                raise ConfigError(f"line {lineno}: unrecognized directive {line!r}") from None
            try:
                _naturals(tokens[1 : 3 if tokens[:1] == ["link"] else 2])
            except ValueError:
                raise ConfigError(f"line {lineno}: bad object id in {line!r}") from None
        raise
    return _build_config(ids, names, sources, targets, problem)


def render_config(config: ConfigTree) -> str:
    """Inverse of `parse_config`: one `obj` line per object by ascending
    id, then one `link` line per child, in child order."""
    ids = config.ids
    lines = [f"obj {obj} {label.name}" for obj, label in zip(ids, config.labels, strict=True)]
    links = zip(ids, config.children, strict=True)
    lines += [f"link {obj} {ids[c]}" for obj, below in links for c in below]
    return "\n".join(lines) + "\n"


def config_to_ttree(config: ConfigTree) -> TTree:
    """Erase object identities, keeping types and child order.  Raises
    ConfigError unless the root and the child lists name every position
    exactly once, with each position reachable from the root."""
    labels, children = config.labels, config.children
    n = len(labels)
    order = [config.root_position]  # breadth-first, so each node's children are contiguous
    reached = bytearray(n)
    try:  # columns of unequal length walk no further than the root
        for p in islice(order, n if len(children) == n else 0):
            if 0 <= p < n:
                reached[p] = 1
                order.extend(children[p])
    except TypeError:  # a position that is no int
        order = []
    if len(order) != n or 0 in reached:  # else n entries name n positions, each once
        raise ConfigError("links do not form a tree; build configurations with make_config")
    trees: list = [None] * n
    shared: dict[TypeSymbol, dict] = defaultdict(dict)  # per label, for `_shared_ttree`
    leaves: dict[TypeSymbol, TTree] = {}
    end, leaf = n, None  # the children of node i end where those of i + 1 start
    for i in range(n - 1, -1, -1):
        p = order[i]
        label, size = labels[p], len(children[p])
        if size:
            trees[i] = _shared_ttree(shared[label], label, trees[end - size : end])
            end -= size
        else:
            if leaf is None or leaf.label is not label:  # runs of equal leaves skip the dict
                leaf = leaves.get(label) or leaves.setdefault(label, _trusted_ttree(label))
            trees[i] = leaf
    return trees[0]


def ttree_to_config(tree: TTree) -> ConfigTree:
    """Materialize a T-tree as a configuration with breadth-first object
    ids: the root is 0 and children are numbered in type order then list
    order, so the result is the same for any two equal T-trees."""
    order = [tree]  # breadth-first; a node's object id is its position
    children = []
    for node in order:
        first = len(order)
        for _, members in node.groups:
            order.extend(members)
        children.append(tuple(range(first, len(order))))
    labels = tuple([node.label for node in order])
    return ConfigTree(tuple(range(len(order))), labels, tuple(children), 0)

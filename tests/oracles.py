"""Independent reference implementations used to cross-check the package.

Nothing here reuses the code paths under test: enumeration is by direct
product construction instead of graph search, ordering is by a nested
tuple key instead of the recursive comparison, isomorphism classes are
materialized by brute-force permutation, and isomorphism is decided by
exhaustive matching instead of canonical forms.  Configurations are
validated on dicts keyed by object id instead of dense positions.  Tree
text is read by recursive descent over characters instead of a split
token list and an explicit stack, and trees are rebuilt without sharing
by `TTree(label, children)`.
"""

from __future__ import annotations

import random
import re
from itertools import permutations, product, zip_longest

from ttrees import (
    ConfigError,
    ParseError,
    StructuralProblem,
    TTree,
    TypeSymbol,
    UnknownTypeError,
)


def all_conforming_trees(
    problem: StructuralProblem, max_height: int | None = None
) -> list[TTree]:
    """Every conforming T-tree, built by per-type product construction."""
    cache: dict[tuple[str, int | None], list[TTree]] = {}
    components, named, _ = relation_queries(problem)

    def trees_of(symbol: TypeSymbol, budget: int | None) -> list[TTree]:
        key = (symbol.name, budget)
        if key in cache:
            return cache[key]
        component_types = components.get(symbol.name, ())
        if budget == 0 or not component_types:
            result = [TTree(symbol)]
        else:
            smaller = None if budget is None else budget - 1
            per_type: list[list[tuple[TTree, ...]]] = []
            for child_type in component_types:
                _, _, cap = named[symbol.name, child_type.name]
                subtrees = trees_of(child_type, smaller)
                sequences: list[tuple[TTree, ...]] = []
                for length in range(cap + 1):
                    sequences.extend(product(subtrees, repeat=length))
                per_type.append(sequences)
            result = [
                TTree(symbol, [x for seq in combo for x in seq])
                for combo in product(*per_type)
            ]
        cache[key] = result
        return result

    return trees_of(problem.root_type, max_height)


def relation_queries(problem: StructuralProblem) -> tuple[dict, dict, bool]:
    """The problem's relations as the oracles read them, from
    `problem.relations` alone: the components of each composite name,
    sorted by rank; each relation triple by its (composite, component)
    names; and whether the type graph has a cycle, found as a back edge
    of a depth-first search."""
    components: dict[str, list[TypeSymbol]] = {}
    named = {}
    for relation in problem.relations:
        composite, component, _ = relation
        components.setdefault(composite.name, []).append(component)
        named[composite.name, component.name] = relation
    for symbols in components.values():
        symbols.sort(key=lambda symbol: symbol.rank)
    state: dict[str, str] = {}  # "open" while on the search path, then "done"
    cyclic = False
    for start in components:
        if start in state:
            continue
        state[start] = "open"
        path = [(start, iter(components[start]))]
        while path:
            name, rest = path[-1]
            child = next(rest, None)
            if child is None:
                state[name] = "done"
                path.pop()
            elif state.get(child.name) == "open":
                cyclic = True
            elif child.name not in state:
                state[child.name] = "open"
                path.append((child.name, iter(components.get(child.name, ()))))
    return components, named, cyclic


def random_problem(rng: random.Random, max_types: int = 6) -> StructuralProblem:
    """A random problem of 1..`max_types` types whose ranks are not their
    name order: random relations with caps 1..3, self-loops among them,
    and sometimes a ring through several types.  May be cyclic."""
    names = rng.sample([f"T{i}" for i in range(max_types)], rng.randint(1, max_types))
    parts = names[1:]  # the first name is the root, never a component
    pairs = {(a, b) for a in names for b in parts if rng.random() < 0.3}
    if len(parts) >= 2 and rng.random() < 0.3:
        ring = rng.sample(parts, rng.randint(2, len(parts)))
        pairs.update(zip(ring, ring[1:] + ring[:1]))
    relations = [(a, b, rng.randint(1, 3)) for a, b in sorted(pairs)]
    rng.shuffle(relations)
    return StructuralProblem(names[0], names, relations, allow_cyclic=True)


def isomorphic_oracle(a: TTree, b: TTree) -> bool:
    """Isomorphism by exhaustive matching, independent of the tree order.

    Searches for a bijection between the T-lists of the two trees whose
    pairs are recursively isomorphic.  Exponential in the worst case;
    meant for cross-checking `isomorphic` on small trees.
    """
    if a.label != b.label:
        return False
    for pair_a, pair_b in zip_longest(a.groups, b.groups, fillvalue=None):
        if pair_a is None or pair_b is None:
            return False
        (ta, la), (tb, lb) = pair_a, pair_b
        if ta != tb or len(la) != len(lb):
            return False
        if not _match_lists(la, lb):
            return False
    return True


def _match_lists(la: tuple[TTree, ...], lb: tuple[TTree, ...]) -> bool:
    used = [False] * len(lb)

    def place(i: int) -> bool:
        if i == len(la):
            return True
        for j, candidate in enumerate(lb):
            if not used[j] and isomorphic_oracle(la[i], candidate):
                used[j] = True
                if place(i + 1):
                    return True
                used[j] = False
        return False

    return place(0)


def order_key(tree: TTree, problem: StructuralProblem) -> tuple:
    """Sort key whose tuple comparison realizes the tree order."""
    components = relation_queries(problem)[0]

    def key(tree: TTree) -> tuple:
        return tuple(
            (len(tree.tlist(t)), tuple(map(key, tree.tlist(t))))
            for t in components.get(tree.label.name, ())
        )

    return key(tree)


def sorted_by_key(tree: TTree, problem: StructuralProblem) -> TTree:
    """Rebuild with every T-list sorted by `order_key`, bottom-up."""
    members = [
        member
        for _, group in tree.groups
        for member in sorted(
            (sorted_by_key(m, problem) for m in group),
            key=lambda t: order_key(t, problem),
        )
    ]
    return TTree(tree.label, members)


def shuffled(tree: TTree, rng: random.Random) -> TTree:
    """A random member of the tree's isomorphism class: every T-list
    reordered at random, recursively."""
    members = []
    for _, group in tree.groups:
        group = [shuffled(m, rng) for m in group]
        rng.shuffle(group)
        members += group
    return TTree(tree.label, members)


def permutation_variants(tree: TTree) -> set[TTree]:
    """The full isomorphism class: every way of reordering every T-list,
    recursively.  Exponential; only for small trees."""
    per_group: list[set[tuple[TTree, ...]]] = []
    for _, members in tree.groups:
        member_variants = [permutation_variants(member) for member in members]
        arrangements: set[tuple[TTree, ...]] = set()
        for combo in product(*member_variants):
            arrangements.update(permutations(combo))
        per_group.append(arrangements)
    return {
        TTree(tree.label, [x for seq in choice for x in seq])
        for choice in product(*per_group)
    }


def min_variant(tree: TTree, problem: StructuralProblem) -> TTree:
    """The order-minimal member of the tree's isomorphism class."""
    return min(permutation_variants(tree), key=lambda t: order_key(t, problem))


def partition_classes(trees, iso) -> list[list[TTree]]:
    """Group `trees` into equivalence classes of the binary predicate."""
    classes: list[list[TTree]] = []
    for tree in trees:
        for group in classes:
            if iso(group[0], tree):
                group.append(tree)
                break
        else:
            classes.append([tree])
    return classes


def random_tree(problem: StructuralProblem, size: int, rng: random.Random) -> TTree:
    """Random conforming tree of exactly `size` nodes (or as many as the
    cardinality bounds allow), grown leaf by leaf at uniformly chosen
    open sites."""
    nodes: list[dict] = [{"sym": problem.root_type, "kids": {}}]
    sites: list[list] = []
    components, named, _ = relation_queries(problem)

    def open_sites(index: int) -> None:
        symbol = nodes[index]["sym"]
        for child_type in components.get(symbol.name, ()):
            _, _, cap = named[symbol.name, child_type.name]
            sites.append([index, child_type, cap])

    open_sites(0)
    count = 1
    while count < size and sites:
        pick = rng.randrange(len(sites))
        parent, child_type, _ = sites[pick]
        child = len(nodes)
        nodes.append({"sym": child_type, "kids": {}})
        nodes[parent]["kids"].setdefault(child_type.name, []).append(child)
        count += 1
        sites[pick][2] -= 1
        if sites[pick][2] == 0:
            sites[pick] = sites[-1]
            sites.pop()
        open_sites(child)

    def freeze(index: int) -> TTree:
        node = nodes[index]
        children = [freeze(c) for kids in node["kids"].values() for c in kids]
        return TTree(node["sym"], children)

    return freeze(0)


def make_config_oracle(objects, links, problem: StructuralProblem | None = None):
    """`(root, types, links)` of the configuration, as `ConfigTree.root`,
    `.types` and `.links` give them, or the `ConfigError` that
    `make_config` must raise: the same checks in the same order, on
    dicts keyed by object id."""
    for what, pairs in (("object", objects), ("link", links)):
        for pair in pairs:
            if not isinstance(pair, (tuple, list)) or len(pair) != 2:
                raise ConfigError(f"{what} {pair!r} needs two fields")
    typed: dict[int, str] = {}
    for obj, name in objects:
        if obj < 0:
            raise ConfigError(f"object ids must be naturals, got {obj}")
        if obj in typed:
            raise ConfigError(f"object {obj} declared twice")
        typed[obj] = name
    if not typed:
        raise ConfigError("configuration has no objects")

    symbol_of: dict[int, TypeSymbol] = {}
    if problem is None:
        names = sorted(set(typed.values()))
        symbols = {name: TypeSymbol(name, rank) for rank, name in enumerate(names)}
    for obj, name in typed.items():
        try:
            symbol_of[obj] = problem.type(name) if problem else symbols[name]
        except (KeyError, UnknownTypeError):
            raise ConfigError(f"unknown type {name!r}") from None

    parent: dict[int, int] = {}
    children: dict[int, list[int]] = {obj: [] for obj in typed}
    for source, target in links:
        if source not in typed or target not in typed:
            undeclared = target if source in typed else source
            raise ConfigError(f"link references undeclared object {undeclared}")
        if target in parent:
            raise ConfigError(f"object {target} has two composites")
        parent[target] = source
        children[source].append(target)

    roots = [obj for obj in typed if obj not in parent]
    if len(roots) != 1:
        raise ConfigError(f"expected exactly one root object, found {len(roots)}")
    root = roots[0]
    reached = [root]
    for obj in reached:
        reached.extend(children[obj])
    if len(reached) != len(typed):
        missing = sorted(set(typed) - set(reached))
        raise ConfigError(f"objects not reachable from the root: {missing}")

    if problem is not None:
        named = relation_queries(problem)[1]
        if symbol_of[root] != problem.root_type:
            raise ConfigError(
                f"root object must have type {problem.root_type.name!r}, "
                f"got {symbol_of[root].name!r}"
            )
        for obj, kids in children.items():
            per_type: dict[str, int] = {}
            for child in kids:
                name = typed[child]
                relation = named.get((typed[obj], name))
                if relation is None:
                    raise ConfigError(
                        f"no relation allows a {name} inside "
                        f"a {typed[obj]} (objects {obj} -> {child})"
                    )
                per_type[name] = count = per_type.get(name, 0) + 1
                if count > relation[2]:
                    raise ConfigError(
                        f"object {obj} exceeds max cardinality {relation[2]} for {name}"
                    )

    ids = sorted(typed)
    for kids in children.values():
        kids.sort(key=lambda child: (symbol_of[child].rank, child))
    return (
        root,
        tuple((obj, symbol_of[obj]) for obj in ids),
        tuple((obj, tuple(children[obj])) for obj in ids),
    )


def config_tree_oracle(root: int, types, links) -> TTree:
    """The T-tree of a configuration given as `make_config_oracle` returns
    it, built by `TTree(label, children)` from each object's children."""
    type_of, children_of = dict(types), dict(links)

    def build(obj: int) -> TTree:
        return TTree(type_of[obj], [build(child) for child in children_of[obj]])

    return build(root)


def parse_texts_oracle(texts, problem: StructuralProblem | None = None) -> list[TTree]:
    """`parse_ttrees` by recursive descent over characters: the same trees,
    or the same error at the same position.  A token is "(", ")", ",", or
    a run of other characters that are not blank; the end of a text reads
    as an empty token.  Unknown names are reported after every text
    parsed, the first one met first."""
    found, names = [], []
    for text in texts:
        def token(i: int) -> tuple[int, int]:  # the token at or after i, as (start, end)
            while i < len(text) and text[i].isspace():
                i += 1
            if i < len(text) and text[i] in "(),":
                return i, i + 1
            end = i
            while end < len(text) and not text[end].isspace() and text[end] not in "(),":
                end += 1
            return i, end

        def node(i: int) -> tuple[tuple, int]:  # (name, children), and where the node ends
            start, i = token(i)
            if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", text[start:i]):
                raise ParseError("expected a type name", start)
            names.append(text[start:i])
            start, end = token(i)
            if text[start:end] != "(":
                return (names[-1], []), i
            name, children, i = names[-1], [], end
            while True:
                child, i = node(i)
                children.append(child)
                start, i = token(i)
                if text[start:i] == ")":
                    return (name, children), i
                if text[start:i] != ",":
                    raise ParseError("expected ',' or ')'" if i > start else "unclosed '('", start)

        tree, i = node(0)
        if token(i)[0] < len(text):
            raise ParseError("unexpected trailing input", token(i)[0])
        found.append(tree)
    if problem is None:
        types = {name: TypeSymbol(name, rank) for rank, name in enumerate(sorted(set(names)))}
    else:
        types = {t.name: t for t in problem.types}
        for name in names:
            if name not in types:
                raise UnknownTypeError(f"unknown type {name!r}")

    def build(parsed: tuple) -> TTree:
        name, children = parsed
        return TTree(types[name], map(build, children))

    return list(map(build, found))


def unshared(tree: TTree) -> TTree:
    """An equal tree with no node object used twice, built by `TTree()`."""
    return TTree(tree.label, [unshared(m) for _, members in tree.groups for m in members])

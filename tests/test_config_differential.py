"""`make_config` and `config_to_ttree` against the dict-based oracle, and
`parse_config` against `make_config`, and `render_config` as the inverse
of `parse_config`, on seeded configurations: scattered and shuffled ids,
with and without a problem, valid and faulty."""

from __future__ import annotations

import random

from ttrees import (
    ConfigError,
    StructuralProblem,
    TTree,
    chain_problem,
    config_to_ttree,
    make_config,
    parse_config,
    render_config,
)
from conftest import PC_CONFIG
from oracles import config_tree_oracle, make_config_oracle, random_tree

CASES_PER_PROBLEM = 1000


def _materialize(tree: TTree, rng: random.Random) -> tuple[list, list]:
    """Objects and links of `tree` under scattered ids."""
    nodes, edges = [tree], []
    for index, node in enumerate(nodes):
        for _, members in node.groups:
            for member in members:
                edges.append((index, len(nodes)))
                nodes.append(member)
    ids = rng.sample(range(3 * len(nodes) + 5), len(nodes))
    objects = [(ids[i], node.label.name) for i, node in enumerate(nodes)]
    return objects, [(ids[a], ids[b]) for a, b in edges]


def _fresh_id(objects: list) -> int:
    return max(obj for obj, _ in objects) + 1


def _root(objects: list, links: list) -> int:
    """An object that is nobody's component, or any object if an earlier
    fault left none."""
    targets = {target for _, target in links}
    return next((obj for obj, _ in objects if obj not in targets), objects[0][0])


def _negative_id(objects, links, names, rng):
    i = rng.randrange(len(objects))
    old, new = objects[i][0], -rng.randint(1, 3)
    objects[i] = (new, objects[i][1])
    links[:] = [(new if s == old else s, new if t == old else t) for s, t in links]


def _duplicate_id(objects, links, names, rng):
    objects.insert(rng.randrange(len(objects) + 1), (rng.choice(objects)[0], rng.choice(names)))


def _unknown_types(objects, links, names, rng):
    for unknown in rng.sample(["Yacht", "Zeppelin"], rng.randint(1, 2)):
        i = rng.randrange(len(objects))
        objects[i] = (objects[i][0], unknown)


def _undeclared_source(objects, links, names, rng):
    links.append((_fresh_id(objects) + 7, rng.choice(objects)[0]))


def _undeclared_target(objects, links, names, rng):
    links.append((rng.choice(objects)[0], _fresh_id(objects) + 7))


def _two_composites(objects, links, names, rng):
    others = [obj for obj, _ in objects]
    if links and len(others) > 1:
        source, target = rng.choice(links)
        links.append((rng.choice([obj for obj in others if obj != source]), target))


def _second_root(objects, links, names, rng):
    objects.append((_fresh_id(objects), rng.choice(names)))


def _no_root(objects, links, names, rng):
    links.append((rng.choice(objects)[0], _root(objects, links)))


def _unreachable_cycle(objects, links, names, rng):
    if links:
        i = rng.randrange(len(links))
        target = links[i][1]
        below, reached = {}, [target]
        for s, t in links:
            below.setdefault(s, []).append(t)
        for obj in reached:  # an earlier fault may have closed a cycle
            reached.extend(t for t in below.get(obj, ()) if t not in reached)
        links[i] = (rng.choice(reached), target)


def _retype_root(objects, links, names, rng):
    root = _root(objects, links)
    objects[:] = [(obj, rng.choice(names) if obj == root else name) for obj, name in objects]


def _retype_child(objects, links, names, rng):
    if links:
        child = rng.choice(links)[1]
        objects[:] = [(obj, rng.choice(names) if obj == child else name) for obj, name in objects]


def _too_many_children(objects, links, names, rng):
    if links:
        source, target = rng.choice(links)
        name = dict(objects).get(target, rng.choice(names))
        for _ in range(rng.randint(1, 3)):
            new = _fresh_id(objects)
            objects.append((new, name))
            links.append((source, new))


FAULTS = [
    _negative_id, _duplicate_id, _unknown_types, _undeclared_source, _undeclared_target,
    _two_composites, _second_root, _no_root, _unreachable_cycle, _retype_root,
    _retype_child, _too_many_children,
]


# A fragment of each ConfigError that make_config raises on a non-empty input.
CHECKS = [
    "must be naturals", "declared twice", "unknown type", "undeclared object",
    "two composites", "exactly one root", "not reachable", "root object must have type",
    "no relation allows", "exceeds max cardinality",
]


def _outcome(build, objects, links, problem):
    try:
        return build(objects, links, problem)
    except ConfigError as error:
        return f"ConfigError: {error}"


def test_make_config_matches_the_dict_oracle(pc, abcd, wide, cyclic):
    rng = random.Random(20030604)
    problems = [pc, abcd, wide, cyclic, chain_problem(3, 2)]
    messages, valid = [], 0
    for problem in problems + [None]:
        for _ in range(CASES_PER_PROBLEM):
            source: StructuralProblem = problem or rng.choice(problems)
            tree = random_tree(source, rng.randint(1, 14), rng)
            objects, links = _materialize(tree, rng)
            names = [t.name for t in source.types]
            for fault in rng.sample(FAULTS, rng.choice([0, 0, 1, 1, 2])):
                fault(objects, links, names, rng)
            rng.shuffle(objects)
            rng.shuffle(links)
            expected = _outcome(make_config_oracle, objects, links, problem)
            # make_config takes any iterables; half the time, single-pass ones.
            feed = iter if rng.random() < 0.5 else list
            got = _outcome(make_config, feed(objects), feed(links), problem)
            if isinstance(expected, str):
                assert got == expected, (objects, links)
                messages.append(expected)
                continue
            root, types, link_pairs = expected
            assert (got.root, got.types, got.links) == expected, (objects, links)
            assert got.ids == tuple(obj for obj, _ in types)
            assert config_to_ttree(got) == config_tree_oracle(root, types, link_pairs)
            valid += 1
    assert valid > 1000
    for check in CHECKS:
        assert any(check in message for message in messages), check


def _config_file(objects, links, rng) -> str:
    """A configuration file of these pairs, each kind in its order: obj and
    link lines interleaved, with comments, blank lines, tabs and line
    breaks of every kind that str.splitlines knows."""
    kinds = [0] * len(objects) + [1] * len(links)
    rng.shuffle(kinds)
    directives = iter([("obj", *pair) for pair in objects]), iter([("link", *p) for p in links])
    lines = []
    for kind in kinds:
        if rng.random() < 0.1:
            lines.append(rng.choice(["", "  ", "# a comment", "\t# link 1 2"]))
        line = rng.choice([" ", "\t", "  "]).join(map(str, next(directives[kind])))
        ending = rng.choice(["", "", " # note", "#obj 1 X", "\t"])
        lines.append(rng.choice(["", " "]) + line + ending)
    breaks = ["\n", "\n", "\r\n", "\r", "\x0b", "\x1e", "\x85", "\u2028"]
    return "".join(line + rng.choice(breaks) for line in lines)


def _first_negative_line(text: str) -> str | None:
    """The error for the first line with a negative number, if any: a file
    holds ids in ASCII digits only."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        keyword, *numbers = line.split() or [""]
        if any(number.startswith("-") for number in numbers[: 1 if keyword == "obj" else 2]):
            return f"ConfigError: line {lineno}: bad object id in {line!r}"
    return None


def test_parse_config_reads_files_as_make_config_reads_pairs(pc, abcd, wide, cyclic):
    rng = random.Random(20030607)
    problems = [pc, abcd, wide, cyclic, chain_problem(3, 2)]
    messages, valid = [], 0
    for problem in problems + [None]:
        for _ in range(CASES_PER_PROBLEM // 2):
            source: StructuralProblem = problem or rng.choice(problems)
            objects, links = _materialize(random_tree(source, rng.randint(1, 14), rng), rng)
            names = [t.name for t in source.types]
            for fault in rng.sample(FAULTS, rng.choice([0, 0, 1, 1, 2])):
                fault(objects, links, names, rng)
            rng.shuffle(objects)
            rng.shuffle(links)
            text = _config_file(objects, links, rng)
            try:
                got = parse_config(text, problem)
            except ConfigError as error:
                got = f"ConfigError: {error}"
            expected = _first_negative_line(text) or _outcome(make_config, objects, links, problem)
            assert got == expected, text
            if isinstance(got, str):
                messages.append(got)
            else:
                valid += 1
    assert valid > 500
    # A negative id in a file is refused as a bad id, before make_config sees it.
    for check in [c for c in CHECKS if c != "must be naturals"] + ["bad object id"]:
        assert any(check in message for message in messages), check


def test_render_config_inverts_parse_config(pc, abcd, wide, cyclic):
    rng = random.Random(20030608)
    problems = [pc, abcd, wide, cyclic, chain_problem(3, 2)]
    for problem in problems + [None]:
        for _ in range(CASES_PER_PROBLEM // 2):
            source: StructuralProblem = problem or rng.choice(problems)
            objects, links = _materialize(random_tree(source, rng.randint(1, 14), rng), rng)
            rng.shuffle(objects)
            rng.shuffle(links)
            config = make_config(objects, links, problem)
            assert parse_config(render_config(config), problem) == config, (objects, links)
    assert render_config(parse_config(PC_CONFIG, pc)) == (
        "obj 1 PC\nobj 2 Monitor\nobj 3 Supply\nobj 4 Mainboard\n"
        "obj 5 Processor\nobj 6 Processor\nobj 7 HDisk\nobj 8 HDisk\n"
        "link 1 2\nlink 1 3\nlink 1 4\nlink 4 5\nlink 4 6\nlink 4 7\nlink 4 8\n"
    )

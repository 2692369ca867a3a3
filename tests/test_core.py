from __future__ import annotations

import copy
import dataclasses
import hashlib
import os
import pickle
import random
import re
import subprocess
import sys

import pytest

from ttrees import (
    ConfigError,
    ParseError,
    ProblemError,
    StructuralProblem,
    TTree,
    TypeSymbol,
    UnknownTypeError,
    chain_problem,
    config_to_ttree,
    enumerate_all,
    make_config,
    parse_config,
    parse_problem,
    parse_ttree,
    parse_ttrees,
    render_config,
    render_problem,
    render_ttree,
    ttree_conforms,
    ttree_to_config,
)
from ttrees import core
from oracles import parse_texts_oracle, random_problem, random_tree, relation_queries
from conftest import PC_CONFIG


def test_pc_problem_is_valid(pc):
    assert len(pc.types) == 6
    assert len(pc.relations) == 5
    assert pc.root_type.name == "PC"
    mainboard = pc.type("Mainboard")
    assert [b.name for a, b, _ in pc.relations if a == mainboard] == ["Processor", "HDisk"]
    assert pc.relations[0] == (pc.type("PC"), pc.type("Monitor"), 1)


def test_single_type_problem():
    p = StructuralProblem("T", ["T"])
    assert p.relations == ()
    assert not p.is_cyclic


def test_duplicate_relation_rejected():
    with pytest.raises(ProblemError, match="duplicate relation"):
        StructuralProblem(
            "PC",
            ["PC", "Monitor"],
            [("PC", "Monitor", 1), ("PC", "Monitor", 2)],
        )


def test_type_names_and_root_are_checked():
    with pytest.raises(ProblemError, match="invalid type name 'A B'"):
        StructuralProblem("A", ["A", "A B"])
    with pytest.raises(ProblemError, match="root type 'R' is not declared"):
        StructuralProblem("R", ["A", "B"])


def test_a_type_name_that_is_no_str_is_refused():
    with pytest.raises(ProblemError, match="invalid type name 1"):
        StructuralProblem("A", ["A", 1])


@pytest.mark.parametrize("root, relations, message", [
    (["A"], [], "root type ['A'] is not declared"),
    ("A", [("A", ["B"], 1)], "relation references unknown type ['B']"),
    ("A", [(["A"], "B", 1)], "relation references unknown type ['A']"),
    ("A", [("A", "B")], "relation ('A', 'B') needs three fields"),
    ("A", [("A", "B", 1, 2)], "relation ('A', 'B', 1, 2) needs three fields"),
    ("A", [None], "relation None needs three fields"),
], ids=["list-root", "list-component", "list-composite", "two-fields", "four-fields", "no-fields"])
def test_malformed_problem_input_is_refused_by_name(root, relations, message):
    # Each of these escaped as TypeError or an unpacking ValueError.
    with pytest.raises(ProblemError, match=re.escape(message)):
        StructuralProblem(root, ["A", "B"], relations)


@pytest.mark.parametrize("types, relations, message", [
    ("AB", [], "types must be an iterable other than a str, got 'AB'"),
    (5, [], "types must be an iterable other than a str, got 5"),
    (["A", "B"], "AB", "relations must be an iterable other than a str, got 'AB'"),
    (["A", "B"], 5, "relations must be an iterable other than a str, got 5"),
    ({"A"}, [], "types must be an iterable other than a set, got {'A'}"),
    (["A", "B"], frozenset({("A", "B", 1)}),
     "relations must be an iterable other than a frozenset, got frozenset({('A', 'B', 1)})"),
], ids=["str-types", "int-types", "str-relations", "int-relations", "set-types",
        "frozenset-relations"])
def test_types_and_relations_must_be_iterables_that_are_no_str(types, relations, message):
    # A str was read one character per type; an int escaped as TypeError; a
    # set ordered the types, and so canonical forms and enumeration, by the
    # string hash seed of the process.
    with pytest.raises(ProblemError, match=re.escape(message)):
        StructuralProblem("A", types, relations)


def test_duplicate_type_rejected():
    with pytest.raises(ProblemError, match="duplicate type"):
        StructuralProblem("A", ["A", "B", "B"])


def test_root_as_component_rejected():
    with pytest.raises(ProblemError, match="cannot be a component"):
        StructuralProblem("A", ["A", "B"], [("B", "A", 1)])


def test_unknown_relation_type_rejected():
    with pytest.raises(ProblemError, match="unknown type"):
        StructuralProblem("A", ["A"], [("A", "B", 1)])


def test_zero_cardinality_rejected():
    for cardinality in (0, 2.5, True, "2", None):
        with pytest.raises(ProblemError, match="cardinality"):
            StructuralProblem("A", ["A", "B"], [("A", "B", cardinality)])


def test_cyclic_problem_needs_opt_in():
    with pytest.raises(ProblemError, match="cyclic"):
        StructuralProblem("A", ["A", "B"], [("A", "B", 1), ("B", "B", 1)])
    p = StructuralProblem(
        "A", ["A", "B"], [("A", "B", 1), ("B", "B", 1)], allow_cyclic=True
    )
    assert p.is_cyclic


def test_cycle_check_handles_long_type_chains():
    assert not chain_problem(1200, 1).is_cyclic
    names = [f"T{i}" for i in range(3000)]
    ring = [(names[i], names[i + 1], 1) for i in range(2999)] + [(names[2999], names[1], 1)]
    with pytest.raises(ProblemError, match="cyclic"):
        StructuralProblem("T0", names, ring)
    assert StructuralProblem("T0", names, ring, allow_cyclic=True).is_cyclic


def test_cycle_check_matches_reachability():
    rng = random.Random(143)
    names = ["R", "A", "B", "C", "D"]
    for _ in range(300):
        pairs = [(x, y) for x in names for y in names[1:] if rng.random() < 0.25]
        graph = {x: {y for a, y in pairs if a == x} for x in names}
        reach = {x: set(graph[x]) for x in names}
        for _ in names:  # transitive closure by repeated expansion
            for x in names:
                reach[x] |= {z for y in reach[x] for z in graph[y]}
        expected = any(x in reach[x] for x in names)
        problem = StructuralProblem("R", names, [(x, y, 1) for x, y in pairs], allow_cyclic=True)
        assert problem.is_cyclic == expected


def test_problem_queries_match_the_relations(abcd, pc, wide, cyclic):
    rng = random.Random(1506)
    names = [f"T{i}" for i in range(8)]
    ring = [(a, b, 2) for a, b in zip(names[1:], names[2:] + names[1:2])]
    problems = [abcd, pc, wide, cyclic, chain_problem(3, 3)]
    loop = [("X", "Y", 1), ("Y", "Y", 1)]
    problems.append(StructuralProblem("X", ["X", "Y"], loop, allow_cyclic=True))
    problems.append(StructuralProblem("T0", names, [("T0", "T1", 1)] + ring, allow_cyclic=True))
    problems += [random_problem(rng) for _ in range(200)]
    found = {False: 0, True: 0}
    unranked = 0
    for problem in problems:
        _, _, cyclic = relation_queries(problem)
        assert problem.is_cyclic == cyclic
        found[cyclic] += 1
        # Relations keep the order they were declared in, not rank order.
        triples = [(a.name, b.name, cap) for a, b, cap in problem.relations]
        rng.shuffle(triples)
        declared = [t.name for t in problem.types]
        again = StructuralProblem(problem.root_type.name, declared, triples, allow_cyclic=True)
        assert again.relations == tuple((again.type(a), again.type(b), c) for a, b, c in triples)
        lines = [line for line in render_problem(again).splitlines() if line.startswith("rel ")]
        assert lines == [f"rel {a} {b} max {cap}" for a, b, cap in triples]
        unranked += list(again.relations) != sorted(
            again.relations, key=lambda r: (r[0].rank, r[1].rank)
        )
    assert min(found.values()) > 50  # both kinds of graph are well represented
    assert unranked > 50  # and so are relations declared out of rank order


def test_problem_file_round_trip(pc):
    assert render_problem(parse_problem(render_problem(pc))) == render_problem(pc)


def test_parse_problem_diagnostics():
    with pytest.raises(ProblemError, match="missing root"):
        parse_problem("type A\n")
    with pytest.raises(ProblemError, match="line 2"):
        parse_problem("root A\nbogus directive\n")
    with pytest.raises(ProblemError, match="root declared twice"):
        parse_problem("root A\nroot A\ntype A\n")


def test_parse_problem_ignores_comments():
    p = parse_problem("# header\nroot A # trailing\ntype A\n\n")
    assert p.root_type.name == "A"


def test_parse_render_identity_on_normalized_text(abcd):
    for text in ["A", "A(B)", "A(B,C)", "A(B(D),B)", "A(B,B(D,D),C,C)"]:
        assert render_ttree(parse_ttree(text, abcd)) == text


def test_parse_groups_children_stably(abcd):
    # type grouping reorders across types only; within a type the
    # written order is kept
    assert render_ttree(parse_ttree("A(C,B)", abcd)) == "A(B,C)"
    assert render_ttree(parse_ttree("A(B(D),C,B)", abcd)) == "A(B(D),B,C)"
    tree = parse_ttree("A(B,C,B(D))", abcd)
    b_list = tree.tlist(abcd.type("B"))
    assert [render_ttree(x) for x in b_list] == ["B", "B(D)"]


def test_parse_whitespace_insensitive(abcd):
    assert parse_ttree(" A ( B , B ( D ) ) ", abcd) == parse_ttree("A(B,B(D))", abcd)


# Each malformed expression and the offset its ParseError reports.
SYNTAX_ERRORS = {
    "": 0,
    "A(B(": 4,
    "A(": 2,
    "A()": 2,
    "A(B,)": 4,
    "A)B": 1,
    "A(B))": 4,
    "1A": 0,
    " ": 1,
    "A B": 2,
    "A,": 1,
    "A(B C)": 4,
    "A (B": 4,
    "A(B,  ": 6,
    "  A(  ,B)": 6,
    "A(B)x": 4,
    "A(B) ,C": 5,
    "A(B(D)(D))": 6,
    "A((B))": 2,
    # A name glued to a character outside names and punctuation is one bad token.
    "A(B(D\u00e9))": 4,
    "A(B-,C)": 2,
    "A\u00e9": 0,
}


@pytest.mark.parametrize("bad", list(SYNTAX_ERRORS))
def test_parse_syntax_errors(bad, abcd):
    with pytest.raises(ParseError) as caught:
        parse_ttree(bad, abcd)
    assert caught.value.position == SYNTAX_ERRORS[bad]


def test_parse_error_carries_position():
    err = pytest.raises(ParseError, parse_ttree, "A(B(").value
    assert err.position == 4


def test_parse_unknown_type_with_problem(abcd):
    with pytest.raises(UnknownTypeError):
        parse_ttree("A(Z)", abcd)


def test_syntax_errors_take_precedence_over_unknown_types(abcd):
    assert pytest.raises(ParseError, parse_ttree, "Z(B", abcd).value.position == 3
    assert pytest.raises(ParseError, parse_ttrees, ["A(Z)", "A(B"], abcd).value.position == 3
    with pytest.raises(UnknownTypeError, match="'Z'"):
        parse_ttrees(["A(B,Z)", "A(Y)"], abcd)


# Pieces of random tree texts: names, digits, punctuation, ASCII and other
# whitespace, and characters that appear in no token the parser accepts.
TEXT_PIECES = (
    ["A", "B", "C", "D", "Z", "_x9", "B1", "1", "1B", "42"] + ["(", ")", ","] * 4
    + [" ", "\t", "\n", "\r\n", "\f", "\v", "\u00a0", "\u2003", "\x1c"]
    + ["#", "-", "\u00e9", "\u0663"]
)


def _parse_outcome(texts, problem, parse=parse_ttrees) -> str:
    try:
        return " ".join(map(render_ttree, parse(texts, problem)))
    except (ParseError, UnknownTypeError) as error:
        return f"{type(error).__name__}: {error}"


def _text_cases(abcd) -> list:
    """3 000 random (texts, problem) inputs: edited renderings of random
    trees and random runs of `TEXT_PIECES`, alone or before "A(B)"."""
    rng = random.Random(20030606)
    cases = []
    for _ in range(3000):
        if rng.random() < 0.5:  # a well-formed tree, then a few edits
            pieces = list(render_ttree(random_tree(abcd, rng.randint(1, 12), rng)))
            for _ in range(rng.choice([0, 0, 1, 2, 3])):
                at = rng.randrange(len(pieces) + 1)
                pieces[at:at + rng.randint(0, 1)] = [rng.choice(TEXT_PIECES)]
        else:
            pieces = rng.choices(TEXT_PIECES, k=rng.randint(0, 12))
        text = "".join(rng.choice(["", " ", "\n "]) + p for p in pieces)
        text += rng.choice(["", " ", "\t\n"])
        cases.append(([text] if rng.random() < 0.7 else [text, "A(B)"], rng.choice([abcd, None])))
    return cases


def test_tree_text_outcomes_are_pinned(abcd):
    """The trees, or the error and its position, of 3 000 random texts,
    pinned by one digest.  A text is cut into tokens by str.split, and a
    run of non-blank characters other than parentheses and commas is one
    token, so "D\u00e9" is one bad name."""
    outcomes = [_parse_outcome(texts, problem) for texts, problem in _text_cases(abcd)]
    errors = [outcome.split(":")[0] for outcome in outcomes if "Error: " in outcome]
    assert len(outcomes) - len(errors) > 500 and errors.count("ParseError") > 500
    digest = hashlib.sha256("\n".join(outcomes).encode()).hexdigest()
    assert digest == "3c569d142f895308202604e83ca4f86d50d295f0d2d3bc5c36aaaa55785e08a0"


def test_tree_text_matches_the_recursive_descent_oracle(abcd):
    """The same 3 000 texts give the oracle's trees, or its error at its
    position, whether parsed alone or together."""
    for texts, problem in _text_cases(abcd):
        expected = _parse_outcome(texts, problem, parse_texts_oracle)
        assert _parse_outcome(texts, problem) == expected, texts
        if "Error: " not in expected:
            assert parse_ttrees(texts, problem) == parse_texts_oracle(texts, problem)


def test_parse_without_problem_orders_types_by_name():
    tree = parse_ttree("root(beta,alpha)")
    assert render_ttree(tree) == "root(alpha,beta)"


def test_ttree_factory_rejects_mixed_universes(abcd, pc):
    with pytest.raises(ValueError, match="universes"):
        TTree(abcd.type("A"), [parse_ttree("B", abcd), parse_ttree("Monitor", pc)])


def test_raw_constructor_checks_its_groups(abcd):
    a, b = abcd.type("A"), abcd.type("B")
    with pytest.raises(ValueError, match="TypeSymbol label and an iterable of children"):
        TTree("A")
    with pytest.raises(ValueError, match="TypeSymbol label and an iterable of children"):
        TTree(a, 1)
    # Ready-made groups are not children: a group is refused as a member.
    for children, got in (([TTree(b), 1], "1"), (((b, (TTree(b),)),), r"\(TypeSymbol")):
        with pytest.raises(ValueError, match="a T-list member must be a TTree, got " + got):
            TTree(a, children)


def test_trees_pickle_and_copy_without_recursion(abcd):
    # A 10**5-level path is far past the interpreter's recursion limit.
    problem = StructuralProblem("A", ["A", "B"], [("A", "B", 1), ("B", "B", 1)], allow_cyclic=True)
    path = TTree(problem.type("B"))
    for _ in range(10**5 - 2):
        path = TTree(problem.type("B"), [path])
    path = TTree(problem.type("A"), [path])
    small = parse_ttree("A(B(D,D),B,C)", abcd)
    # One name, two ranks: the configuration carries the symbols themselves.
    mixed = TTree(TypeSymbol("A", 0), [TTree(TypeSymbol("B", 1)), TTree(TypeSymbol("B", 2))])
    for tree in (small, path, mixed):
        assert pickle.loads(pickle.dumps(tree)) == tree
        assert copy.deepcopy(tree) == tree
        assert copy.copy(tree) == tree
    # A tree pickles as its configuration, which config_to_ttree checks.
    rebuild, (config,) = small.__reduce__()
    assert rebuild is config_to_ttree and config == ttree_to_config(small)
    assert [label.name for label in config.labels] == ["A", "B", "B", "C", "D", "D"]


def test_node_count_and_height(abcd):
    tree = parse_ttree("A(B(D,D),B,C)", abcd)
    assert tree.node_count == 6
    assert tree.height == 2
    assert parse_ttree("A", abcd).height == 0


def test_deep_trees_need_no_recursion():
    # A path far deeper than the interpreter's recursion limit.
    problem = StructuralProblem("A", ["A", "B"], [("A", "B", 1), ("B", "B", 1)], allow_cyclic=True)
    depth = 20_000
    text = "A(" + "B(" * (depth - 2) + "B" + ")" * (depth - 1)
    tree, same = parse_ttrees([text, text], problem)
    assert tree == same and hash(tree) == hash(same)
    assert tree != parse_ttree(text.replace("B)", "B(B))", 1), problem)
    assert tree.node_count == depth and tree.height == depth - 1
    assert ttree_conforms(tree, problem)
    assert render_ttree(tree) == text
    assert config_to_ttree(ttree_to_config(tree)) == tree


def test_unpickled_values_hash_like_fresh_ones(tmp_path):
    # String hashes depend on the process, so pickle in one process and
    # compare hashes with freshly parsed values in another.
    dump, load = tmp_path / "dump.py", tmp_path / "load.py"
    setup = "import pickle, sys\nfrom ttrees import chain_problem, parse_ttree\n"
    setup += "p = chain_problem(2, 2)\nvalues = (p.type('T1'), parse_ttree('T0(T1(T2),T1)', p))\n"
    dump.write_text(setup + "sys.stdout.buffer.write(pickle.dumps(values))\n")
    load.write_text(setup + "old = pickle.loads(sys.stdin.buffer.read())\n"
                    "assert old == values and list(map(hash, old)) == list(map(hash, values))\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    data = subprocess.run([sys.executable, str(dump)], capture_output=True, check=True,
                          env={**env, "PYTHONHASHSEED": "1"}).stdout
    subprocess.run([sys.executable, str(load)], input=data, check=True, env={**env, "PYTHONHASHSEED": "2"})


def test_conforms(pc, abcd):
    fig_tree = parse_ttree(
        "PC(Monitor,Supply,Mainboard(Processor,Processor,HDisk,HDisk))", pc
    )
    assert ttree_conforms(fig_tree, pc)
    assert ttree_conforms(parse_ttree("PC", pc), pc)
    # over cardinality
    assert not ttree_conforms(parse_ttree("PC(Monitor,Monitor)", pc), pc)
    # no relation allows D directly below A
    assert not ttree_conforms(parse_ttree("A(D)", abcd), abcd)
    # wrong root type
    assert not ttree_conforms(parse_ttree("B(D)", abcd), abcd)


def test_conforms_rejects_foreign_labels(pc, abcd):
    with pytest.raises(UnknownTypeError):
        ttree_conforms(parse_ttree("A(B)", abcd), pc)
    # known name, but rank from a name-order universe instead of the problem's
    foreign = parse_ttree("Mainboard")
    with pytest.raises(UnknownTypeError):
        ttree_conforms(foreign, pc)


def test_conforms_checks_every_child_label(pc):
    root, monitor = pc.root_type, pc.type("Monitor")
    # Equal to the problem's own symbol: the same type, though another object.
    twin = TypeSymbol(monitor.name, monitor.rank)
    assert ttree_conforms(TTree(root, [TTree(twin)]), pc)
    for foreign in (TypeSymbol("Monitor", 99), TypeSymbol("Undeclared", monitor.rank)):
        with pytest.raises(UnknownTypeError):
            ttree_conforms(TTree(root, [TTree(foreign)]), pc)


def test_trees_with_other_root_labels_are_unequal(abcd):
    b, c, d = (abcd.type(name) for name in "BCD")
    assert TTree(b) != TTree(c)
    assert TTree(b) != TTree(TypeSymbol("B", 9))
    assert TTree(b, [TTree(d)]) != TTree(c, [TTree(d)])
    assert TTree(b) == TTree(TypeSymbol("B", b.rank))


def test_a_tree_prints_as_its_text_and_equals_no_other_kind(abcd):
    tree = parse_ttree("A(C,B(D))", abcd)
    assert tree.__eq__(5) is NotImplemented
    assert (tree == 5) is False and (tree != "A(B(D),C)") is True
    assert str(tree) == render_ttree(tree) == "A(B(D),C)"


def test_problems_and_configs_print_their_sizes_not_their_contents(pc):
    assert repr(pc) == "StructuralProblem(root='PC', types=6, relations=5)"
    assert repr(parse_config(PC_CONFIG, pc)) == "<ConfigTree root=1 objects=8>"


def test_type_symbols_are_values():
    b, again = TypeSymbol("B", 1), TypeSymbol("B", 1)
    assert b is not again and b == again and hash(b) == hash(again)
    assert TypeSymbol("B", 1) != TypeSymbol("B", 2)
    assert TypeSymbol("B", 1) != TypeSymbol("C", 1)
    assert b == ("B", 1) and str(b) == "B"
    for copied in (pickle.loads(pickle.dumps(b)), copy.copy(b), copy.deepcopy(b)):
        assert copied == b and type(copied) is TypeSymbol
    # Equal symbols from two parses are one dict and set key.
    left, right = parse_ttree("A(B)"), parse_ttree("A(B)")
    assert left.label is not right.label
    assert {left.label: 1, right.label: 2} == {left.label: 2}
    assert len({left.groups[0][0], right.groups[0][0]}) == 1


def test_edge_without_relation_is_nonconforming(abcd):
    tree = TTree(abcd.type("A"), [TTree(abcd.type("D"))])
    assert not ttree_conforms(tree, abcd)


def test_config_parse_and_convert(pc):
    cfg = parse_config(PC_CONFIG, pc)
    tree = config_to_ttree(cfg)
    assert (
        render_ttree(tree)
        == "PC(Monitor,Supply,Mainboard(Processor,Processor,HDisk,HDisk))"
    )


def test_ttree_to_config_bfs_numbering(pc):
    tree = parse_ttree(
        "PC(Monitor,Supply,Mainboard(Processor,Processor,HDisk,HDisk))", pc
    )
    cfg = ttree_to_config(tree)
    assert cfg.root == 0
    assert render_config(cfg) == (
        "obj 0 PC\nobj 1 Monitor\nobj 2 Supply\nobj 3 Mainboard\n"
        "obj 4 Processor\nobj 5 Processor\nobj 6 HDisk\nobj 7 HDisk\n"
        "link 0 1\nlink 0 2\nlink 0 3\nlink 3 4\nlink 3 5\nlink 3 6\nlink 3 7\n"
    )


def test_single_object_round_trip(pc):
    leaf = parse_ttree("PC", pc)
    cfg = ttree_to_config(leaf)
    assert cfg.ids == (0,) and render_config(cfg) == "obj 0 PC\n"
    assert config_to_ttree(cfg) == leaf


def test_round_trip_on_enumerated_corpus(chain22_corpus):
    for tree in chain22_corpus:
        assert config_to_ttree(ttree_to_config(tree)) == tree


def test_parse_render_identity_on_enumerated_corpus(chain22_corpus):
    problem = chain_problem(2, 2)
    for tree in chain22_corpus:
        assert parse_ttree(render_ttree(tree), problem) == tree


def test_conversion_preserves_type_census(abcd):
    tree = parse_ttree("A(B(D),B(D,D),C)", abcd)
    cfg = ttree_to_config(tree)
    names = sorted(label.name for label in cfg.labels)
    assert names == ["A", "B", "B", "C", "D", "D", "D"]
    assert len(cfg.ids) == tree.node_count


def test_generated_configs_revalidate(pc, abcd):
    # every ttree_to_config result passes full configuration validation:
    # unique root, unique composite per object, reachability, schemas
    trees = [
        parse_ttree("PC(Monitor,Supply,Mainboard(Processor,HDisk))", pc),
        parse_ttree("A(B(D,D),B,C,C)", abcd),
    ]
    problems = [pc, abcd]
    for tree, problem in zip(trees, problems):
        cfg = ttree_to_config(tree)
        rebuilt = make_config(
            [(o, label.name) for o, label in zip(cfg.ids, cfg.labels)],
            [(o, cfg.ids[c]) for o, below in zip(cfg.ids, cfg.children) for c in below],
            problem,
        )
        assert rebuilt == cfg
        assert parse_config(render_config(cfg), problem) == cfg


def test_two_mainboard_like_erasure(abcd):
    # two composites each holding one leaf keep their list order
    tree = parse_ttree("A(B(D),B(D))", abcd)
    cfg = ttree_to_config(tree)
    assert config_to_ttree(cfg) == tree


def test_config_validation_errors(pc):
    with pytest.raises(ConfigError, match="declared twice"):
        make_config([(0, "PC"), (0, "PC")], [])
    with pytest.raises(ConfigError, match="two composites"):
        make_config(
            [(0, "PC"), (1, "Monitor"), (2, "Supply")],
            [(0, 1), (0, 2), (2, 1)],
            pc,
        )
    with pytest.raises(ConfigError, match="exactly one root"):
        make_config([(0, "PC"), (1, "PC")], [], pc)
    with pytest.raises(ConfigError, match="undeclared object"):
        make_config([(0, "PC")], [(0, 7)], pc)
    with pytest.raises(ConfigError, match="undeclared object 5$"):  # the source comes first
        make_config([(0, "PC")], [(5, 6)], pc)
    with pytest.raises(ConfigError, match="no relation"):
        make_config([(0, "PC"), (1, "Processor")], [(0, 1)], pc)
    with pytest.raises(ConfigError, match="max cardinality"):
        make_config(
            [(0, "PC"), (1, "Monitor"), (2, "Monitor")],
            [(0, 1), (0, 2)],
            pc,
        )
    with pytest.raises(ConfigError, match="unknown type"):
        make_config([(0, "Spaceship")], [], pc)
    with pytest.raises(ConfigError, match="configuration has no objects"):
        make_config([], [])
    # Each malformed pair escaped as an unpacking ValueError or a TypeError.
    with pytest.raises(ConfigError, match=re.escape("object (0, 'A', 1) needs two fields")):
        make_config([(0, "A", 1)], [])
    with pytest.raises(ConfigError, match=re.escape("link (0,) needs two fields")):
        make_config([(0, "A"), (1, "A")], [(0,)])
    with pytest.raises(ConfigError, match="^object 5 needs two fields$"):
        make_config([5], [])
    with pytest.raises(ConfigError, match="configuration has no objects"):
        parse_config("# nothing but a comment\n", pc)
    for bad in (1.5, True, "x", None, -1):
        with pytest.raises(ConfigError, match=re.escape(f"ids must be naturals, got {bad!r}")):
            make_config([(0, "PC"), (bad, "Monitor"), (-2, "Monitor")], [(0, bad)], pc)
    # Without a problem, type names must be names; the first bad one is named.
    for names, bad in [(("A", 5), 5), ((5, 6), 5), (("A", "A!", 7), "A!"), (("A", None), None)]:
        objects = list(enumerate(names))
        with pytest.raises(ConfigError, match=re.escape(f"invalid type name {bad!r}")):
            make_config(objects, [(0, obj) for obj, _ in objects[1:]])
    with pytest.raises(ConfigError, match="invalid type name 'A!'"):
        parse_config("obj 0 A\nobj 1 A!\nlink 0 1\n")


def test_config_stores_positions_and_answers_in_ids(pc):
    cfg = parse_config(PC_CONFIG, pc)
    assert cfg.ids == tuple(range(1, 9))
    assert cfg.root_position == 0 and cfg.root == 1
    assert cfg.children[3] == (4, 5, 6, 7)  # positions of objects 5..8
    assert cfg.labels[7].name == "HDisk"  # object 8


def test_hand_built_config_that_is_no_tree_is_refused(pc):
    cfg = parse_config(PC_CONFIG, pc)
    cycle = cfg.children[:4] + ((0,),) + cfg.children[5:]  # a Processor holds the PC
    unreachable = ((1, 2),) + cfg.children[1:]  # the Mainboard is cut off
    for children in (cycle, unreachable):
        with pytest.raises(ConfigError, match="do not form a tree"):
            config_to_ttree(dataclasses.replace(cfg, children=children))
    a, b = TypeSymbol("A", 0), TypeSymbol("B", 1)
    broken = [  # (root position, child positions) over the labels A, B, B
        (0, ((1, 1), (), ())),  # position 1 listed twice, position 2 never reached
        (0, ((-1,), ())),
        (-1, ((), (0,))),
        (0, ((5,), ())),
        (3, ((),)),
        (0, ((1,), (0,))),
        (0, ((), ())),
    ]
    for root, children in broken:
        n = len(children)
        with pytest.raises(ConfigError, match="do not form a tree"):
            config_to_ttree(core.ConfigTree(tuple(range(n)), (a, b, b)[:n], children, root))
    # Columns of unequal length, and a root position that is no int.
    for config in [
        core.ConfigTree((0, 1), (a, b), ((1,),), 0),
        core.ConfigTree((0, 1), (a, b), ((1,), (), ()), 0),
        core.ConfigTree((0,), (a,), ((),), 0.0),
    ]:
        with pytest.raises(ConfigError, match="do not form a tree"):
            config_to_ttree(config)


def test_config_line_diagnostics():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config("obj x PC\n")
    with pytest.raises(ConfigError, match="line 2"):
        parse_config("obj 0 PC\nconnect 0 1\n")


def test_config_faults_are_named_in_line_order():
    with pytest.raises(ConfigError, match="line 2: bad object id in 'obj x B'"):
        parse_config("obj 1 A\nobj x B # note\nconnect 1 2\n")
    with pytest.raises(ConfigError, match="line 2: unrecognized directive 'connect 1 2'"):
        parse_config("obj 1 A\n\tconnect 1 2  \nobj x B\n")


# int() reads all of these but the superscript; ids and cardinalities are ASCII digits.
NOT_DIGITS = ["+1", "1_0", "-1", "\u0663", "\uff11", "\u00b2"]


@pytest.mark.parametrize("number", NOT_DIGITS)
def test_ids_and_cardinalities_are_ascii_digits(number):
    with pytest.raises(ConfigError) as caught:
        parse_config(f"obj 1 A\nobj {number} B\nlink 1 2\n")
    assert str(caught.value) == f"line 2: bad object id in 'obj {number} B'"
    with pytest.raises(ConfigError) as caught:
        parse_config(f"obj 1 A\nobj 2 B\nlink 1 {number}\n")
    assert str(caught.value) == f"line 3: bad object id in 'link 1 {number}'"
    with pytest.raises(ProblemError, match=re.escape(f"line 4: bad cardinality '{number}'")):
        parse_problem(f"root A\ntype A\ntype B\nrel A B max {number}\n")


def test_leading_zeros_are_digits():
    problem = parse_problem("root A\ntype A\ntype B\nrel A B max 0012\n")
    assert problem.relations[0] == (problem.type("A"), problem.type("B"), 12)
    assert parse_config("obj 007 A\n").ids == (7,)


def test_enumerated_trees_all_conform():
    problem = chain_problem(2, 2)
    for tree in enumerate_all(problem):
        assert ttree_conforms(tree, problem)

import random

import pytest

from opra.automata import (
    compile_regex, eval_node_constraint, match_paths, step,
)
from opra.graph import SINK
from opra.oracle import letters_of, match_paths_language, regex_matches
from opra.parser import parse
from opra.query import (
    Concat, ConstAtom, Epsilon, LabelAtom, Letter, NodeConstraint, PosVar,
    Star, TRUE_CONSTRAINT, Union_, regex_text,
)

from gensupport import ROUTE_REGEX, rand_graph, rand_regex, all_paths

E_LETTER = NodeConstraint(
    LabelAtom("E", (PosVar(1), PosVar(1, True))), "=", ConstAtom(1)
)


def occurrences(r):
    """Letter occurrences in a regex: the states of its position
    automaton other than the initial one."""
    if isinstance(r, Letter):
        return 1
    if isinstance(r, Epsilon):
        return 0
    if isinstance(r, Star):
        return occurrences(r.body)
    return occurrences(r.left) + occurrences(r.right)


def test_eval_node_constraint(fig2, node):
    cur, nxt = (node("S"),), (node("T"),)
    assert eval_node_constraint(fig2, E_LETTER, cur, nxt)
    assert not eval_node_constraint(fig2, E_LETTER, (node("S"),), (node("P"),))
    assert eval_node_constraint(fig2, TRUE_CONSTRAINT, cur, nxt)
    # primed variables read the next tuple
    nc = NodeConstraint(
        LabelAtom("time", (PosVar(1, True),)), "=", ConstAtom(10)
    )
    assert eval_node_constraint(fig2, nc, (node("P"),), (node("T"),))


def test_compile_star_shape():
    nfa = compile_regex(Star(Letter(E_LETTER)))
    # star of a letter: the initial state 0 is accepting
    assert 0 in nfa.final
    assert len(nfa.moves) == 1 + occurrences(Star(Letter(E_LETTER)))


def test_terminated_step_keeps_exactly_the_final_states(fig2, node):
    # once every path has ended, a step keeps the final members of a state
    # set and drops the rest; while a path is alive, real letters move
    nfa = compile_regex(ROUTE_REGEX)
    assert nfa.final == {2}
    mixed = frozenset({0, 1, 2})
    assert step(fig2, nfa, mixed, (SINK,), (SINK,)) == {2}
    assert step(fig2, nfa, frozenset({0, 1}), (SINK,), (SINK,)) == set()
    assert step(fig2, nfa, mixed, (node("S"),), (node("T"),)) == {1, 2}
    two = compile_regex(parsed_regex("<E(@1, @2) = 1>* <T>", "pi, rho"))
    assert step(fig2, two, mixed, (SINK, SINK), (SINK, SINK)) == {2}
    # one live path is enough for real letters: 1 closes on <T>
    assert step(fig2, two, frozenset({1}), (SINK, node("S")),
                (SINK, SINK)) == {2}


def test_compile_epsilon_accepts_empty_only(fig2):
    nfa = compile_regex(Epsilon())
    assert match_paths(fig2, nfa, [()])
    assert not match_paths(fig2, nfa, [(fig2.node_id("S"),)])


def test_compile_union_two_branches(fig2, node):
    r = Union_(
        Letter(NodeConstraint(LabelAtom("time", (PosVar(1),)), "=",
                              ConstAtom(10))),
        Letter(NodeConstraint(LabelAtom("attr", (PosVar(1),)), "=",
                              ConstAtom(30))),
    )
    nfa = compile_regex(r)
    assert match_paths(fig2, nfa, [(node("S"),)])   # time 10
    assert match_paths(fig2, nfa, [(node("P"),)])   # attr 30
    assert not match_paths(fig2, nfa, [(node("W"),)])


def test_route_simulation(fig2, node):
    nfa = compile_regex(ROUTE_REGEX)
    assert match_paths(fig2, nfa, [tuple(node(n) for n in "STP")])
    assert not match_paths(fig2, nfa, [(node("S"), node("P"))])
    assert match_paths(fig2, nfa, [(node("S"),)])
    assert not match_paths(fig2, nfa, [()])  # the trailing letter needs input


def test_star_only_regex_on_empty_path(fig2):
    nfa = compile_regex(Star(Letter(E_LETTER)))
    assert match_paths(fig2, nfa, [()])


def test_exact_word_semantics(fig2, node):
    # two mandatory letters never match a single-node path, even though
    # the second constraint would hold on the padded tuple
    zero = NodeConstraint(
        LabelAtom("E", (PosVar(1), PosVar(1, True))), "=", ConstAtom(0)
    )
    nfa = compile_regex(Concat(Letter(zero), Letter(zero)))
    assert not match_paths(fig2, nfa, [(node("S"),)])
    assert match_paths(fig2, nfa, [(node("S"), node("P"))])  # no E edges


def test_bottom_extension_keeps_accepting(fig2, node):
    # once a tuple is accepted, trailing all-sink letters stay accepted
    nfa = compile_regex(ROUTE_REGEX)
    paths = [tuple(node(n) for n in "STP")]
    states = frozenset({0})
    for cur, nxt in letters_of(paths):
        states = step(fig2, nfa, states, cur, nxt)
    assert states & nfa.final
    for _ in range(3):
        states = step(fig2, nfa, states, (SINK,), (SINK,))
        assert states & nfa.final


def test_nfa_dump_golden():
    nfa = compile_regex(ROUTE_REGEX)
    assert nfa.dump() == (
        "INITIAL 0\n"
        "FINAL 2\n"
        "0 <E(@1, @1') = 1> 1\n"
        "0 <0 = 0> 2\n"
        "1 <E(@1, @1') = 1> 1\n"
        "1 <0 = 0> 2\n"
        "2 BOT 2"
    )
    # the final state can only idle
    assert {s for s, real in enumerate(nfa.moves) if real} == {0, 1}


def unary(value):
    return Letter(NodeConstraint(LabelAtom("w0", (PosVar(1),)), "=",
                                 ConstAtom(value)))


def parsed_regex(text, paths="pi"):
    q = parse(f"MATCH PATHS ({paths}) SUCH THAT x -pi-> y "
              f"WHERE {text}({paths})")
    return q.query.regular_constraints[0].regex


A, B = unary(1), unary(2)
RPQ_STEPS = ("<hop_a(@1, @1') = 1>", "<hop_b(@1, @1') = 1>")

# besides ROUTE_REGEX's in test_nfa_dump_golden: state 0 is initial and
# state p the p-th letter occurrence from the left; each state is
# (final, its moves as (destination, destination has real moves))
NUMBERING_GOLDEN = {
    "not_equal": (parsed_regex("<w0(@1) != 3> <T>"), [
        "INITIAL 0", "FINAL 3",
        "0 <w0(@1) < 3> 1", "0 <3 < w0(@1)> 2", "1 <0 = 0> 3",
        "2 <0 = 0> 3", "3 BOT 3",
    ], [(False, [(1, True), (2, True)]), (False, [(3, False)]),
        (False, [(3, False)]), (True, [])]),
    "eps_in_concat": (Concat(A, Concat(Epsilon(), B)), [
        "INITIAL 0", "FINAL 2",
        "0 <w0(@1) = 1> 1", "1 <w0(@1) = 2> 2", "2 BOT 2",
    ], [(False, [(1, True)]), (False, [(2, False)]), (True, [])]),
    "eps_in_union": (Concat(Union_(Epsilon(), A), B), [
        "INITIAL 0", "FINAL 2",
        "0 <w0(@1) = 1> 1", "0 <w0(@1) = 2> 2", "1 <w0(@1) = 2> 2",
        "2 BOT 2",
    ], [(False, [(1, True), (2, False)]), (False, [(2, False)]), (True, [])]),
    "star_eps": (Star(Epsilon()), [
        "INITIAL 0", "FINAL 0", "0 BOT 0",
    ], [(True, [])]),
    "star_star": (Star(Star(Concat(A, B))), [
        "INITIAL 0", "FINAL 0", "FINAL 2",
        "0 <w0(@1) = 1> 1", "1 <w0(@1) = 2> 2", "2 <w0(@1) = 1> 1",
        "0 BOT 0", "2 BOT 2",
    ], [(True, [(1, True)]), (False, [(2, True)]), (True, [(1, True)])]),
    "star_union": (Star(Union_(A, B)), [
        "INITIAL 0", "FINAL 0", "FINAL 1", "FINAL 2",
        "0 <w0(@1) = 1> 1", "0 <w0(@1) = 2> 2",
        "1 <w0(@1) = 1> 1", "1 <w0(@1) = 2> 2",
        "2 <w0(@1) = 1> 1", "2 <w0(@1) = 2> 2",
        "0 BOT 0", "1 BOT 1", "2 BOT 2",
    ], [(True, [(1, True), (2, True)]), (True, [(1, True), (2, True)]),
        (True, [(1, True), (2, True)])]),
    "two_path": (parsed_regex("<E(@1, @2) = 1>* <T>", "pi, rho"), [
        "INITIAL 0", "FINAL 2",
        "0 <E(@1, @2) = 1> 1", "0 <0 = 0> 2",
        "1 <E(@1, @2) = 1> 1", "1 <0 = 0> 2", "2 BOT 2",
    ], [(False, [(1, True), (2, False)]), (False, [(1, True), (2, False)]),
        (True, [])]),
    "rpq_union_star": (parsed_regex("({} + {})* <T>".format(*RPQ_STEPS)), [
        "INITIAL 0", "FINAL 3",
        *(f"{s} {letter} {d}" for s in range(3)
          for d, letter in enumerate(RPQ_STEPS + ("<0 = 0>",), 1)),
        "3 BOT 3",
    ], [(False, [(1, True), (2, True), (3, False)])] * 3 + [(True, [])]),
}


@pytest.mark.parametrize("shape", sorted(NUMBERING_GOLDEN))
def test_nfa_numbering_golden(shape):
    regex, dump, moves = NUMBERING_GOLDEN[shape]
    nfa = compile_regex(regex)
    assert nfa.dump() == "\n".join(dump)
    assert [(s in nfa.final, [(dst, live) for _, dst, live in real])
            for s, real in enumerate(nfa.moves)] == moves


def assert_distinct_destinations(nfa):
    # a position automaton enters state q only on q's own letter, so the
    # moves out of one state never share a destination: the product step
    # relies on this to emit each successor once without a dedupe
    for s, real in enumerate(nfa.moves):
        dsts = [dst for _, dst, _ in real]
        assert len(set(dsts)) == len(dsts), (s, dsts)


def test_nfa_matches_language_semantics_randomized():
    # the compiled NFA and the inductive language definition must agree
    rng = random.Random(20260810)
    mismatches = 0
    for trial in range(100):
        g = rand_graph(rng, max_nodes=4, n_unary=1)
        k = rng.choice([1, 1, 2])
        regex = rand_regex(rng, k, ["w0"], depth=3)
        nfa = compile_regex(regex)
        assert len(nfa.moves) == 1 + occurrences(regex)
        assert_distinct_destinations(nfa)
        reals = list(g.real_nodes)
        for _ in range(30):
            paths = [
                tuple(rng.choice(reals)
                      for _ in range(rng.randint(0, 5)))
                for _ in range(k)
            ]
            got = match_paths(g, nfa, paths)
            want = match_paths_language(g, regex, paths)
            if got != want:
                mismatches += 1
    assert mismatches == 0


def rand_eps_regex(rng, k, depth):
    """A regex in the shapes `rand_regex` never builds: epsilon leaves,
    Star(eps), Star(Star(r)), and epsilon under a concat or a union."""
    if depth <= 0 or rng.random() < 0.2:
        leaf = rng.random()
        if leaf < 0.25:
            return Epsilon()
        if leaf < 0.4:
            return Star(Epsilon())
        return rand_regex(rng, k, ["w0"], depth=0)
    shape = rng.choice(["concat", "union", "star", "star_star"])
    if shape.startswith("star"):
        body = Star(rand_eps_regex(rng, k, depth - 1))
        return Star(body) if shape == "star_star" else body
    make = Concat if shape == "concat" else Union_
    return make(rand_eps_regex(rng, k, depth - 1),
                rand_eps_regex(rng, k, depth - 1))


def test_nfa_matches_language_semantics_epsilon_shapes():
    # the oracle compiles with the same `compile_regex`, so only the
    # inductive language definition can see a fault in the construction
    rng = random.Random(20261019)
    for trial in range(120):
        g = rand_graph(rng, max_nodes=4, n_unary=1)
        k = 1 + trial % 2
        regex = rand_eps_regex(rng, k, depth=4)
        nfa = compile_regex(regex)
        assert len(nfa.moves) == 1 + occurrences(regex)
        assert_distinct_destinations(nfa)
        reals = list(g.real_nodes)
        for _ in range(30):
            paths = [tuple(rng.choice(reals) for _ in range(rng.randint(0, 4)))
                     for _ in range(k)]
            want = match_paths_language(g, regex, paths)
            assert match_paths(g, nfa, paths) == want, \
                (regex_text(regex), paths)


def test_language_dp_small_cases(fig2, node):
    s, t, p = node("S"), node("T"), node("P")
    assert match_paths_language(fig2, ROUTE_REGEX, [(s, t, p)])
    assert not match_paths_language(fig2, ROUTE_REGEX, [(s, p)])
    assert regex_matches(fig2, Epsilon(), [])
    assert not regex_matches(fig2, Letter(TRUE_CONSTRAINT), [])


def test_exhaustive_tuple_agreement_small():
    rng = random.Random(7)
    g = rand_graph(rng, max_nodes=3, n_unary=1)
    regex = Concat(Star(Letter(E_LETTER)), Letter(TRUE_CONSTRAINT))
    nfa = compile_regex(regex)
    reals = list(g.real_nodes)
    for p in all_paths(reals, 4):
        assert match_paths(g, nfa, [p]) == \
            match_paths_language(g, regex, [p])

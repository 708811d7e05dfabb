import random
from dataclasses import replace

import pytest

from opra.answer_graph import OMEGA, AnswerGraph
from opra.engine import engine_answers
from opra.extint import ext_add
from opra.graph import SINK, aggregate
from opra.oracle import OracleConfig, enumerate_satisfying
from opra.parser import parse
from opra.query import (
    ArithConstraint, ArithTerm, ConstAtom, Letter, NodeConstraint,
)
from opra.solver import SolveConfig, check_empty, enumerate_answers
from opra.validate import validate

from gensupport import rand_feasible_graph, rand_query, route_constraint

CFG = SolveConfig(b1=8, b2=16)


def route_sp(fig2):
    return validate(parse(
        'def route(p) = <E(@1, @1\') = 1>* <T>\n'
        'MATCH PATHS (pi) SUCH THAT "S" -pi-> "P" WHERE route(pi)'
    ), fig2).query.query


def test_build_and_solve_route(fig2):
    ag = AnswerGraph(fig2, route_sp(fig2))
    res = check_empty(ag, cfg=CFG)
    assert not res.empty
    assert res.paths["pi"] == tuple(fig2.node_id(n) for n in "STP")


def test_unsatisfiable_letter_gives_empty(fig2):
    pra = route_sp(fig2)
    dead = Letter(NodeConstraint(ConstAtom(1), "=", ConstAtom(0)))
    pra = replace(pra, regular_constraints=pra.regular_constraints + (
        type(pra.regular_constraints[0])(dead, ("pi",)),
    ))
    ag = AnswerGraph(fig2, pra)
    assert check_empty(ag, cfg=CFG).empty


def test_bound_path_product(fig2, node):
    pra = route_sp(fig2)
    stp = tuple(node(n) for n in "STP")
    ag = AnswerGraph(fig2, pra, bound_paths={"pi": stp})
    res = check_empty(ag, cfg=CFG)
    assert not res.empty
    assert res.paths["pi"] == stp
    # a non-route bound path cannot be certified
    swp = (node("S"), node("P"))
    assert check_empty(AnswerGraph(fig2, pra, bound_paths={"pi": swp}),
                       cfg=CFG).empty


def test_bound_path_fidelity(fig2, node):
    pra = validate(parse(
        "def route(p) = <E(@1, @1') = 1>* <T>\n"
        "MATCH NODES (s, t), PATHS (pi) SUCH THAT s -pi-> t WHERE route(pi)"
    ), fig2).query.query
    bound = tuple(node(n) for n in ("T", "P", "B"))
    ag = AnswerGraph(fig2, pra, bound_paths={"pi": bound})
    answers, _ = enumerate_answers(ag, max_len=6)
    assert answers
    for _, paths in answers:
        assert paths[0] == bound


def test_successors_from_start(fig2, node):
    ag = AnswerGraph(fig2, route_sp(fig2))
    starts = list(ag.start_states())
    assert len(starts) == 1  # literal endpoints pin the single start
    (st,) = starts
    assert st.pos == OMEGA and st.nodes == (node("S"),)
    succ = ag.successors(st)
    # successors that keep the route alive (non-accepting NFA states)
    # must follow the edge relation: S reaches exactly T and W
    nfa = ag.nfas[0][0]
    via_edge = {s.nodes[0] for s in succ if s.nfa_states[0] not in nfa.final}
    assert via_edge == {node("T"), node("W")}
    # structural bound: at most |V|+1 node choices per component here
    assert len(succ) <= (len(list(fig2.real_nodes)) + 1) * ag.nfas[0][0].n_states


def test_bottom_self_loop_state(fig2):
    # a state where every path has terminated and every NFA accepts
    # keeps itself among its successors via the terminated-letter loops
    ag = AnswerGraph(fig2, route_sp(fig2))
    from opra.answer_graph import AGState

    final = tuple(sorted(nfa.final)[0] for nfa, _ in ag.nfas)
    env = next(iter(ag.start_states())).env
    st = AGState(final, OMEGA, (SINK,), env)
    assert ag.is_target(st)
    assert st in ag.successors(st)


def test_is_target_definition(fig2, node):
    ag = AnswerGraph(fig2, route_sp(fig2))
    for st in ag.start_states():
        assert not ag.is_target(st)  # node component is non-sink
    # assemble a target state by hand: final NFA states, all sink
    final = tuple(sorted(nfa.final)[0] for nfa, _ in ag.nfas)
    from opra.answer_graph import AGState

    st = AGState(final, OMEGA, (SINK,), next(ag.start_states().__iter__()).env)
    assert ag.is_target(st)


def test_weight_vector(fig2, node):
    text = (
        'def route(p) = <E(@1, @1\') = 1>* <T>\n'
        'MATCH PATHS (pi) SUCH THAT "S" -pi-> "P" WHERE route(pi) '
        'HAVING time[pi] <= 360'
    )
    pra = validate(parse(text), fig2).query.query
    ag = AnswerGraph(fig2, pra)
    (start,) = list(ag.start_states())
    at_t = [s for s in ag.successors(start) if s.nodes[0] == node("T")]
    assert all(ag.weight(s) == (10,) for s in at_t)
    assert ag.weight(start) == (10,)  # S also has time 10
    from opra.answer_graph import AGState

    sink_state = AGState(start.nfa_states, OMEGA, (SINK,), start.env)
    assert ag.weight(sink_state) == (0,)


def test_weight_normalized_inequality(fig2, node):
    text = (
        'def route(p) = <E(@1, @1\') = 1>* <T>\n'
        'MATCH PATHS (pi) SUCH THAT "S" -pi-> "P" WHERE route(pi) '
        'HAVING attr[pi] - 4 * time[pi] >= 0'
    )
    pra = validate(parse(text), fig2).query.query
    assert pra.arith_constraints == (ArithConstraint(
        (ArithTerm(-1, "attr", ("pi",)), ArithTerm(4, "time", ("pi",))), 0
    ),)
    ag = AnswerGraph(fig2, pra)
    (start,) = list(ag.start_states())
    at_p = [
        s for s in ag.successors(ag.successors(start)[0])
        if s.nodes[0] == node("P")
    ]
    # -attr(P) + 4*time(P) = -30 + 240; the as-written form is its negation
    assert all(ag.weight(s) == (210,) for s in at_p)


def test_weight_replay_along_paths(fig2):
    # accumulated weights equal the aggregates of the decoded tuple
    text = (
        "def route(p) = <E(@1, @1') = 1>* <T>\n"
        "MATCH NODES (s, t), PATHS (pi) SUCH THAT s -pi-> t WHERE route(pi) "
        "HAVING time[pi] <= 200 AND attr[pi] - 4 * time[pi] >= -999"
    )
    pra = validate(parse(text), fig2).query.query
    ag = AnswerGraph(fig2, pra)
    rng = random.Random(3)
    for st in ag.start_states():
        acc = ag.weight(st)
        chain = [st]
        for _ in range(rng.randint(1, 6)):
            succ = ag.successors(chain[-1])
            if not succ:
                break
            nxt = rng.choice(succ)
            acc = tuple(ext_add(a, w) for a, w in zip(acc, ag.weight(nxt)))
            chain.append(nxt)
        _, paths = ag.decode(chain)
        if any(st.nodes[i] != SINK for i in range(ag.k)
               for st in (chain[-1],)):
            continue  # only fully decoded tuples replay exactly
        want = (
            aggregate(fig2, "time", [paths["pi"]]),
            ext_add(-aggregate(fig2, "attr", [paths["pi"]]),
                    4 * aggregate(fig2, "time", [paths["pi"]])),
        )
        assert acc == want


def test_desk_scale_equivalence_with_oracle():
    # every decoded product tuple equals the oracle's direct semantics,
    # existential components included
    rng = random.Random(42)
    for trial in range(30):
        g = rand_feasible_graph(rng, max_len=3, walk_budget=300,
                                max_nodes=3, n_unary=1)
        q = rand_query(rng, g)
        vq = validate(q, g)
        ag = AnswerGraph(g, vq.query.query)
        got, _ = enumerate_answers(ag, max_len=3, track_all=True,
                                   cfg=SolveConfig(visited_budget=2_000_000))
        want = set()
        for env, paths in enumerate_satisfying(
                g, vq.query.query, OracleConfig(max_path_len=3,
                                                max_paths=2_000_000)):
            nodes = tuple(env[v] for v in vq.query.query.match_nodes)
            want.add((nodes, tuple(paths[v] for v in ag.path_vars)))
        assert got == want, f"trial {trial} diverged"

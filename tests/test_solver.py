import random
from dataclasses import replace

import pytest

from opra.answer_graph import AnswerGraph
from opra.errors import ResourceExceededError
from opra.extint import NEG_INF, POS_INF
from opra.graph import Graph, Labelling, aggregate
from opra.oracle import (
    OracleConfig, enumerate_answers, enumerate_satisfying, oracle_source,
    oracle_two_phase,
)
from opra.parser import parse
from opra.query import (
    ArithConstraint, ArithTerm, ConstAtom, Letter, NodeConstraint,
    RegularConstraint,
)
from opra.solver import (
    MAX, MIN, SolveConfig, check_empty, derive_bounds, extremum,
)
from opra.validate import validate

from gensupport import rand_instance, rand_timed_graph

CFG = SolveConfig(b1=8, b2=16)


def _route_sp(fig2, having=""):
    text = (
        "def route(p) = <E(@1, @1') = 1>* <T>\n"
        'MATCH PATHS (pi) SUCH THAT "S" -pi-> "P" WHERE route(pi)'
        + having
    )
    return validate(parse(text), fig2).query.query


def test_check_empty_sums_witness(fig2):
    pra = _route_sp(fig2, "\nHAVING time[pi] <= 360 AND attr[pi] >= 101")
    res = check_empty(AnswerGraph(fig2, pra), cfg=CFG)
    assert not res.empty
    pi = res.paths["pi"]
    assert aggregate(fig2, "time", [pi]) <= 360
    assert aggregate(fig2, "attr", [pi]) >= 101


def test_check_empty_tight_time_bound(fig2):
    pra = _route_sp(fig2, "\nHAVING time[pi] <= 50")
    assert check_empty(AnswerGraph(fig2, pra), cfg=CFG).empty


def test_no_edges_reachability():
    g = Graph(["a", "b"], [Labelling("E", 2, 0, {})])
    text = ('def route(p) = <E(@1, @1\') = 1>* <T>\n'
            'MATCH PATHS (pi) SUCH THAT "a" -pi-> "b" WHERE route(pi)')
    pra = validate(parse(text), g).query.query
    assert check_empty(AnswerGraph(g, pra), cfg=CFG).empty
    # same endpoints: the single-node path works
    text2 = text.replace('"b"', '"a"')
    pra2 = validate(parse(text2), g).query.query
    assert not check_empty(AnswerGraph(g, pra2), cfg=CFG).empty


def test_extremum_min_time(fig2, node):
    pra = _route_sp(fig2)
    ag = AnswerGraph(fig2, pra, target=("time", ("pi",)))
    res = extremum(ag, MIN, cfg=CFG)
    assert res.value == 80
    assert res.witness["pi"] == tuple(node(n) for n in "STP")
    assert aggregate(fig2, "time", [res.witness["pi"]]) == 80


def test_extremum_max_attr_unbounded(fig2):
    pra = _route_sp(fig2)
    ag = AnswerGraph(fig2, pra, target=("attr", ("pi",)))
    res = extremum(ag, MAX, cfg=CFG)
    assert res.value == POS_INF
    assert res.witness is None


def test_extremum_empty_set_conventions(fig2):
    pra = _route_sp(fig2)
    dead = RegularConstraint(
        Letter(NodeConstraint(ConstAtom(1), "=", ConstAtom(0))), ("pi",)
    )
    pra = replace(pra, regular_constraints=pra.regular_constraints + (dead,))
    ag = AnswerGraph(fig2, pra, target=("time", ("pi",)))
    assert extremum(ag, MIN, cfg=CFG).value == POS_INF
    assert extremum(ag, MAX, cfg=CFG).value == NEG_INF


def test_consistency_coupling(fig2):
    # a finite minimum v is certified by emptiness at v and v-1
    pra = _route_sp(fig2)
    ag = AnswerGraph(fig2, pra, target=("time", ("pi",)))
    v = extremum(ag, MIN, cfg=CFG).value
    with_target = lambda bound: replace(pra, arith_constraints=(
        ArithConstraint((ArithTerm(1, "time", ("pi",)),), bound),
    ))
    assert not check_empty(AnswerGraph(fig2, with_target(v)), cfg=CFG).empty
    assert check_empty(AnswerGraph(fig2, with_target(v - 1)), cfg=CFG).empty


def test_budget_exhaustion_raises(fig2):
    pra = _route_sp(fig2)
    with pytest.raises(ResourceExceededError) as err:
        check_empty(AnswerGraph(fig2, pra), cfg=SolveConfig(b1=8, b2=16,
                                                      visited_budget=3))
    assert err.value.expanded <= 4


def test_default_bounds_shape(fig2):
    pra = _route_sp(fig2, "\nHAVING time[pi] <= 360")
    ag = AnswerGraph(fig2, pra)
    b1, b2 = derive_bounds(ag, SolveConfig())
    assert 0 < b1 < b2 == 2 * b1
    with pytest.raises(ValueError):
        derive_bounds(ag, SolveConfig(b1=5, b2=5))


def test_oracle_agreement_randomized():
    # emptiness and extrema match brute force on random instances
    rng = random.Random(90125)
    b1, b2 = 5, 10
    for trial in range(25):
        g, q = rand_instance(rng, max_len=b2, joint_budget=40_000,
                             free_path_p=0.0, max_nodes=4, n_unary=1)
        vq = validate(q, g)
        pra = vq.query.query
        cfg = SolveConfig(b1=b1, b2=b2, visited_budget=2_000_000)
        ocfg = OracleConfig(max_path_len=b2, max_paths=5_000_000)

        res = check_empty(AnswerGraph(g, pra), cfg=cfg)
        oracle_empty = not enumerate_answers(g, vq, ocfg)
        assert res.empty == oracle_empty, f"trial {trial} emptiness"
        if not res.empty:
            # the witness, node variables included, is a real assignment
            assert (res.env, res.paths) in enumerate_satisfying(
                oracle_source(g, vq, ocfg), pra, ocfg), f"trial {trial}"

        target_var = pra.regular_constraints[0].path_vars[0]
        ag = AnswerGraph(g, pra, target=("w0", (target_var,)))
        for mode in (MIN, MAX):
            got = extremum(ag, mode, cfg=cfg).value
            want = oracle_two_phase(g, vq, ("w0", (target_var,)), mode,
                                    b1, b2, max_paths=5_000_000)
            assert got == want, f"trial {trial} {mode}"


def test_free_endpoints_stop_at_first_target():
    # every one-hop route fits the bound: the search expands the n start
    # states, then the first one-hop state, whose step to the sink is
    # the witness (4 n^2 expansions when every (s, t) pair started)
    n = 20
    g = rand_timed_graph(random.Random(1), n=n, degree=3)
    pra = validate(parse(
        "MATCH NODES (s, t) SUCH THAT s -pi-> t\n"
        "WHERE <E(@1, @1') = 1> <E(@1, @1') = 1>* <T>(pi)\n"
        "HAVING time[pi] <= 20"), g).query.query
    res = check_empty(AnswerGraph(g, pra), cfg=SolveConfig(b1=40, b2=80))
    assert not res.empty
    assert res.stats.expanded <= n + 1


def test_extremum_witness_replays_value(fig2):
    rng = random.Random(11)
    for _ in range(15):
        g, q = rand_instance(rng, max_len=8, joint_budget=40_000,
                             free_path_p=0.0, max_nodes=4, n_unary=1)
        pra = validate(q, g).query.query
        target_var = pra.regular_constraints[0].path_vars[0]
        ag = AnswerGraph(g, pra, target=("w0", (target_var,)))
        res = extremum(ag, MIN, cfg=SolveConfig(b1=4, b2=8,
                                                visited_budget=2_000_000))
        if res.witness is None:
            continue
        assert aggregate(g, "w0", [res.witness[target_var]]) == res.value

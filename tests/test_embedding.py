import itertools
import random

import pytest

from opra.answer_graph import AnswerGraph
from opra.embedding import (
    DataGraph, WeightedAutomaton, build_automaton_graph, data_graph_from_dict,
    embed, embed_path, symbol_node,
)
from opra.errors import GraphLoadError, NameCollisionError
from opra.extint import NEG_INF
from opra.oracle import OracleConfig, brute_extremum
from opra.parser import parse
from opra.solver import MIN, SolveConfig, extremum
from opra.validate import validate

from gensupport import (
    BAD_DATA_GRAPHS, RUN_QUERY, automaton_graph_has_pumpable_negative_cycle,
    rand_dag_automaton,
)


def test_embed_single_node():
    dg = DataGraph(("v",), ("a",), (), {"v": (7,)})
    g = embed(dg)
    assert set(g.node_names[1:]) == {"v", "sigma:a"}
    assert g.label_value("lab1", (g.node_id("v"),)) == 7
    assert g.label_value("lab1", (g.node_id("sigma:a"),)) == 0


def test_embed_edge_triple():
    dg = DataGraph(("u", "w"), ("a",), (("u", "a", "w"),), {"u": (1,)})
    g = embed(dg)
    triple = (g.node_id("u"), g.node_id("sigma:a"), g.node_id("w"))
    assert g.label_value("E3", triple) == 1
    assert g.label_value("E3", (triple[0], triple[0], triple[2])) == 0


def test_embed_name_collision():
    dg = DataGraph(("sigma:a",), ("a",), (), {})
    with pytest.raises(NameCollisionError):
        embed(dg)


def test_embed_reserved_sink_name():
    dg = data_graph_from_dict({"nodes": ["<sink>"], "alphabet": [],
                               "edges": []})
    with pytest.raises(NameCollisionError,
                       match="^node name '<sink>' is reserved for the sink$"):
        embed(dg)


def test_embed_path_correspondence():
    rng = random.Random(99)
    for _ in range(20):
        nodes = tuple(f"v{i}" for i in range(rng.randint(1, 4)))
        alphabet = ("a", "b")
        edges = tuple(
            (u, rng.choice(alphabet), w)
            for u in nodes for w in nodes if rng.random() < 0.4
        )
        dg = DataGraph(nodes, alphabet, edges, {})
        g = embed(dg)
        # every data path maps to the unique interleaved embedded sequence
        for u, a, w in edges:
            seq = embed_path(dg, (u, w), (a,))
            assert seq == (u, symbol_node(a), w)
            ids = tuple(g.node_id(n) for n in seq)
            assert g.label_value("E3", ids) == 1


def test_embed_rejects_bad_data():
    with pytest.raises(GraphLoadError):
        DataGraph(("u",), ("a",), (("u", "a", "z"),), {})
    with pytest.raises(GraphLoadError):
        DataGraph(("u",), ("a",), (("u", "c", "u"),), {})
    for data in BAD_DATA_GRAPHS.values():
        with pytest.raises(GraphLoadError):
            data_graph_from_dict(data)


def test_embed_path_needs_one_more_node_than_symbols():
    dg = DataGraph(("u", "v"), ("a",), (("u", "a", "v"),), {})
    for nodes, symbols in ((("u", "v"), ()), (("u",), ("a",))):
        with pytest.raises(ValueError, match="one more node than edge"):
            embed_path(dg, nodes, symbols)


@pytest.mark.parametrize("transition, message", [
    (("q0", "a", 2, "q1"), "transition weights must be -1, 0 or 1"),
    (("q0", "a", 1, "q9"), "transition uses unknown state"),
    (("q9", "a", -1, "q0"), "transition uses unknown state"),
], ids=["weight", "dst", "src"])
def test_automaton_rejects_bad_transition(transition, message):
    with pytest.raises(GraphLoadError, match=f"^{message}$"):
        WeightedAutomaton(("q0", "q1"), ("q0",), ("q1",), (transition,))


def test_automaton_graph_single_transition():
    wa = WeightedAutomaton(("q0", "q1"), ("q0",), ("q1",),
                           (("q0", "a", -1, "q1"),))
    g = build_automaton_graph(wa)
    t0 = (g.node_id("t0"),)
    assert g.label_value("weight", t0) == -1
    assert g.label_value("letter", t0) == 1
    assert g.label_value("initial", t0) == 1
    assert g.label_value("final", t0) == 1
    assert g.label_value("E", (t0[0], t0[0])) == 0


def test_automaton_graph_chained_transitions():
    wa = WeightedAutomaton(
        ("q0", "q1", "q2"), ("q0",), ("q2",),
        (("q0", "a", 0, "q1"), ("q1", "b", 1, "q2")),
    )
    g = build_automaton_graph(wa)
    first = g.node_id("t0")
    second = g.node_id("t1")
    assert g.label_value("E", (first, second)) == 1
    assert g.label_value("E", (second, first)) == 0


def test_negative_loop_gives_unbounded_minimum():
    # a 2-state automaton with a -1 loop on an accepting run
    wa = WeightedAutomaton(
        ("q0", "q1"), ("q0",), ("q1",),
        (("q0", "a", -1, "q0"), ("q0", "a", 0, "q1")),
    )
    g = build_automaton_graph(wa)
    assert automaton_graph_has_pumpable_negative_cycle(g)
    pra = validate(parse(RUN_QUERY), g).query.query
    ag = AnswerGraph(g, pra, target=("weight", ("pi",)))
    res = extremum(ag, MIN, cfg=SolveConfig(b1=24, b2=144))
    assert res.value == NEG_INF


def test_dag_automaton_matches_oracle_minimum():
    rng = random.Random(4242)
    for _ in range(10):
        wa = rand_dag_automaton(rng)
        g = build_automaton_graph(wa)
        assert not automaton_graph_has_pumpable_negative_cycle(g)
        vq = validate(parse(RUN_QUERY), g)
        pra = vq.query.query
        ag = AnswerGraph(g, pra, target=("weight", ("pi",)))
        got = extremum(ag, MIN, cfg=SolveConfig(b1=24, b2=48)).value
        want = brute_extremum(g, vq, ("weight", ("pi",)), "min",
                              OracleConfig(max_path_len=12))
        assert got == want


# -- se-equivalence: queries over the embedding answer like the data graph ------

def test_se_equivalence_randomized():
    from gensupport import (
        RPQ_SHAPES, data_rpq_answers, rand_data_graph, rpq_query_text,
    )

    rng = random.Random(777)
    letters = ("a", "b")
    for checked in range(25):
        dg = rand_data_graph(rng, letters)
        g = embed(dg)
        shape = RPQ_SHAPES[checked % len(RPQ_SHAPES)]
        vq = validate(parse(rpq_query_text(shape, letters)), g)
        from opra.engine import engine_answers

        got_raw = engine_answers(
            g, vq, max_len=5, cfg=SolveConfig(visited_budget=2_000_000)
        )
        got = {
            (g.node_name(ns[0]), g.node_name(ns[1])) for ns, _ in got_raw
        }
        want = data_rpq_answers(dg, shape, letters, max_edges=4)
        assert got == want, f"shape {shape} diverged"

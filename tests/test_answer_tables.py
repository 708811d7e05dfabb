"""Nested terms answered set-at-a-time.

A view answers a nested indicator or path extremum whose query has a
lazy target among its free node variables from one search per value of
its eager ones (`solver.answer_table`).  These tests hold that path to
the per-tuple one, forced by patching, and to the oracle.
"""

import itertools
import random

import pytest

import opra.answer_graph
import opra.ontology
from opra.answer_graph import AnswerGraph
from opra.corpus import CORPUS_CONFIG, QUERY_NAMES, load_query
from opra.embedding import embed
from opra.errors import OpraError
from opra.extint import NEG_INF, POS_INF
from opra.graph import Graph, Labelling
from opra.oracle import OracleConfig, OracleView
from opra.parser import parse
from opra.query import IndicatorTerm, PathExtremumTerm
from opra.solver import SolveConfig, answer_table, check_empty, extremum
from opra.validate import validate

from gensupport import RPQ_SHAPES, rand_data_graph, rpq_query_text

REACH = ("def route(p) = <E(@1, @1') = 1>* <T>\n"
         "LET reach(x, y) := [ MATCH NODES (x, y) SUCH THAT x -r-> y "
         "WHERE route(r) ] IN MATCH NODES (s)")


def _outcome(run):
    try:
        return run()
    except OpraError as e:
        return type(e), str(e)


def _nested(ontology):
    return [e for e in ontology
            if isinstance(e.term, (IndicatorTerm, PathExtremumTerm))]


def _cases(fig2):
    """(graph, validated query, solve config): the fig2 corpus, fig2's
    reach at a budget that every set search exceeds while every per-tuple
    search fits, and the five RPQ shapes on random data graphs."""
    cases = [(fig2, load_query(name, fig2), CORPUS_CONFIG)
             for name in QUERY_NAMES
             if _nested(load_query(name, fig2).query.ontology)]
    cases.append((fig2, validate(parse(REACH), fig2),
                  SolveConfig(b1=8, b2=16, visited_budget=8)))
    rng = random.Random(22)
    for shape in RPQ_SHAPES:
        g = embed(rand_data_graph(rng, max_nodes=6))
        cases.append((g, validate(parse(rpq_query_text(shape, ("a", "b"))),
                                  g), SolveConfig()))
    return cases


def _lookups(g, vq, cfg):
    """Every nested entry's outcome on every tuple of real nodes, all
    looked up on one view."""
    view = opra.ontology.extend(g, vq, cfg)
    return {(e.name, key): _outcome(lambda: view.label_value(e.name, key))
            for e in _nested(vq.query.ontology)
            for key in itertools.product(g.real_nodes,
                                         repeat=len(e.params))}


def test_set_answers_equal_per_tuple_answers(fig2, monkeypatch):
    # values and typed errors, tuple by tuple, with and without tables
    cases = _cases(fig2)
    made = []
    inner = opra.ontology.answer_table

    def spy(ag, mode, cfg):
        made.append(ag.plan.pra)
        try:
            table = inner(ag, mode, cfg)
        except OpraError:
            made[-1] = None
            raise
        return table

    monkeypatch.setattr(opra.ontology, "answer_table", spy)
    with_tables = [_lookups(*case) for case in cases]
    monkeypatch.setattr(opra.ontology, "answer_table",
                        lambda ag, mode, cfg: None)
    per_tuple = [_lookups(*case) for case in cases]
    assert with_tables == per_tuple
    # path_lengths' min and max over (s, t), reach, is_a and is_b made
    # tables; reach's five set searches ran out of budget, once per source,
    # and its 25 lookups answered as the per-tuple searches do
    assert made.count(None) == 5
    assert len(made) == 2 * 5 + 5 + 2 * len(RPQ_SHAPES)
    reach = with_tables[-1 - len(RPQ_SHAPES)]
    assert set(reach.values()) == {1} and len(reach) == 25
    values = {v for lookups in with_tables for v in lookups.values()}
    assert {0, 1, POS_INF} <= values


def test_no_plan_is_built_for_a_table_that_does_not_apply(fig2, monkeypatch):
    # path_lengths' extrema under derived bounds pump per search, so no
    # table applies: the view decides that from the query and builds only
    # the per-tuple plan, compiling its one regex once
    compiled = []
    compile_regex = opra.answer_graph.compile_regex

    def counting(regex):
        compiled.append(regex)
        return compile_regex(regex)

    monkeypatch.setattr(opra.answer_graph, "compile_regex", counting)
    view = opra.ontology.extend(fig2, load_query("path_lengths", fig2),
                                SolveConfig(visited_budget=20000))
    for key in itertools.product(fig2.real_nodes, repeat=2):
        view.label_value("_aux0", key)
    assert len(compiled) == 1
    assert len(view._plans) == 1


def test_answer_table_is_the_per_tuple_rule():
    # a -> c is the short path; a -> b -> d -> c, beyond b1 = 2, has the
    # same time and a lower w, so both are admitted: an equal value beyond
    # b1 is not a better one, while a lower one is.  A graph per time(d),
    # as stored labellings do not change after load
    def graph(time_d):
        return Graph(list("abcd"), [
            Labelling("E", 2, 0,
                      {(1, 3): 1, (1, 2): 1, (2, 4): 1, (4, 3): 1}),
            Labelling("time", 1, 0, {(1,): 1, (3,): 1, (4,): time_d}),
            Labelling("w", 1, 0, {(2,): -1, (4,): -1})])

    text = (
        "def route(p) = <E(@1, @1') = 1>* <T>\n"
        "LET f(x, y) := min[time, p]{ MATCH NODES (x, y), PATHS (p) "
        "SUCH THAT x -p-> y WHERE route(p) HAVING w[p] <= 0 },\n"
        "    r(x, y) := [ MATCH NODES (x, y) SUCH THAT x -p-> y "
        "WHERE route(p) HAVING w[p] <= -1 ],\n"
        "    n(x, y) := [ MATCH NODES (x, y) SUCH THAT x -p-> y "
        "WHERE route(p) HAVING time[p] <= 1 ] IN MATCH NODES (s)")

    def cases(g):
        f, r, n = (e.term for e in validate(parse(text), g).query.ontology)
        return ((f, "min"), (f, "max"), (r, None), (n, None))

    def table(g, term, mode, cfg):
        target = None if mode is None else ("time", ("p",))
        return answer_table(AnswerGraph(g, term.query, {}, {"x": 1}, target),
                            mode, cfg)

    cfg = SolveConfig(b1=2, b2=8)
    to_c = {}
    for time in (0, -1):
        g = graph(time)
        for term, mode in cases(g):
            got = table(g, term, mode, cfg)
            values = [got.values.get((y,), got.default)
                      for y in g.real_nodes]
            target = None if mode is None else ("time", ("p",))
            ags = [AnswerGraph(g, term.query, {}, {"x": 1, "y": y}, target)
                   for y in g.real_nodes]
            if mode is None:
                assert values == [int(not check_empty(ag, cfg).empty)
                                  for ag in ags]
            else:
                assert values == [extremum(ag, mode, cfg).value
                                  for ag in ags]
            assert got.stats.expanded > 0
            to_c[time, mode] = values[2]
    # with time(d) = -1 the long path to c beats the short one: unbounded
    assert (to_c[0, "min"], to_c[-1, "min"]) == (2, NEG_INF)
    assert to_c[0, "max"] == to_c[-1, "max"] == 2
    # under derived bounds only the indicator whose rows are monotone has
    # a table: an extremum pumps per search, and a row that w lowers
    # leaves the frontier free to grow
    g = graph(0)
    derived = SolveConfig()
    assert [table(g, term, mode, derived) is None
            for term, mode in cases(g)] == [True, True, True, False]


def test_no_value_depends_on_the_first_tuple_asked(fig2):
    # a view asked any one tuple first gives every tuple the value of a
    # fresh view asked that tuple alone
    text = ("def route(p) = <E(@1, @1') = 1>* <T>\n"
            "LET lo(x, y) := min[time, r]{ MATCH NODES (x, y), PATHS (r) "
            "SUCH THAT x -r-> y WHERE route(r) HAVING attr[r] <= 150 },\n"
            "    near(x, y) := [ MATCH NODES (x, y) SUCH THAT x -r-> y "
            "WHERE route(r) HAVING time[r] <= 60 ] IN MATCH NODES (s)")
    vq = validate(parse(text), fig2)
    keys = list(itertools.product(fig2.real_nodes, repeat=2))
    for name in ("lo", "near"):
        fresh = {key: opra.ontology.extend(fig2, vq, CORPUS_CONFIG)
                 .label_value(name, key) for key in keys}
        assert len(set(fresh.values())) > 1
        for first in keys:
            view = opra.ontology.extend(fig2, vq, CORPUS_CONFIG)
            order = [first] + [k for k in keys if k != first]
            assert {k: view.label_value(name, k) for k in order} == fresh


# -- engine against oracle on random graphs ------------------------------------

LAZY_TEXT = """def route(p) = <E(@1, @1') = 1>* <T>
LET r(x, y) := [ MATCH NODES (x, y) SUCH THAT x -p-> y
                 WHERE route(p) AND {regex}(p) {having} ],
    lo(x, y) := min[time, p]{{ MATCH NODES (x, y), PATHS (p)
                               SUCH THAT x -p-> y
                               WHERE route(p) AND {regex}(p) {having} }},
    hi(x, y) := max[time, p]{{ MATCH NODES (x, y), PATHS (p)
                               SUCH THAT x -p-> y
                               WHERE route(p) AND {regex}(p) {having} }}
IN MATCH NODES (s)"""
LETTERS = ("<u(@1) = 1>", "<u(@1) = 0>", "<time(@1) <= 2>", "<w(@1) < 0>",
           "<T>")
# monotone rows first: time is never negative, w takes both signs
ROWS = ("", "HAVING time[p] <= {k}", "HAVING time[p] <= {k} AND u[p] <= 1",
        "HAVING w[p] <= {k}", "HAVING w[p] >= {k}",
        "HAVING time[p] >= {k}")


def _rand_lazy_graph(rng, dag: bool) -> Graph:
    """4-6 nodes with random E edges, only from lower to higher nodes when
    `dag`, time in 0..3, w in -2..2 and u in 0..1."""
    n = rng.randint(4, 6)
    edges = {(i, j): 1 for i in range(1, n + 1) for j in range(1, n + 1)
             if (i < j or not dag) and rng.random() < 0.35}

    def unary(lo, hi):
        return {(i,): rng.randint(lo, hi) for i in range(1, n + 1)}

    return Graph([f"n{i}" for i in range(n)], [
        Labelling("E", 2, 0, edges), Labelling("time", 1, 0, unary(0, 3)),
        Labelling("w", 1, 0, unary(-2, 2)), Labelling("u", 1, 0, unary(0, 1))])


def _rand_regex(rng) -> str:
    a, b = rng.sample(LETTERS, 2)
    return rng.choice([f"<T>* {a} <T>*", f"({a} + {b})* <T>",
                       f"{a} <T>*", "<T>*"])


def _two_phase(short, long_, mode):
    if mode == "min":
        return NEG_INF if long_ < short else short
    return POS_INF if long_ > short else short


@pytest.mark.parametrize("dag", [False, True], ids=["pinned", "derived"])
def test_lazy_targets_engine_vs_oracle(dag):
    # r, lo and hi at every (x, y): under pinned bounds on cyclic graphs
    # against the oracle's two-bound protocol, and under derived bounds on
    # acyclic graphs, where paths of at most n nodes are all there are
    rng = random.Random(2210 + dag)
    kinds = set()
    for _ in range(8):
        g = _rand_lazy_graph(rng, dag)
        having = rng.choice(ROWS).format(k=rng.randint(-2, 6))
        vq = validate(parse(LAZY_TEXT.format(regex=_rand_regex(rng),
                                             having=having)), g)
        entries = vq.query.ontology
        n = len(g.real_nodes)
        if dag:
            engine = opra.ontology.extend(g, vq, SolveConfig())
            short = long_ = OracleView(g, entries,
                                       OracleConfig(max_path_len=n))
        else:
            engine = opra.ontology.extend(g, vq, SolveConfig(b1=3, b2=5))
            short = OracleView(g, entries, OracleConfig(max_path_len=3))
            long_ = OracleView(g, entries, OracleConfig(max_path_len=5))
        for key in itertools.product(g.real_nodes, repeat=2):
            for name, mode in (("r", None), ("lo", "min"), ("hi", "max")):
                try:
                    got = engine.label_value(name, key)
                except OpraError:
                    kinds.add("error")
                    continue
                if mode is None:
                    want = long_.label_value(name, key)
                else:
                    want = _two_phase(short.label_value(name, key),
                                      long_.label_value(name, key), mode)
                assert got == want, (having, name, key)
                kinds.add(got if got in (0, 1, POS_INF, NEG_INF)
                          else "finite")
    assert {0, 1, POS_INF, NEG_INF, "finite"} <= kinds

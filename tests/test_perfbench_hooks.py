"""The benchmark's tracer must still find every layer boundary it wraps.

`perfbench/tracer.py` patches functions and methods of `opra` by name;
a rename or a moved call site would make it fail to install or leave a
per-layer counter at zero.  This runs one small operation of each kind
under the tracer, as the benchmark's traced runs do.
"""

import opra.engine
import opra.ontology
from opra import solver
from opra.corpus import CORPUS_CONFIG, fixture_graph, load_query
from opra.engine import engine_answers, evaluate, evaluate_extremum
from opra.ontology import extend

from gensupport import load_perfbench

def test_tracer_counts_every_layer():
    g = fixture_graph()
    route = load_query("q_route_sp", g)
    nested = load_query("processed_labellings", g)
    tr = load_perfbench("tracer").Tracer()
    tr.install()
    try:
        assert not evaluate(g, route, CORPUS_CONFIG).empty
        res = evaluate_extremum(g, route, "time", "min", CORPUS_CONFIG)
        assert res.value == 80
        assert engine_answers(g, route, max_len=4, cfg=CORPUS_CONFIG)
        view = extend(g, nested.query.ontology, solve_config=CORPUS_CONFIG)
        assert view.label_value("t_walk", (g.node_id("W"),)) == 100
    finally:
        tr.uninstall()
    for counter in ("solver.enqueued", "automata.letter_evals",
                    "answer_graph.successor_calls", "ontology.lookups"):
        assert tr.count(counter) > 0, counter
    assert opra.engine.check_empty is solver.check_empty
    assert opra.ontology.check_empty is solver.check_empty


def test_tracer_counts_one_start_state_per_source():
    # free (s, t): t is bound when the path ends, so one start per s
    g = fixture_graph()
    tr = load_perfbench("tracer").Tracer()
    tr.install()
    try:
        res = evaluate(g, "def route(p) = <E(@1, @1') = 1>* <T>\n"
                       "MATCH NODES (s, t) SUCH THAT s -pi-> t "
                       "WHERE route(pi)", CORPUS_CONFIG)
    finally:
        tr.uninstall()
    assert not res.empty
    assert tr.count("answer_graph.start_states") == len(g.real_nodes)


def test_automaton_extrema_round_answers_every_operation():
    # the round includes the two unbounded extrema under default bounds
    # (MIN over a pumpable automaton, MAX attr over fig2's q_route_sp)
    # that the benchmark marks as known faults
    case = load_perfbench("workloads").WORKLOADS["automaton_extrema"](1)
    for op in case.ops(case.setup()):
        assert op.check(op.run()), op.name


def _traced_round(workload: str):
    """The tracer after seed 1's round of `workload`, every operation
    checked."""
    case = load_perfbench("workloads").WORKLOADS[workload](1)
    ops = case.ops(case.setup())
    tr = load_perfbench("tracer").Tracer()
    tr.install()
    try:
        for op in ops:
            assert op.check(op.run()), op.name
    finally:
        tr.uninstall()
    return tr


def test_route_fixed_round_keeps_its_search():
    # the expanded and enqueued counts of seed 1's route_fixed round pin
    # its search: memoised successors save successor calls, never a
    # configuration; the stored E letter is decided by its index, so the
    # round evaluates 18 letters where testing each candidate made 5 253.
    # The MIN target is the one-term HAVING row time[pi], whose value it
    # takes, and a search weighs each node tuple once, so the round makes
    # 1 740 weight calls (5 235 at one per weighed state)
    tr = _traced_round("route_fixed")
    assert tr.count("solver.expanded") == 2801
    assert tr.count("solver.enqueued") == 2832
    assert tr.count("automata.letter_evals") <= 18
    assert tr.count("answer_graph.weight_calls") <= 1740


def test_route_free_round_keeps_its_search():
    # seed 1's route_free round: the search memo is keyed on the state,
    # which holds only what successors reads, so free sources share their
    # successor work, 312 calls where a key per (state, source) makes 938,
    # with the same search; index-decided E letters leave 98 evaluations
    # of 1 162, and weighing each node tuple once per search 180 weight
    # calls of 1 092.  Emptiness and extremum searches key dominance on
    # the state alone, since no step, target test or weight reads the
    # source s, so they enqueue 1 294 configurations where keying on
    # (state, s) enqueued 1 468; enumeration reports s and keeps it in
    # its key
    tr = _traced_round("route_free")
    assert tr.count("solver.expanded") == 1062
    assert tr.count("solver.enqueued") == 1294
    assert tr.count("answer_graph.successor_calls") <= 312
    assert tr.count("automata.letter_evals") <= 98
    assert tr.count("answer_graph.weight_calls") <= 180


def test_automaton_extrema_round_keeps_its_search():
    # seed 1's automaton_extrema round, pumping searches included.  No
    # state is made in which an NFA whose paths have all ended sits in a
    # state that is not final, start states included: the search admitted
    # 668 such states (2 891/2 996 expanded/enqueued, 322 start states).
    # Weighing each node tuple once per search leaves 339 weight calls
    tr = _traced_round("automaton_extrema")
    assert tr.count("solver.expanded") == 2241
    assert tr.count("solver.enqueued") == 2328
    assert tr.count("answer_graph.start_states") == 291
    assert tr.count("answer_graph.weight_calls") <= 339


def test_ontology_nested_round_keeps_its_search():
    # seed 1's ontology_nested round: each nested query is compiled once
    # per view, so the round compiles only 127 NFAs (531 when every
    # product compiled its own).  A nested term with a lazy target is
    # answered by one set search per view and eager values, 60 of them,
    # which the tracer sees only as products and successor calls: 107
    # products where one per nested evaluation made 487, and 1 219
    # successor calls where per-tuple solves made 1 749.  The 10 solves
    # left (crowded) enqueue 2 235 states with the top-level ones, 30
    # fewer than when states with an NFA ended in a state that is not
    # final were made, and the calls fall to 1 209.  They expand 1 632:
    # an enumeration that tracks no path and weighs nothing expands a
    # state once per level for all the free sources that reach it, where
    # one expansion per (state, source) made 2 036.
    # Lookups and memo hits pin how label_value reaches eval_term: the
    # tracer counts a lookup that calls it as a miss.  Each search weighs
    # a node tuple once: 527 weight calls
    tr = _traced_round("ontology_nested")
    assert tr.count("solver.expanded") == 1632
    assert tr.count("solver.enqueued") == 2235
    assert tr.count("ontology.lookups") == 2062
    assert tr.count("ontology.memo_hits") == 986
    totals = tr.totals()
    assert totals["automata.compile_regex"]["n"] == 127
    assert totals["answer_graph.build"]["n"] == 107
    assert tr.count("answer_graph.successor_calls") <= 1209
    assert tr.count("answer_graph.weight_calls") <= 527

import importlib
import itertools
import random
from dataclasses import replace

import pytest

import opra.answer_graph
import opra.ontology

from opra.embedding import data_graph_from_dict, embed
from opra.answer_graph import AnswerGraph
from opra.engine import engine_answers, evaluate, prepare
from opra.errors import (
    ArityMismatchError, ForwardOntologyReferenceError, IndeterminateSumError,
    OpraError, RecursionDepthExceededError, UnknownLabellingError,
)
from opra.extint import NEG_INF, POS_INF
from opra.graph import SINK, Graph, Labelling
from opra.ontology import ExtendedGraph, eval_fundamental, eval_term, extend
from opra.oracle import (
    OracleConfig, OracleView, enumerate_answers, oracle_eval_term,
)
from opra.parser import parse
from opra.query import (
    AggTerm, ApplyTerm, ConstTerm, IndicatorTerm, LabelTerm, OntologyEntry,
    PathExtremumTerm, VarEqTerm,
)
from opra.solver import SolveConfig, check_empty, extremum
from opra.validate import MAX_EVAL_DEPTH, definition_heights, validate

from gensupport import rand_instance

CFG = SolveConfig(b1=8, b2=16)


def entry_term(fig2, text, name):
    q = validate(parse(text), fig2).query
    return {e.name: e for e in q.ontology}[name].term


# -- fundamental functions ---------------------------------------------------

def test_aggregates_any_arity():
    assert eval_fundamental("Sum", [3, -1, 4]) == 6
    assert eval_fundamental("Count", [7, 7, NEG_INF]) == 3
    assert eval_fundamental("Max", [1, POS_INF]) == POS_INF
    assert eval_fundamental("Min", [4, -2, 9]) == -2


def test_empty_aggregates():
    assert eval_fundamental("Max", []) == NEG_INF
    assert eval_fundamental("Min", []) == POS_INF
    assert eval_fundamental("Sum", []) == 0
    assert eval_fundamental("Count", []) == 0


def test_binary_functions_wrong_arity_is_zero():
    assert eval_fundamental("+", [3, 4, 5]) == 0
    assert eval_fundamental("*", [3]) == 0
    assert eval_fundamental("-", []) == 0
    assert eval_fundamental("<=", [1, 2, 3]) == 0


def test_binary_functions():
    assert eval_fundamental("+", [3, 4]) == 7
    assert eval_fundamental("-", [3, 4]) == -1
    assert eval_fundamental("*", [-3, 4]) == -12
    assert eval_fundamental("<=", [3, 3]) == 1
    assert eval_fundamental("<=", [4, 3]) == 0
    assert eval_fundamental("-", [POS_INF, NEG_INF]) == POS_INF


def test_aggregate_permutation_invariance():
    rng = random.Random(5)
    for func in ("Max", "Min", "Count", "Sum"):
        args = [rng.randint(-9, 9) for _ in range(6)]
        want = eval_fundamental(func, args)
        for _ in range(50):
            rng.shuffle(args)
            assert eval_fundamental(func, args) == want


# -- the term constructors, rule by rule ----------------------------------------

def test_rule_constants(fig2):
    eg = extend(fig2, solve_config=CFG)
    assert eval_term(eg, ConstTerm(0), {}) == 0
    assert eval_term(eg, ConstTerm(-7), {}) == -7
    assert eval_term(eg, ConstTerm(360), {}) == 360


def test_rule_labelling_lookup(fig2, node):
    eg = extend(fig2, solve_config=CFG)
    assert eval_term(eg, LabelTerm("time", ("x",)), {"x": node("W")}) == 100
    assert eval_term(eg, LabelTerm("attr", ("x",)), {"x": node("B")}) == -2
    assert eval_term(
        eg, LabelTerm("E", ("x", "y")),
        {"x": node("S"), "y": node("T")},
    ) == 1


def test_rule_query_indicator(fig2, node):
    text = ("def route(p) = <E(@1, @1') = 1>* <T>\n"
            "LET fast(x, y) := [ MATCH NODES (x, y) SUCH THAT x -p-> y "
            "WHERE route(p) HAVING time[p] <= 100 ] IN MATCH NODES (s)")
    term = entry_term(fig2, text, "fast")
    eg = extend(fig2, solve_config=CFG)
    assert eval_term(eg, term, {"x": node("S"), "y": node("P")}) == 1
    # every route into W goes through S->W; reaching T back costs > 100
    assert eval_term(eg, term, {"x": node("W"), "y": node("T")}) == 0
    values = {
        eval_term(eg, term, {"x": a, "y": b})
        for a in fig2.real_nodes for b in fig2.real_nodes
    }
    assert values <= {0, 1}


def test_rule_min_max_over_paths(fig2, node):
    text = ("def route(p) = <E(@1, @1') = 1>* <T>\n"
            "LET best(x, y) := min[time, p]{ MATCH NODES (x, y), PATHS (p) "
            "SUCH THAT x -p-> y WHERE route(p) } IN MATCH NODES (s)")
    term = entry_term(fig2, text, "best")
    eg = extend(fig2, solve_config=CFG)
    eta = {"x": node("S"), "y": node("P")}
    assert eval_term(eg, term, eta) == 80
    assert eval_term(eg, term, {"x": node("W"), "y": node("T")}) == 195
    worst = replace(term, mode="max")
    assert eval_term(eg, worst, eta) == POS_INF  # pumpable cycle
    # under derived bounds the nested search recognises the cycle itself
    derived = extend(fig2, solve_config=SolveConfig(visited_budget=2_000))
    assert eval_term(derived, worst, eta) == POS_INF
    # an unsatisfiable side condition empties the path set
    empty_text = ("def route(p) = <E(@1, @1') = 1>* <T>\n"
                  "LET best(x, y) := min[time, p]{ MATCH NODES (x, y), "
                  "PATHS (p) SUCH THAT x -p-> y WHERE route(p) "
                  "HAVING time[p] <= 5 } IN MATCH NODES (s)")
    empty_term = entry_term(fig2, empty_text, "best")
    assert eval_term(eg, empty_term, eta) == POS_INF
    empty_max = replace(empty_term, mode="max")
    assert eval_term(eg, empty_max, eta) == NEG_INF


def test_rule_variable_equality(fig2, node):
    eg = extend(fig2, solve_config=CFG)
    t = VarEqTerm("y", "z")
    assert eval_term(eg, t, {"y": node("S"), "z": node("S")}) == 1
    assert eval_term(eg, t, {"y": node("S"), "z": node("T")}) == 0
    assert eval_term(eg, t, {"y": SINK, "z": SINK}) == 1


def test_rule_apply(fig2, node):
    eg = extend(fig2, solve_config=CFG)
    t = ApplyTerm("+", (LabelTerm("time", ("x",)), ConstTerm(5)))
    assert eval_term(eg, t, {"x": node("T")}) == 15
    t2 = ApplyTerm("Max", (ConstTerm(3), ConstTerm(9), ConstTerm(-4)))
    assert eval_term(eg, t2, {}) == 9
    t3 = ApplyTerm("<=", (ConstTerm(2), ConstTerm(1)))
    assert eval_term(eg, t3, {}) == 0


def test_rule_set_aggregation_mas(fig2, node):
    text = ("LET mas(x, y) := E(x, y) && (agg Count z { attr(z) : "
            "E(x, z) && (attr(z) >= attr(y)) } = 1) IN MATCH NODES (s)")
    term = entry_term(fig2, text, "mas")
    eg = extend(fig2, solve_config=CFG)
    assert eval_term(eg, term, {"x": node("S"), "y": node("T")}) == 1
    assert eval_term(eg, term, {"x": node("S"), "y": node("W")}) == 0
    assert eval_term(eg, term, {"x": node("T"), "y": node("P")}) == 1


def test_rule_set_aggregation_matches_enumeration(fig2):
    # rule 8 equals materializing the filtered node set by hand
    term = AggTerm(
        "Sum", "z", LabelTerm("attr", ("z",)),
        ApplyTerm("<=", (LabelTerm("time", ("z",)), ConstTerm(15))),
    )
    eg = extend(fig2, solve_config=CFG)
    want = sum(
        fig2.label_value("attr", (v,))
        for v in fig2.real_nodes
        if fig2.label_value("time", (v,)) <= 15
    )
    assert eval_term(eg, term, {}) == want


def test_t_walk_value(fig2, node):
    text = ("LET t_walk(x) := (type(x) = 4) * time(x) IN MATCH NODES (s)")
    term = entry_term(fig2, text, "t_walk")
    eg = extend(fig2, solve_config=CFG)
    assert eval_term(eg, term, {"x": node("W")}) == 100
    assert eval_term(eg, term, {"x": node("T")}) == 0


# -- extended graphs ------------------------------------------------------------

def test_extend_empty_is_identity(fig2, node):
    eg = extend(fig2)
    assert isinstance(eg, Graph)
    assert eg.real_nodes == fig2.real_nodes
    for v in fig2.real_nodes:
        name = fig2.node_name(v)
        assert eg.node_name(v) == name and eg.node_id(name) == v
    assert eg.label_value("time", (node("P"),)) == 60
    assert eg.arity("E") == 2
    assert not eg.has_labelling("zzz")
    with pytest.raises(UnknownLabellingError):
        eg.label_value("zzz", (node("P"),))
    text = "LET hop(x, y) := E(x, y) IN MATCH NODES (s)"
    defined = extend(fig2, validate(parse(text), fig2).query.ontology)
    assert defined.arity("hop") == 2
    assert defined.label_value("hop", (node("S"), node("T"))) == 1
    with pytest.raises(ArityMismatchError):
        defined.label_value("hop", (node("S"),))


def test_extend_crowded_is_all_zero(fig2):
    vq = validate(parse(open_text("nested_queries")), fig2)
    eg = extend(fig2, vq.query.ontology, solve_config=CFG)
    for v in fig2.real_nodes:
        assert eg.label_value("crowded", (v,)) == 0


def test_crowded_compiles_each_nested_regex_once_per_view(fig2, monkeypatch):
    # crowded(x) is a nested query with two regular constraints: a view
    # compiles each once, at its first node, and binds the plan to the rest
    vq = validate(parse(open_text("nested_queries")), fig2)
    (crowded,) = vq.query.ontology
    compile_regex = opra.answer_graph.compile_regex
    compiled = []

    def counting(regex):
        compiled.append(regex)
        return compile_regex(regex)

    monkeypatch.setattr(opra.answer_graph, "compile_regex", counting)
    regexes = [rc.regex for rc in crowded.term.query.regular_constraints]
    assert len(regexes) == 2
    for _ in range(2):  # each view compiles for itself
        eg = extend(fig2, vq.query.ontology, solve_config=CFG)
        compiled.clear()
        assert [eg.label_value("crowded", (v,))
                for v in fig2.real_nodes] == [0] * len(fig2.real_nodes)
        assert compiled == regexes


def open_text(name):
    from opra.corpus import query_text

    return query_text(name)


def test_entry_ordering(fig2, node):
    ok = parse("LET one(x) := time(x), two(x) := one(x) + 1 "
               "IN MATCH NODES (s)")
    eg = extend(fig2, validate(ok, fig2).query.ontology, solve_config=CFG)
    assert eg.label_value("two", (node("T"),)) == 11
    bad = parse("LET two(x) := one(x) + 1, one(x) := time(x) "
                "IN MATCH NODES (s)")
    with pytest.raises(ForwardOntologyReferenceError):
        validate(bad, fig2)


def test_sink_tuples_are_zero(fig2, node):
    text = "LET c9(x) := 9 IN MATCH NODES (s)"
    eg = extend(fig2, validate(parse(text), fig2).query.ontology,
                solve_config=CFG)
    assert eg.label_value("c9", (node("S"),)) == 9
    assert eg.label_value("c9", (SINK,)) == 0


def test_memo_transparency(fig2):
    rng = random.Random(31337)
    for _ in range(10):
        g, q = rand_instance(rng, max_len=5, joint_budget=20_000,
                             max_nodes=3, n_unary=2)
        term = IndicatorTerm(validate(q, g).query.query) \
            if not q.query.match_paths else None
        if term is None:
            continue
        eta = {v: 1 for v in q.query.match_nodes}
        cached = extend(g, solve_config=CFG)
        plain = extend(g, solve_config=CFG)
        a = eval_term(cached, term, eta)
        b = eval_term(cached, term, eta)  # memoized second read
        c = eval_term(plain, term, eta)
        assert a == b == c


def test_results_do_not_depend_on_earlier_graphs():
    # one parsed query run on two graphs that differ only in w(a): no
    # labelling value computed for one may be read back for the other
    text = ("LET big(x) := w(x) IN MATCH NODES (x) SUCH THAT x -pi-> x "
            "WHERE <T>(pi) AND <big(@1) >= 6>(pi)")
    shared = parse(text)

    def graph(w):
        return Graph(["a"], [Labelling("w", 1, 0, {(1,): w})])

    def fresh(w):
        return evaluate(graph(w), parse(text), CFG).empty

    assert (fresh(7), fresh(5)) == (False, True)
    for order in ((7, 5), (5, 7)):
        for w in order:
            assert evaluate(graph(w), shared, CFG).empty == fresh(w), order


def test_defined_binary_labelling_as_letter(fig2, monkeypatch):
    # adj's term is a bare stored labelling, so the view bounds its step
    # letter by E's index: adj is evaluated on E's edges and the sink only
    route = ("MATCH NODES (s, t), PATHS (pi) SUCH THAT s -pi-> t "
             "WHERE <{}(@1, @1') = 1>* <T>(pi)")
    defined = validate(parse("LET adj(x, y) := E(x, y) IN "
                             + route.format("adj")), fig2)
    stored = validate(parse(route.format("E")), fig2)
    steps = []
    label_value = ExtendedGraph.label_value

    def spy(view, name, key):
        if name == "adj" and SINK not in key:
            steps.append(key)
        return label_value(view, name, key)

    monkeypatch.setattr(ExtendedGraph, "label_value", spy)
    got = engine_answers(fig2, defined, max_len=3, cfg=CFG)
    monkeypatch.undo()
    edges = fig2.labellings["E"].entries
    assert steps and all(edges.get(key) == 1 for key in steps)
    assert got
    assert got == engine_answers(fig2, stored, max_len=3, cfg=CFG)
    assert got == enumerate_answers(fig2, defined,
                                    OracleConfig(max_path_len=3))


def test_defined_labelling_of_another_arity_bounds_no_step(fig2):
    # only a binary definition can bound a step letter: a ternary one has
    # no step targets, so its letter is evaluated at every candidate,
    # and the answers are the oracle's
    text = ("LET hop(x, y, z) := E(x, y) && (y = z) IN "
            "MATCH NODES (s, t), PATHS (pi) SUCH THAT s -pi-> t "
            "WHERE <hop(@1, @1', @1') = 1>* <T>(pi)")
    q = validate(parse(text), fig2)
    view = extend(fig2, q, solve_config=CFG)
    assert view.arity("hop") == 3
    assert view.step_targets("hop", 1) is None
    assert view.step_targets("hop", 1, reverse=True) is None
    got = engine_answers(fig2, q, max_len=3, cfg=CFG)
    assert got and got == enumerate_answers(fig2, q,
                                            OracleConfig(max_path_len=3))


# -- indexed aggregation -------------------------------------------------------

def agg_graph(rng):
    """Filters S (ternary) and E (binary) with default 0 and values other
    than 1 too, D with default 1, and values U with both infinities."""
    nodes = range(1, rng.randint(2, 5) + 1)

    def entries(arity, p, values):
        return {key: rng.choice(values)
                for key in itertools.product(nodes, repeat=arity)
                if rng.random() < p}

    return Graph([f"n{i}" for i in nodes], [
        Labelling("S", 3, 0, entries(3, 0.25, (1, 1, 5))),
        Labelling("E", 2, 0, entries(2, 0.4, (1, 1, -1))),
        Labelling("D", 2, 1, entries(2, 0.4, (0, 1, 3))),
        Labelling("U", 1, 0, entries(1, 0.8, (POS_INF, NEG_INF, -2, 3))),
    ])


def agg(func, value, filter_name, *args):
    return AggTerm(func, "z", value, LabelTerm(filter_name, args))


U_Z = LabelTerm("U", ("z",))
AGG_ENTRIES = tuple(OntologyEntry(name, params, term) for name, params, term in (
    ("mx", ("x", "y"), agg("Max", U_Z, "S", "x", "z", "y")),
    ("mn", ("x", "y"), agg("Min", U_Z, "S", "z", "y", "x")),
    ("sm", ("x", "y"), agg("Sum", U_Z, "S", "y", "z", "x")),  # +inf + -inf
    ("rep", ("x", "y"), agg("Count", U_Z, "S", "z", "x", "z")),
    ("loops", ("x", "y"), agg("Sum", U_Z, "E", "z", "z")),
    ("shadow", ("z", "y"), agg("Max", U_Z, "S", "y", "z", "z")),
    ("one", ("x", "y"), agg("Sum", U_Z, "D", "x", "z")),  # default 1
    ("nest", ("x", "y"), agg("Max", LabelTerm("mx", ("z", "z")),
                             "E", "x", "z")),
    ("defined", ("x", "y"), agg("Count", U_Z, "nest", "z", "y")),
))


def test_indexed_aggregates_match_the_full_scan(monkeypatch):
    # an aggregate filtered by a stored labelling with a default other than
    # 1 reads the nodes that pass from its index: the values, the errors
    # and the memo are those of the scan; other filters keep the scan
    passing = opra.ontology._passing
    indexed = set()

    def spy(view, term, eta):
        got = passing(view, term, eta)
        if got is not None:
            indexed.add(term.filter.labelling)
        return got

    def run(g):
        view = extend(g, AGG_ENTRIES, solve_config=CFG)
        out = []
        for entry in AGG_ENTRIES:
            for key in itertools.product(g.real_nodes, repeat=2):
                try:
                    out.append(view.label_value(entry.name, key))
                except OpraError as e:
                    out.append((type(e), str(e)))
        return out, view._memo

    rng = random.Random(11)
    outcomes = []
    for _ in range(40):
        g = agg_graph(rng)
        monkeypatch.setattr(opra.ontology, "_passing", spy)
        got = run(g)
        monkeypatch.setattr(opra.ontology, "_passing", lambda *args: None)
        assert got == run(g)
        outcomes += got[0]
    assert indexed == {"S", "E"}
    assert {POS_INF, NEG_INF} <= set(outcomes)
    assert any(isinstance(o, tuple) and o[0] is IndeterminateSumError
               for o in outcomes)


DEPTH_GRAPH = Graph(["a", "b", "c"], [Labelling("S", 3, 0, {(1, 2, 3): 1}),
                                      Labelling("U", 1, 0, {(2,): 7})])


def test_indexed_aggregate_at_the_depth_limit(monkeypatch):
    # the index serves at any nesting depth and answers as the scan does,
    # also where no node passes
    g = DEPTH_GRAPH
    hop = agg("Max", U_Z, "S", "x", "z", "y")

    def outcomes():
        out = []
        for wraps in range(MAX_EVAL_DEPTH - 4, MAX_EVAL_DEPTH + 1):
            term = hop
            for _ in range(wraps):
                term = ApplyTerm("+", (term, ConstTerm(0)))
            for eta in ({"x": 1, "y": 3}, {"x": 3, "y": 1}):
                out.append(eval_term(extend(g), term, eta))
        return out

    used = []  # whether the index answered
    passing = opra.ontology._passing

    def spy(view, term, eta):
        got = passing(view, term, eta)
        used.append(got is not None)
        return got

    monkeypatch.setattr(opra.ontology, "_passing", spy)
    indexed = outcomes()
    assert indexed == [7, NEG_INF] * 5
    assert used == [True] * 10
    monkeypatch.setattr(opra.ontology, "_passing", lambda *args: None)
    assert indexed == outcomes()


def chain_text(links):
    """hop (height 2) and step (height 3), then c1(x) := step(x) and
    c{k}(x) := c{k-1}(x) up to c{links}, of height links + 3."""
    chain = "".join(f",\n    c{k}(x) := c{k - 1}(x)"
                    for k in range(2, links + 1))
    return ("LET hop(x, y) := agg Max z { U(z) : S(x, z, y) },\n"
            "    step(x) := [ MATCH NODES (x) SUCH THAT x -r-> y\n"
            "                 WHERE <hop(@1, @1') = 7> <T>(r) ],\n"
            f"    c1(x) := step(x){chain}\nIN MATCH NODES (s)")


def test_recursion_depth_guard(fig2, monkeypatch):
    # the limit is a property of the query: a chain of height
    # MAX_EVAL_DEPTH answers alike on a view that has memoised hop over
    # every pair of real nodes and on a fresh one
    g = DEPTH_GRAPH
    top = f"c{MAX_EVAL_DEPTH - 3}"
    ontology = validate(parse(chain_text(MAX_EVAL_DEPTH - 3)),
                        g).query.ontology
    assert definition_heights(ontology, g.labellings)[top] == MAX_EVAL_DEPTH
    warm = extend(g, ontology)
    for key in itertools.product(g.real_nodes, repeat=2):
        warm.label_value("hop", key)
    assert warm.label_value(top, (1,)) == 1
    assert extend(g, ontology).label_value(top, (1,)) == 1
    assert len(warm._plans) == 1  # step's nested query, compiled once

    # one link more is rejected before anything is evaluated
    monkeypatch.setattr(opra.ontology, "eval_term", None)
    too_deep = parse(chain_text(MAX_EVAL_DEPTH - 2))
    with pytest.raises(RecursionDepthExceededError):
        validate(too_deep, g)
    with pytest.raises(RecursionDepthExceededError):
        extend(g, too_deep.ontology)
    # so is a raw entry that reads itself, or a later entry
    loop = OntologyEntry("f", ("x",), LabelTerm("f", ("x",)))
    with pytest.raises(RecursionDepthExceededError):
        extend(g, [loop])
    with pytest.raises(RecursionDepthExceededError):
        extend(g, [OntologyEntry("e", ("x",), LabelTerm("f", ("x",))),
                   OntologyEntry("f", ("x",), LabelTerm("U", ("x",)))])

    # a term handed to eval_term is bounded by its own structure alone
    monkeypatch.undo()
    deep = ConstTerm(1)
    for _ in range(100):
        deep = ApplyTerm("+", (deep, ConstTerm(0)))
    assert eval_term(extend(fig2), deep, {}) == 1


def test_prepared_view_reads_the_validated_heights(fig2, monkeypatch):
    # prepare computes the heights once, in validate, and hands them to
    # its view; a view of raw entries computes its own
    from opra.corpus import query_text

    validate_module = importlib.import_module("opra.validate")
    calls = []
    inner = validate_module.definition_heights

    def counting(entries, stored):
        calls.append(len(entries))
        return inner(entries, stored)

    monkeypatch.setattr(validate_module, "definition_heights", counting)
    monkeypatch.setattr(opra.ontology, "definition_heights", counting)
    view, _ = prepare(fig2, query_text("path_lengths"), CFG)
    assert calls == [2]
    raw = extend(fig2, view._by_name.values(), CFG)
    assert calls == [2, 2] and raw.heights == view.heights
    s, t = fig2.node_id("S"), fig2.node_id("T")
    assert [v.label_value("_aux1", (s, t)) for v in (view, raw)] == [20, 20]


NESTED_TEXT = """def route(p) = <adj(@1, @1') = 1>* <T>
LET adj(x, y) := E(x, y),
    reach(x, y) := [ MATCH NODES (x, y) SUCH THAT x -r-> y
                     WHERE route(r) HAVING w0[r] <= 2 ],
    lo(x, y) := min[w1, r]{ MATCH NODES (x, y), PATHS (r)
                            SUCH THAT x -r-> y WHERE route(r)
                            HAVING w0[r] <= 2 },
    hi(x) := max[w1, r]{ MATCH NODES (x), PATHS (r) SUCH THAT x -r-> y
                         WHERE route(r) HAVING w1[r] <= 3 }
IN MATCH NODES (s)"""


def _outcome(run):
    try:
        return run()
    except OpraError as e:
        return type(e), str(e)


def test_plan_reuse_is_invisible():
    # a view builds each nested query's plan once and binds it per node
    # tuple.  On seeded graphs, with nested indicator, MIN and MAX terms
    # over defined and stored letters, each lookup on one shared view
    # gives the value or typed error of a fresh view per lookup, and each
    # product bound from a kept plan solves with the value, stats and
    # witness of a product built afresh
    rng = random.Random(4711)
    outcomes = set()
    for _ in range(10):
        g, q = rand_instance(rng, max_len=5, joint_budget=20_000,
                             max_nodes=4, n_unary=2)
        pra = validate(q, g).query.query
        nodes, ext = pra.match_nodes, replace(pra, match_paths=("p0",))
        # one query object under two targets
        entries = validate(parse(NESTED_TEXT), g).query.ontology + (
            OntologyEntry("ind", nodes, IndicatorTerm(
                replace(pra, match_paths=()))),
            OntologyEntry("min", nodes,
                          PathExtremumTerm("min", "w1", "p0", ext)),
            OntologyEntry("max", nodes,
                          PathExtremumTerm("max", "w0", "p0", ext)),
        )
        cfg = SolveConfig(b1=8, b2=16,
                          visited_budget=rng.choice((10, 30, 100_000)))
        shared = extend(g, entries, cfg)
        plans = {}
        for e in entries[1:]:
            for key in itertools.product(g.real_nodes, repeat=len(e.params)):
                got = _outcome(lambda: shared.label_value(e.name, key))
                assert got == _outcome(lambda: extend(
                    g, entries, cfg).label_value(e.name, key)), (e, key)
                outcomes.add(type(got) if type(got) is tuple else got)
                term, eta = e.term, dict(zip(e.params, key))
                target = None if isinstance(term, IndicatorTerm) \
                    else (term.labelling, (term.path_var,))
                if isinstance(term, IndicatorTerm):
                    solve = lambda ag: check_empty(ag, cfg)  # noqa: E731
                else:
                    solve = lambda ag: extremum(  # noqa: E731
                        ag, term.mode, cfg)
                kept = _outcome(lambda: solve(AnswerGraph(
                    shared, term.query, bound_nodes=eta, target=target,
                    plans=plans)))
                assert kept == _outcome(lambda: solve(AnswerGraph(
                    extend(g, entries, cfg), term.query, bound_nodes=eta,
                    target=target))), (e, key)
        assert len(plans) == len(entries) - 1
    # values of every kind, and budget errors, were compared
    assert {0, 1, NEG_INF, POS_INF, tuple} <= outcomes
    assert any(type(v) is int and v not in (0, 1) for v in outcomes)


def test_rpq_over_defined_letters_reads_few_label_values(monkeypatch):
    # (a+b)* over hop labellings on a 32-node data graph: each step letter
    # is evaluated on its E3 support only, and each hop value reads only
    # the symbols between its two nodes (126 010 lookups without indexes)
    rng = random.Random(1)
    nodes = [f"d{i}" for i in range(32)]
    edges = [[u, a, rng.choice(nodes)] for u in nodes for a in "ab"]
    eg = embed(data_graph_from_dict(
        {"nodes": nodes, "alphabet": ["a", "b"], "edges": edges}))
    defs = ",\n".join(
        [f'is_{x}(v) := [ MATCH NODES (v) SUCH THAT "sigma:{x}" -r-> v '
         "WHERE <T>(r) ]" for x in "ab"]
        + [f"hop_{x}(v, w) := agg Max z {{ is_{x}(z) : E3(v, z, w) }}"
           for x in "ab"])
    vq = validate(parse(
        f"LET {defs},\n is_data(v) := 1 - Max(is_a(v), is_b(v)) IN "
        "MATCH NODES (s, t) SUCH THAT s -pi-> t "
        "WHERE (<hop_a(@1, @1') = 1> + <hop_b(@1, @1') = 1>)* <T>(pi) "
        "AND <is_data(@1) = 1> <T>*(pi)"), eg)
    calls = [0]
    label_value = ExtendedGraph.label_value

    def counted(view, name, key):
        calls[0] += 1
        return label_value(view, name, key)

    monkeypatch.setattr(ExtendedGraph, "label_value", counted)
    got = engine_answers(eg, vq, max_len=5)
    # pairs joined by a data path of at most four edges
    want = set()
    for s in nodes:
        reach = {s}
        for _ in range(4):
            reach |= {v for u, _, v in edges if u in reach}
        want |= {(s, t) for t in reach}
    assert {tuple(eg.node_name(v) for v in pair) for pair, _ in got} == want
    assert calls[0] <= 10_000


def test_static_heights_bound_the_nesting(fig2, monkeypatch):
    # the deepest nesting of eval_term below a lookup of a definition, on
    # every tuple of real nodes and on a fresh view, stays within its
    # static height, and so does a whole query's within the highest one
    from opra.corpus import ANSWER_PLANS, load_query
    from gensupport import RPQ_SHAPES, rand_data_graph, rpq_query_text

    inner = opra.ontology.eval_term
    depth = [0, 0]  # current, deepest

    def counting(view, term, eta):
        depth[0] += 1
        depth[1] = max(depth[1], depth[0])
        try:
            return inner(view, term, eta)
        finally:
            depth[0] -= 1

    def deepest(run):
        depth[1] = 0
        run()
        return depth[1]

    monkeypatch.setattr(opra.ontology, "eval_term", counting)
    cases = [(fig2, load_query(name, fig2), bound)
             for name, bound in ANSWER_PLANS]
    rng = random.Random(5)
    for shape in RPQ_SHAPES:
        g = embed(rand_data_graph(rng))
        cases.append((g, validate(parse(rpq_query_text(shape, ("a", "b"))),
                                  g), 5))
    g, _ = rand_instance(rng, max_len=5, joint_budget=20_000, max_nodes=3,
                         n_unary=2)
    cases.append((g, validate(parse(NESTED_TEXT), g), 3))
    # defined labellings read as a target only, and in HAVING rows only
    reads = ("def route(p) = <E(@1, @1') = 1>* <T>\n"
             "LET t1(x) := time(x), t2(x) := t1(x),\n"
             "    far(x) := max[t2, r]{ MATCH NODES (x), PATHS (r) SUCH THAT "
             "x -r-> y WHERE route(r) HAVING time[r] <= 300 },\n"
             "    near(x) := min[time, r]{ MATCH NODES (x), PATHS (r) SUCH "
             "THAT x -r-> y WHERE route(r) HAVING t2[r] <= 300 }\n"
             "IN MATCH NODES (s)")
    cases.append((fig2, validate(parse(reads), fig2), 3))
    cases.append((DEPTH_GRAPH, validate(parse(chain_text(
        MAX_EVAL_DEPTH - 3)), DEPTH_GRAPH), 2))
    reached = {}
    for g, vq, bound in cases:
        ontology = vq.query.ontology
        heights = definition_heights(ontology, g.labellings)
        for e in ontology:
            keys = itertools.product(g.real_nodes, repeat=len(e.params))
            reached[e.name] = deepest(lambda: [
                extend(g, ontology, CFG).label_value(e.name, key)
                for key in keys])
            assert reached[e.name] <= heights[e.name], e.name
        assert deepest(lambda: engine_answers(g, vq, bound, CFG)) \
            <= max(heights.values(), default=0)
    assert reached["far"] == reached["near"] == 3
    # the chain reaches the limit, so the limit bounds what it did
    assert reached[f"c{MAX_EVAL_DEPTH - 3}"] == MAX_EVAL_DEPTH


def test_oracle_term_eval_agrees(fig2, node):
    # the two independent term evaluators agree on the map fixture
    text = ("LET mas(x, y) := E(x, y) && (agg Count z { attr(z) : "
            "E(x, z) && (attr(z) >= attr(y)) } = 1) IN MATCH NODES (s)")
    term = entry_term(fig2, text, "mas")
    eg = extend(fig2, solve_config=CFG)
    view = OracleView(fig2, (), OracleConfig(max_path_len=8))
    for x in fig2.real_nodes:
        for y in fig2.real_nodes:
            eta = {"x": x, "y": y}
            assert eval_term(eg, term, eta) == \
                oracle_eval_term(view, term, eta)


@pytest.mark.parametrize("kind, having", [
    ("min", ""),
    # the cap leaves some pairs without a path: the -inf convention
    ("max", "HAVING time[rho] <= 150"),
])
def test_oracle_nested_extrema_agree(fig2, kind, having):
    text = ("def route(p) = <E(@1, @1') = 1>* <T>\n"
            f"LET f(x, y) := {kind}[time, rho]{{ MATCH NODES (x, y), "
            "PATHS (rho) SUCH THAT x -rho-> y WHERE route(rho) "
            f"{having} }} IN MATCH NODES (s)")
    term = entry_term(fig2, text, "f")
    eg = extend(fig2, solve_config=CFG)
    view = OracleView(fig2, (), OracleConfig(max_path_len=8))
    values = []
    for x in fig2.real_nodes:
        for y in fig2.real_nodes:
            eta = {"x": x, "y": y}
            values.append(eval_term(eg, term, eta))
            assert values[-1] == oracle_eval_term(view, term, eta)
    assert (NEG_INF in values) == (kind == "max")


# -- the shared on-demand view ------------------------------------------------

VIEWS = {
    "engine": lambda g, entries: extend(g, entries, solve_config=CFG),
    "oracle": lambda g, entries: OracleView(g, entries, OracleConfig()),
}


@pytest.mark.parametrize("kind", VIEWS)
def test_view_lookup(fig2, node, kind):
    entries = validate(parse("LET slow(x) := 2 * time(x) IN MATCH NODES (s)"),
                       fig2).query.ontology
    make = VIEWS[kind]
    view = make(fig2, entries)
    s = node("S")
    assert view.has_labelling("time") and view.has_labelling("slow")
    assert not view.has_labelling("fast")
    assert (view.arity("time"), view.arity("slow"), view.arity("E")) \
        == (1, 1, 2)
    assert view.label_value("time", (s,)) == 10
    assert view.label_value("slow", (s,)) == 20
    assert view.label_value("slow", (SINK,)) == 0
    with pytest.raises(UnknownLabellingError,
                       match="^unknown labelling 'fast'$"):
        view.label_value("fast", (s,))
    with pytest.raises(UnknownLabellingError):
        view.arity("fast")
    with pytest.raises(ArityMismatchError,
                       match="^labelling 'slow' has arity 1, got 2 nodes$"):
        view.label_value("slow", (s, s))
    with pytest.raises(ArityMismatchError,
                       match="^labelling 'time' has arity 1, got 2 nodes$"):
        view.label_value("time", (s, s))

    # one evaluation per (labelling, tuple) and view; none for the sink
    # or a stored name; a second view of the same graph keeps its own
    evaluated = []

    def counting(v):
        term_value = v.term_value

        def wrapper(term, eta):
            evaluated.append((v, dict(eta)))
            return term_value(term, eta)

        v.term_value = wrapper
        return v

    first = counting(make(fig2, entries))
    second = counting(make(fig2, entries))
    for v in (first, first, second, second):
        assert v.label_value("slow", (s,)) == 20
        assert v.label_value("slow", (SINK,)) == 0
        assert v.label_value("time", (s,)) == 10
    assert evaluated == [(first, {"x": s}), (second, {"x": s})]


HAVING_ROUTE = """def route(p) = <E(@1, @1') = 1>* <T>
{let}MATCH NODES (s, t), PATHS (pi)
SUCH THAT s -pi-> t
WHERE route(pi)
HAVING {having}"""


@pytest.mark.parametrize("let, having, count", [
    # a labelling term over a node variable, with a coefficient
    ("", "time[pi] <= 2 * time(t)", 12),
    # a variable-free term: one unused existential parameter
    ("", "time[pi] <= (30 + 40)", 8),
    # an aggregate over a bound node variable
    ("", "time[pi] <= agg Max z { time(z) : E(s, z) }", 5),
    # variable equality
    ("", "time[pi] <= 30 + 40 * (t = t)", 8),
    # '<' and '>' comparisons in terms, and unary minus on a non-constant
    ("LET f(x) := time(x) < 20 IN\n", "f[pi] >= 2", 15),
    ("LET f(x) := time(x) > 20 IN\n", "f[pi] >= 2", 7),
    ("LET f(x) := -time(x) IN\n", "f[pi] >= -30", 5),
])
def test_having_terms_engine_vs_oracle(fig2, let, having, count):
    q = validate(parse(HAVING_ROUTE.format(let=let, having=having)), fig2)
    got = engine_answers(fig2, q, max_len=4, cfg=SolveConfig(b1=4, b2=8))
    assert got == enumerate_answers(fig2, q, OracleConfig(max_path_len=4))
    assert len(got) == count

import random

import pytest

from opra.engine import engine_answers, evaluate
from opra.errors import (
    ArityMismatchError, ForwardOntologyReferenceError,
    RecursionDepthExceededError, UnknownLabellingError,
)
from opra.extint import NEG_INF, POS_INF
from opra.graph import SINK, Graph, Labelling
from opra.ontology import ExtendedGraph, eval_fundamental, eval_term, extend
from opra.oracle import (
    OracleConfig, OracleView, enumerate_answers, oracle_eval_term,
)
from opra.parser import parse
from opra.query import (
    AggTerm, ApplyTerm, ConstTerm, IndicatorTerm, LabelTerm, MaxPathTerm,
    MinPathTerm, VarEqTerm,
)
from opra.solver import SolveConfig
from opra.validate import validate

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
    worst = MaxPathTerm(term.labelling, term.path_var, term.query)
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
    empty_max = MaxPathTerm(empty_term.labelling, empty_term.path_var,
                            empty_term.query)
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


def test_defined_binary_labelling_as_letter(fig2):
    # a defined labelling has no stored index, so its step letter admits
    # every real node as a candidate and is evaluated on each of them
    route = ("MATCH NODES (s, t), PATHS (pi) SUCH THAT s -pi-> t "
             "WHERE <{}(@1, @1') = 1>* <T>(pi)")
    defined = validate(parse("LET adj(x, y) := E(x, y) IN "
                             + route.format("adj")), fig2)
    stored = validate(parse(route.format("E")), fig2)
    got = engine_answers(fig2, defined, max_len=3, cfg=CFG)
    assert got
    assert got == engine_answers(fig2, stored, max_len=3, cfg=CFG)
    assert got == enumerate_answers(fig2, defined,
                                    OracleConfig(max_path_len=3))


def test_recursion_depth_guard(fig2):
    eg = extend(fig2, solve_config=CFG)
    deep = ConstTerm(1)
    for _ in range(100):
        deep = ApplyTerm("+", (deep, ConstTerm(0)))
    with pytest.raises(RecursionDepthExceededError):
        eval_term(eg, deep, {})


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

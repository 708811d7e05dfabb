import random
import re
from dataclasses import replace

import pytest

import opra
from opra.answer_graph import OMEGA, AGState, AnswerGraph
from opra.embedding import WeightedAutomaton, build_automaton_graph, embed
from opra.engine import engine_answers, prepare
from opra.errors import (
    IndeterminateSumError, ResourceExceededError, ValidationError,
)
from opra.extint import NEG_INF, POS_INF, ext_mul, ext_sum, is_finite
from opra.graph import SINK, Graph, Labelling, aggregate
from opra.oracle import (
    OracleConfig, brute_extremum, enumerate_answers, enumerate_satisfying,
    oracle_source, oracle_two_phase,
)
from opra.parser import parse
from opra.query import (
    ArithConstraint, ArithTerm, ConstAtom, Letter, NodeConstraint, NodeRef,
    OpraQuery, PathConstraint, PraQuery, RegularConstraint,
)
from opra.solver import (
    MAX, MIN, SolveConfig, _Dominance, _Search, answer_table, check_empty,
    derive_bounds, extremum,
)
from opra.solver import enumerate_answers as search_answers
from opra.validate import validate

from gensupport import (
    RUN_QUERY, carried_vary, load_perfbench, rand_automaton, rand_data_graph,
    rand_feasible_graph, rand_instance, rand_regex, rand_timed_graph,
    route_constraint, rpq_query_text,
)

CFG = SolveConfig(b1=8, b2=16)
ROUTE_SP_TEXT = (
    "def route(p) = <E(@1, @1') = 1>* <T>\n"
    'MATCH PATHS (pi) SUCH THAT "S" -pi-> "P" WHERE route(pi)'
)


def _route_sp(fig2, having=""):
    return validate(parse(ROUTE_SP_TEXT + having), fig2).query.query


def _path_graph() -> Graph:
    """The solver docstring's 6-node path a -> ... -> f, with `E` on each
    edge and `time` 1 on each node."""
    return Graph(list("abcdef"), [
        Labelling("E", 2, 0, {(i, i + 1): 1 for i in range(1, 6)}),
        Labelling("time", 1, 0, {(i,): 1 for i in range(1, 7)})])


def test_check_empty_sums_witness(fig2):
    pra = _route_sp(fig2, "\nHAVING time[pi] <= 360 AND attr[pi] >= 101")
    res = check_empty(AnswerGraph(fig2, pra), cfg=CFG)
    assert not res.empty
    pi = res.paths["pi"]
    assert aggregate(fig2, "time", [pi]) <= 360
    assert aggregate(fig2, "attr", [pi]) >= 101
    # a witness longer than a pinned b1: emptiness reads b2 alone
    g = _path_graph()
    pra = validate(parse(
        "def route(p) = <E(@1, @1') = 1>* <T>\n"
        'MATCH NODES (t) SUCH THAT "a" -pi-> t WHERE route(pi)\n'
        "HAVING time[pi] >= 6"), g).query.query
    res = check_empty(AnswerGraph(g, pra), cfg=SolveConfig(b1=2, b2=10))
    assert (res.empty, res.env) == (False, {"t": g.node_id("f")})
    assert res.paths["pi"] == tuple(g.real_nodes)


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


def test_unknown_extremum_mode_is_one_validation_error(fig2):
    # the engine and the oracle reject a mode other than min and max with
    # the error validate gives a hand-built term of that mode
    pra = _route_sp(fig2)
    ag = AnswerGraph(fig2, pra, target=("time", ("pi",)))
    text = ("def route(p) = <E(@1, @1') = 1>* <T>\n"
            'MATCH PATHS (pi) SUCH THAT "S" -pi-> "P" WHERE route(pi)')
    message = "^unknown path extremum 'mean'$"
    with pytest.raises(ValidationError, match=message):
        extremum(ag, "mean", cfg=CFG)
    with pytest.raises(ValidationError, match=message):
        answer_table(ag, "mean", cfg=CFG)
    with pytest.raises(ValidationError, match=message):
        brute_extremum(fig2, validate(parse(text), fig2),
                       ("time", ("pi",)), "mean", OracleConfig())
    with pytest.raises(ValidationError, match=message):
        oracle_two_phase(fig2, text, ("time", ("pi",)), "mean", 8, 16)


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
    with pytest.raises(ValidationError):
        derive_bounds(ag, SolveConfig(b1=5, b2=5))
    # a pinned b2 alone halves into b1, as a derived b2 doubles b1
    assert derive_bounds(ag, SolveConfig(b2=40)) == (20, 40)


def test_default_bounds_read_an_on_demand_row_as_magnitude_one():
    # a defined labelling's magnitude is unknown up front and counts as
    # 1, a stored one's is its largest finite value (time: 2).  On a
    # 2-node graph with one 3-state NFA the product estimate is
    # (2 + 1) * (0 + 2) * 3 = 18, and with d = 2 (one row and the base)
    # b1 = 18 * (2 * 2 * w * 18 + 1) ** 2 for the row's weight w
    g = Graph(["a", "b"], [Labelling("E", 2, 0, {(1, 2): 1}),
                           Labelling("time", 1, 0, {(1,): 1, (2,): 2})])
    text = ("LET slow(x) := 2 * time(x) IN\n"
            "MATCH PATHS (pi) SUCH THAT \"a\" -pi-> \"b\" "
            "WHERE <E(@1, @1') = 1>* <T>(pi)\nHAVING 3 * {}[pi] <= 100")
    for name, w in (("slow", 3 * 1), ("time", 3 * 2)):
        view, pra = prepare(g, text.format(name))
        b1 = 18 * (2 * 2 * w * 18 + 1) ** 2
        assert derive_bounds(AnswerGraph(view, pra), SolveConfig()) \
            == (b1, 2 * b1), name
    assert b1 == 3_374_802


@pytest.mark.parametrize("cfg", [
    SolveConfig(b1=16, b2=8), SolveConfig(b1=0), SolveConfig(b2=1),
])
def test_invalid_bounds_are_a_validation_error(fig2, cfg):
    # b1 = 0 alone derives b2 = 0, and b2 = 1 alone derives b1 = 0
    text = ROUTE_SP_TEXT + "\nHAVING time[pi] <= 360"
    with pytest.raises(ValidationError,
                       match="^bounds must satisfy 0 < b1 < b2$"):
        opra.evaluate(fig2, text, cfg)


@pytest.mark.parametrize("kwargs, error", [
    ({"visited_budget": -3}, "visited budget must be an int >= 1, not -3"),
    ({"visited_budget": 0}, "visited budget must be an int >= 1, not 0"),
    ({"visited_budget": None},
     "visited budget must be an int >= 1, not None"),
    ({"visited_budget": True},
     "visited budget must be an int >= 1, not True"),
    ({"b1": 2.5, "b2": 10}, "bound b1 must be an int, not 2.5"),
    ({"b1": True, "b2": 10}, "bound b1 must be an int, not True"),
    ({"b2": "16"}, "bound b2 must be an int, not '16'"),
])
def test_invalid_search_limits_are_validation_errors(kwargs, error):
    with pytest.raises(ValidationError, match=f"^{re.escape(error)}$"):
        SolveConfig(**kwargs)


@pytest.mark.parametrize("max_len", [-1, 1.5, True])
def test_invalid_max_len_is_a_validation_error(fig2, max_len):
    with pytest.raises(ValidationError, match="^max_len must be an int >= 0"):
        engine_answers(fig2, ROUTE_SP_TEXT, max_len=max_len, cfg=CFG)
    assert engine_answers(fig2, ROUTE_SP_TEXT, max_len=0, cfg=CFG) == set()


def test_invalid_solve_arguments_are_validation_errors(fig2):
    with pytest.raises(ValidationError,
                       match="^unknown target path variable 'nope'$"):
        opra.evaluate_extremum(fig2, ROUTE_SP_TEXT, "time", MIN, CFG,
                               target_paths=["nope"])
    with pytest.raises(ValidationError, match="no free path variable"):
        opra.evaluate_extremum(fig2, "MATCH NODES (s) SUCH THAT s -pi-> s "
                               "WHERE <T>(pi)", "time", MIN, CFG)
    with pytest.raises(ValidationError, match="without a target labelling"):
        extremum(AnswerGraph(fig2, _route_sp(fig2)), MIN, CFG)
    with pytest.raises(ValidationError, match="without a target labelling"):
        answer_table(AnswerGraph(fig2, _route_sp(fig2)), MIN, CFG)


def test_table_without_lazy_targets_is_the_one_search(fig2):
    # a query with no free lazy target keys its table on () alone, and
    # its search stops at the one answer, as check_empty and extremum do
    ag = AnswerGraph(fig2, _route_sp(fig2), target=("time", ("pi",)))
    assert ag.plan.free_lazy == ()
    res, table = check_empty(ag, cfg=CFG), answer_table(ag, cfg=CFG)
    assert table.key_vars == () and table.values == {(): 1}
    assert table.stats == res.stats
    res, table = extremum(ag, MIN, cfg=CFG), answer_table(ag, MIN, CFG)
    assert table.values == {(): res.value} and table.stats == res.stats


def test_weight_vec_is_the_rows_then_the_target_read_alone():
    # a state's weights read each term once, and a target equal to a
    # one-term row with coefficient 1 takes that row's value: the search's
    # vector must be the rows' weights, the sums of their terms read from
    # the labellings, followed by the target read on its own and
    # sign-normalised, infinities and raises included; except that a MIN
    # target equal to a row is that row's column and adds none
    rng = random.Random(2310)
    values = (-3, -1, 0, 2, 5, POS_INF, NEG_INF)
    sels = (("pi",), ("rho",))
    reused = covered = 0
    for trial in range(200):
        g = Graph(["a", "b", "c"], [
            Labelling(name, 1, rng.choice(values),
                      {(v,): rng.choice(values) for v in (1, 2, 3)
                       if rng.random() < 0.7})
            for name in ("u", "w")] + [
            Labelling("e", 2, 0, {(u, v): rng.choice(values)
                                  for u in (1, 2, 3) for v in (1, 2, 3)
                                  if rng.random() < 0.5})])

        def term(coeff):
            if rng.random() < 0.2:
                return ArithTerm(coeff, "e", ("pi", "rho"))
            return ArithTerm(coeff, rng.choice("uw"), rng.choice(sels))

        def read(t, st):
            key = tuple(st.nodes[0 if v == "pi" else 1] for v in t.path_vars)
            if set(key) == {SINK}:
                return 0
            return g.labellings[t.labelling].value(key)

        rows = [ArithConstraint(tuple(
                    term(rng.choice((1, 1, -1, 2, -3)))
                    for _ in range(rng.randint(1, 3))), 0)
                for _ in range(rng.randint(0, 3))]
        target = term(1)
        if trial % 2:
            # the target as a one-term row, at a random place
            rows.insert(rng.randint(0, len(rows)),
                        ArithConstraint((target,), rng.randint(-5, 5)))
        pra = PraQuery(match_paths=("pi", "rho"),
                       arith_constraints=tuple(rows))
        ag = AnswerGraph(g, pra,
                         target=(target.labelling, target.path_vars))
        reused += ag.plan._target_row is not None
        for mode, sign in ((MIN, 1), (MAX, -1)):
            search = _Search(ag, CFG, sign)
            for _ in range(5):
                st = AGState((), OMEGA, tuple(rng.choice((SINK, 1, 2, 3))
                                              for _ in range(2)), ())
                try:
                    sums = tuple(ext_sum(ext_mul(t.coeff, read(t, st))
                                         for t in row.terms) for row in rows)
                except IndeterminateSumError:
                    for weigh in (ag.weight, search.weight_vec):
                        with pytest.raises(IndeterminateSumError):
                            weigh(st)
                    continue
                assert ag.weight(st) == sums, (rows, st)
                t = ext_mul(sign, ag.extremum_weight(st))
                folded = mode == MIN and ag.plan._target_row is not None
                want = sums if folded else sums + (t,)
                got = search.weight_vec(st)
                assert got == want, (mode, rows, st)
                assert got[search.target_col] == t, (mode, rows, st)
                covered += not all(map(is_finite, want))
    assert reused >= 100 and covered > 50


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


def test_oracle_agreement_with_free_paths():
    # trials that may draw a free path variable: emptiness with its
    # witness, the answer set and both extrema match brute force (20 of
    # the 40 draw one, 7 of those with answers)
    rng = random.Random(7)
    b1, b2 = 5, 10
    free = answered = 0
    for trial in range(40):
        g, q = rand_instance(rng, max_len=b2, joint_budget=10_000,
                             free_path_p=0.5, max_nodes=4, n_unary=1)
        vq = validate(q, g)
        pra = vq.query.query
        cfg = SolveConfig(b1=b1, b2=b2, visited_budget=2_000_000)
        ocfg = OracleConfig(max_path_len=b2, max_paths=5_000_000)

        answers = enumerate_answers(g, vq, ocfg)
        free += bool(pra.match_paths)
        answered += bool(pra.match_paths and answers)
        res = check_empty(AnswerGraph(g, pra), cfg=cfg)
        assert res.empty == (not answers), f"trial {trial} emptiness"
        if not res.empty:
            assert (res.env, res.paths) in enumerate_satisfying(
                oracle_source(g, vq, ocfg), pra, ocfg), f"trial {trial}"
        assert engine_answers(g, vq, max_len=b2, cfg=cfg) == answers, \
            f"trial {trial} answers"

        target_var = pra.regular_constraints[0].path_vars[0]
        ag = AnswerGraph(g, pra, target=("w0", (target_var,)))
        for mode in (MIN, MAX):
            got = extremum(ag, mode, cfg=cfg).value
            want = oracle_two_phase(g, vq, ("w0", (target_var,)), mode,
                                    b1, b2, max_paths=5_000_000)
            assert got == want, f"trial {trial} {mode}"
    assert free >= 15 and answered >= 5


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


def test_each_state_is_expanded_once_per_search(monkeypatch):
    # the searches expand 102 and 160 configurations over 82 and 91
    # distinct states: a state reached again at another weight reads its
    # successors from the search's memo, and stats, value and witness
    # are pinned
    g = rand_timed_graph(random.Random(3), n=100, degree=3)
    pra = validate(parse(
        "def route(p) = <E(@1, @1') = 1>* <T>\n"
        'MATCH PATHS (pi) SUCH THAT "n0" -pi-> "n57" WHERE route(pi)\n'
        "HAVING time[pi] <= 40"), g).query.query
    cfg = SolveConfig(b1=12, b2=24)
    calls = []
    successors = AnswerGraph.successors

    def counted(ag, st):
        calls.append(st)
        return successors(ag, st)

    monkeypatch.setattr(AnswerGraph, "successors", counted)
    names = lambda path: [g.node_name(v) for v in path]

    res = check_empty(AnswerGraph(g, pra), cfg=cfg)
    assert (res.stats.expanded, res.stats.enqueued) == (102, 134)
    assert names(res.paths["pi"]) == ["n0", "n69", "n76", "n86", "n82",
                                      "n57"]
    assert len(calls) == len(set(calls)) == 82

    calls.clear()
    res = extremum(AnswerGraph(g, pra, target=("time", ("pi",))), MIN,
                   cfg=cfg)
    assert (res.stats.expanded, res.stats.enqueued) == (160, 160)
    assert res.value == 27
    assert names(res.witness["pi"]) == ["n0", "n30", "n73", "n64", "n86",
                                        "n82", "n57"]
    assert len(calls) == len(set(calls)) == 91


FREE_ROUTE = (
    "def route(p) = <E(@1, @1') = 1>* <T>\n"
    "MATCH NODES (s, t) SUCH THAT s -pi-> t WHERE route(pi)\n"
)


def _per_source(g, pra, **kw):
    """The query's answer graphs with its free source s bound, one per
    node: searches that share no memo across values of s."""
    return [AnswerGraph(g, pra, bound_nodes={"s": s}, **kw)
            for s in g.real_nodes]


def test_free_sources_share_successor_work(monkeypatch):
    # the enumeration expands 178 configurations over 176 distinct
    # (state, s) pairs; a state's env holds t alone, what successors
    # read, so 57 states make 57 successor calls where the searches that
    # bind s make 176 between them, and its search and answers are
    # theirs
    g = rand_timed_graph(random.Random(5), n=20, degree=3)
    pra = validate(parse(FREE_ROUTE + "HAVING time[pi] <= 12"),
                   g).query.query
    ag = AnswerGraph(g, pra)
    assert ag.plan.read_slots == (ag.plan.env_vars.index("t"),)
    calls = []
    successors = AnswerGraph.successors

    def counted(ag, st):
        calls.append(st)
        return successors(ag, st)

    monkeypatch.setattr(AnswerGraph, "successors", counted)
    answers, stats = search_answers(ag, max_len=6)
    assert (stats.expanded, stats.enqueued) == (178, 178)
    assert len(calls) == len(set(calls)) == 57

    calls.clear()
    union, expanded, enqueued = set(), 0, 0
    for one in _per_source(g, pra):
        got, one_stats = search_answers(one, max_len=6)
        union |= got
        expanded += one_stats.expanded
        enqueued += one_stats.enqueued
    assert (expanded, enqueued) == (178, 178) and len(calls) == 176
    assert answers == union and len(answers) == 87


def test_enumeration_lists_free_paths_in_match_order(fig2):
    # the plan puts a bound free path first among its components; an
    # answer still lists its free paths in MATCH PATHS order, as the
    # oracle does under the same binding
    vq = validate(parse(
        "MATCH NODES (s, t), PATHS (p, q) SUCH THAT s -p-> s AND t -q-> t "
        "WHERE <T>(p) AND <T>(q)"), fig2)
    bound = {"q": (fig2.node_id("T"),)}
    ag = AnswerGraph(fig2, vq.query.query, bound_paths=bound)
    assert ag.plan.path_vars == ("q", "p")
    got, _ = search_answers(ag, max_len=3)
    assert got == enumerate_answers(fig2, vq, OracleConfig(max_path_len=3),
                                    bound_paths=bound)
    assert got and all(paths[1] == bound["q"] for _, paths in got)


def _checked_memo(monkeypatch):
    """Make every search's memo check each hit: the list it holds must
    equal the state's successors with fresh weight vectors and target
    flags.  Returns the states hit."""
    hits = []
    init = _Search.__init__

    class Checked(dict):
        def __init__(self, search):
            super().__init__()
            self.search = search

        def get(self, st, default=None):
            out = super().get(st, default)
            if out is not None:
                ag, sign = self.search.ag, self.search.sign
                assert out == [
                    (succ, ag.weight(succ, sign), ag.is_target(succ))
                    for succ in ag.successors(st)], st
                hits.append(st)
            return out

    def checked_init(search, *args, **kwargs):
        init(search, *args, **kwargs)
        search.memo = Checked(search)

    monkeypatch.setattr(_Search, "__init__", checked_init)
    return hits


def test_replayed_successors_match_fresh_ones(monkeypatch):
    # free (s, t) searches of every kind read successors from their one
    # memo, shared across values of s; each hit equals a fresh
    # computation, emptiness, witness and answers are those of the
    # searches that bind s, and extrema are the oracle's
    hits = _checked_memo(monkeypatch)
    target = ("time", ("pi",))
    small = SolveConfig(b1=2, b2=4)
    for seed in range(4):
        g = rand_timed_graph(random.Random(seed), n=8, degree=2)
        vq = validate(parse(FREE_ROUTE + "HAVING time[pi] <= 15"), g)
        pra = vq.query.query
        ag = AnswerGraph(g, pra)
        assert carried_vary(ag)
        res = check_empty(ag, cfg=CFG)
        per = [check_empty(one, cfg=CFG) for one in _per_source(g, pra)]
        assert res.empty == all(r.empty for r in per), seed
        if not res.empty:
            # the first target is the first of its source's own search
            one = per[res.env["s"] - 1]
            assert (res.env, res.paths) == (one.env, one.paths), seed
        answers, _ = search_answers(ag, max_len=5)
        assert answers == set().union(*[
            search_answers(one, max_len=5)[0]
            for one in _per_source(g, pra)]), seed

        ag = AnswerGraph(g, pra, target=target)
        for mode in (MIN, MAX):
            got = extremum(ag, mode, cfg=small)
            assert got.value == oracle_two_phase(
                g, vq, target, mode, small.b1, small.b2), (seed, mode)
            assert (got.env, got.witness) in enumerate_satisfying(
                g, pra, OracleConfig(max_path_len=small.b1)), (seed, mode)
            assert aggregate(g, "time", [got.witness["pi"]]) == got.value
            # under derived bounds, the best of the per-source values
            got = extremum(ag, mode, cfg=SolveConfig()).value
            values = [extremum(one, mode, cfg=SolveConfig()).value
                      for one in _per_source(g, pra, target=target)]
            assert got == (min if mode == MIN else max)(values), (seed, mode)
    assert hits

    # an RPQ over an embedded data graph: nested searches bind v, and
    # the outer one reads successors across s
    hits.clear()
    dg = rand_data_graph(random.Random(11), max_nodes=5)
    g = embed(dg)
    answers = engine_answers(g, rpq_query_text(("a", "b", "star"),
                                               ("a", "b")), max_len=5)
    assert hits and answers


def test_shared_lazy_target_agrees_with_oracle(monkeypatch):
    # MATCH NODES (s, t) SUCH THAT s -pi-> t AND s -rho-> t: a free source
    # and one lazy target that both components bind, under random extra
    # regular and arithmetical constraints
    _checked_memo(monkeypatch)
    rng = random.Random(4471)
    b = 4
    cfg = SolveConfig(b1=b, b2=2 * b, visited_budget=2_000_000)
    ocfg = OracleConfig(max_path_len=2 * b, max_paths=5_000_000)
    seen_empty = seen_answers = 0
    for trial in range(24):
        g = rand_feasible_graph(rng, max_len=2 * b, walk_budget=40,
                                max_nodes=4, n_unary=1)
        s, t = NodeRef("s"), NodeRef("t")
        regular = [route_constraint("pi"), route_constraint("rho")]
        if rng.random() < 0.7:
            regular.append(RegularConstraint(
                rand_regex(rng, 1, ["w0"], depth=2),
                (rng.choice(["pi", "rho"]),)))
        arith = tuple(
            ArithConstraint((ArithTerm(rng.choice([-1, 1]), "w0",
                                       (rng.choice(["pi", "rho"]),)),),
                            rng.randint(-3, 4))
            for _ in range(rng.randint(0, 1)))
        q = OpraQuery((), PraQuery(
            match_nodes=("s", "t"), match_paths=(),
            path_constraints=(PathConstraint(s, "pi", t),
                              PathConstraint(s, "rho", t)),
            regular_constraints=tuple(regular), arith_constraints=arith))
        pra = validate(q, g).query.query
        ag = AnswerGraph(g, pra)
        assert ag.plan.lazy_vars == {"t"} and carried_vary(ag)

        res = check_empty(ag, cfg=cfg)
        assert res.empty == (not enumerate_answers(g, q, ocfg)), trial
        if not res.empty:
            assert (res.env, res.paths) in enumerate_satisfying(
                g, pra, ocfg), trial
        want = enumerate_answers(g, q, OracleConfig(max_path_len=b))
        assert engine_answers(g, q, max_len=b, cfg=cfg) == want, trial
        seen_empty += res.empty
        seen_answers += bool(want)
    assert seen_empty and seen_answers


def _abc_route(g, having):
    return validate(parse(
        "def route(p) = <E(@1, @1') = 1>* <T>\n"
        'MATCH PATHS (pi) SUCH THAT "a" -pi-> "c" WHERE route(pi)\n'
        + having), g).query.query


ABC_EDGES = Labelling("E", 2, 0, {(1, 2): 1, (2, 3): 1, (1, 3): 1})


def test_opposite_infinities_in_one_row_raise():
    g = Graph(["a", "b", "c"], [
        ABC_EDGES, Labelling("hi", 1, 0, {(1,): POS_INF}),
        Labelling("lo", 1, 0, {(1,): NEG_INF})])
    pra = _abc_route(g, "HAVING hi[pi] + lo[pi] <= 0")
    with pytest.raises(IndeterminateSumError):
        check_empty(AnswerGraph(g, pra), cfg=CFG)
    # from b, the first successor closes the path into a target, and the
    # search stops there before it weighs the one at a
    g = Graph(["a", "b", "c"], [
        Labelling("E", 2, 0, {(2, 1): 1}),
        Labelling("hi", 1, 0, {(1,): POS_INF}),
        Labelling("lo", 1, 0, {(1,): NEG_INF})])
    pra = validate(parse(
        "def route(p) = <E(@1, @1') = 1>* <T>\n"
        'MATCH PATHS (pi) SUCH THAT "b" -pi-> "b" WHERE route(pi)\n'
        "HAVING hi[pi] + lo[pi] <= 0"), g).query.query
    assert check_empty(AnswerGraph(g, pra), cfg=CFG).paths["pi"] == (2,)


def test_huge_int_next_to_infinity_stays_exact():
    # a row sums 10**400 and +inf on one step, and a path adds +inf to
    # 10**400: extended-int rules, never int + float (an OverflowError)
    big = 10 ** 400
    g = Graph(["a", "b", "c"], [
        ABC_EDGES, Labelling("big", 1, 0, {(1,): big, (2,): POS_INF,
                                           (3,): big}),
        Labelling("top", 1, 0, {(1,): POS_INF})])
    pra = _abc_route(g, "HAVING big[pi] + top[pi] >= 0 "
                        f"AND big[pi] <= {10 * big}")
    res = check_empty(AnswerGraph(g, pra), cfg=CFG)
    assert res.paths["pi"] == (1, 3)
    ag = AnswerGraph(g, pra, target=("big", ("pi",)))
    for mode in (MIN, MAX):
        res = extremum(ag, mode, cfg=CFG)
        assert (res.value, res.witness["pi"]) == (2 * big, (1, 3))
    pra = _abc_route(g, "HAVING big[pi] + top[pi] >= 0")
    res = extremum(AnswerGraph(g, pra, target=("big", ("pi",))), MAX,
                   cfg=CFG)
    assert (res.value, res.witness["pi"]) == (POS_INF, (1, 2, 3))


def _leq(u, v):
    return all(a <= b for a, b in zip(u, v))


def _minimal(vecs):
    return {v for v in vecs if not any(_leq(u, v) and u != v for u in vecs)}


def _dominance_streams(dim):
    """Streams of (key, vector) offers: random ones over values with both
    infinities, and for dimension 2 an anti-diagonal, in which every
    vector is incomparable with every other, and one whose first
    components tie, on the infinities too."""
    rng = random.Random(20171012 + dim)
    values = (NEG_INF, -2, -1, 0, 1, 2, POS_INF)
    for _ in range(30):
        yield [(rng.randrange(3), tuple(rng.choice(values)
                                        for _ in range(dim)))
               for _ in range(80)]
    if dim != 2:
        return
    for _ in range(10):
        diagonal = [(NEG_INF, POS_INF), (POS_INF, NEG_INF)] + [
            (i, -i) for i in range(-20, 21)]
        rng.shuffle(diagonal)
        yield [(0, v) for v in diagonal]
        yield [(rng.randrange(2), (rng.choice((NEG_INF, 0, POS_INF)),
                                   rng.choice(values)))
               for _ in range(80)]


@pytest.mark.parametrize("dim", range(5))
def test_dominance_admit_matches_brute_force_antichain(dim):
    # every vector offered to a key so far is kept in `offered`; the store,
    # shaped by the dimension, must hold exactly their distinct minimal
    # elements, and each admit return the ones it replaced
    for stream in _dominance_streams(dim):
        dom = _Dominance(dim)
        offered = {}
        for key, acc in stream:
            stored = _minimal(offered.setdefault(key, []))
            got = dom.admit(key, acc)
            offered[key].append(acc)
            if any(_leq(v, acc) for v in stored):
                assert got is None
            else:
                assert sorted(got) == sorted(v for v in stored
                                             if _leq(acc, v))
        for key, vecs in offered.items():
            kept = dom.vectors(key)
            assert len(kept) == len(set(kept))
            assert set(kept) == _minimal(vecs)
            assert not any(_leq(u, v) for u in kept for v in kept
                           if u is not v)
        assert dom.vectors(3) == []


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


# -- unbounded extrema under derived bounds: pumping -----------------------------

def _automaton(states, transitions):
    return build_automaton_graph(WeightedAutomaton(
        states, (states[0],), (states[-1],), transitions))


def _run_extremum(g, mode: str, having: str = "", target: str = "weight",
                  budget: int = 20_000):
    pra = validate(parse(RUN_QUERY + having), g).query.query
    ag = AnswerGraph(g, pra, target=(target, ("pi",)))
    return extremum(ag, mode, cfg=SolveConfig(visited_budget=budget))


def test_no_pump_is_read_off_an_infinite_vector():
    # a -> b -> c with a detour b -> d -> b, where time(d) is -inf: the
    # detour lowers the target at b to -inf, but a pump needs finite
    # vectors, so the search goes on to the target through d, and the
    # minimum comes with that witness, as the oracle has it
    g = Graph(list("abdc"), [
        Labelling("E", 2, 0, {(1, 2): 1, (2, 3): 1, (3, 2): 1, (2, 4): 1}),
        Labelling("time", 1, 0, {(1,): 1, (2,): 1, (3,): NEG_INF, (4,): 1})])
    vq = validate(parse("def route(p) = <E(@1, @1') = 1>* <T>\n"
                        'MATCH PATHS (pi) SUCH THAT "a" -pi-> "c" '
                        "WHERE route(pi)"), g)
    target = ("time", ("pi",))
    ag = AnswerGraph(g, vq.query.query, target=target)
    for mode, want in ((MIN, (1, 2, 3, 2, 4)), (MAX, (1, 2, 4))):
        res = extremum(ag, mode, cfg=SolveConfig())
        assert res.value == brute_extremum(
            g, vq, target, mode, OracleConfig(max_path_len=7)), mode
        assert res.witness == {"pi": want}, mode
        assert aggregate(g, "time", [want]) == res.value, mode
    assert res.value == 3


@pytest.mark.parametrize("mode, states, transitions, want, expanded", [
    # a -1 loop on q0 before the step into q1
    (MIN, ("q0", "q1"), (("q0", "a", -1, "q0"), ("q0", "a", 0, "q1")),
     NEG_INF, 37),
    (MAX, ("q0", "q1"), (("q0", "a", 1, "q0"), ("q0", "b", 0, "q1")),
     POS_INF, 37),
    # the loop, plus 0-weight detours through q1 and q2 that widen every
    # level after the first
    (MIN, ("q0", "q1", "q2", "q3"), (
        ("q0", "a", -1, "q0"), ("q0", "b", 0, "q1"), ("q1", "a", 0, "q1"),
        ("q1", "b", 1, "q2"), ("q2", "a", 0, "q2"), ("q2", "b", 0, "q3"),
        ("q0", "a", 0, "q3")), NEG_INF, 95),
])
def test_pinned_bounds_stop_at_the_first_better_long_path(
        mode, states, transitions, want, expanded):
    # the two-bound rule returns at the first configuration beyond b1 that
    # beats the best short one, before the rest of depth b1 is expanded:
    # building that whole level first takes 38, 38 and 101 expansions
    g = _automaton(states, transitions)
    pra = validate(parse(RUN_QUERY), g).query.query
    ag = AnswerGraph(g, pra, target=("weight", ("pi",)))
    res = extremum(ag, mode, cfg=SolveConfig(b1=12, b2=24))
    assert res.value == want
    assert res.witness is None
    assert res.stats.expanded == expanded


@pytest.mark.parametrize("having", [
    "",
    # the loop lowers the bounded weight too, so more laps stay within it
    "HAVING weight[pi] <= -3",
])
def test_derived_bounds_pump_an_improving_cycle(having):
    # q0 -a/-1-> q0 lowers the weight of an accepting run on every lap
    g = _automaton(("q0", "q1"), (("q0", "a", -1, "q0"), ("q0", "a", 0, "q1")))
    res = _run_extremum(g, MIN, having)
    assert res.value == NEG_INF
    assert res.witness is None


def test_derived_bounds_pump_fig2_max_attr(fig2):
    # each lap S T P B S adds 73 to attr
    ag = AnswerGraph(fig2, _route_sp(fig2), target=("attr", ("pi",)))
    res = extremum(ag, MAX, cfg=SolveConfig())
    assert res.value == POS_INF
    assert res.witness is None
    assert res.stats.expanded <= 50


def test_cycle_raising_a_having_component_is_not_pumped(fig2):
    # each cycle improves the target but raises the bounded component, so
    # the bound caps the laps; every node adds at least 10 time or 1
    # letter, so the oracle's length bound covers every path within it
    route_sp = ("def route(p) = <E(@1, @1') = 1>* <T>\n"
                'MATCH PATHS (pi) SUCH THAT "S" -pi-> "P" WHERE route(pi)\n')
    # the route s m u enters the loop u w u with more letters and less
    # weight than s u, and a later lap of s u replaces it, so the pump
    # test meets the first lap, with fewer letters, among the ancestors
    loop = _automaton(("s", "m", "u", "w", "f"), (
        ("s", "a", 0, "u"), ("s", "b", -1, "m"), ("m", "b", 0, "u"),
        ("u", "a", -1, "w"), ("w", "a", -1, "u"), ("u", "a", 0, "f")))
    cases = [
        # a lap S T P B S adds 73 attr and 95 time: two fit before T P
        (fig2, route_sp + "HAVING time[pi] <= 360", "attr", MAX, 36,
         5 + 2 * 73 + 40 + 30),
        # a lap u w u takes 2 weight off and adds 2 letters
        (loop, RUN_QUERY + "HAVING letter[pi] <= 6", "weight", MIN, 6, -4),
    ]
    for g, text, target, mode, max_len, want in cases:
        pra = validate(parse(text), g).query.query
        ag = AnswerGraph(g, pra, target=(target, ("pi",)))
        got = extremum(ag, mode, cfg=SolveConfig()).value
        oracle = brute_extremum(g, text, (target, ("pi",)), mode,
                                OracleConfig(max_path_len=max_len))
        assert got == oracle == want


def test_cycle_keeping_the_target_is_not_pumped():
    # the 0-weight loop on u only adds letters, which lowers the bounded
    # component -letter[pi]: the minimum is 0 (s -a/-1-> u, one lap, out),
    # not -inf.  A cycle that lowers a constraint component is not
    # recognised at all, so this search runs out of budget.
    g = _automaton(("s", "u", "f"), (
        ("s", "a", -1, "u"), ("s", "b", 1, "u"), ("u", "a", 0, "u"),
        ("u", "a", 1, "f")))
    with pytest.raises(ResourceExceededError):
        _run_extremum(g, MIN, "HAVING letter[pi] >= 3", budget=2_000)


@pytest.mark.parametrize(
    "mode, states, transitions, having, pinned, expanded", [
    # q1 -b/-1-> q1 lowers the weight toward the bound -2, where it stops:
    # the minimum is -2
    (MIN, ("q0", "q1"), (
        ("q0", "a", 1, "q1"), ("q0", "b", 0, "q0"), ("q0", "b", 1, "q0"),
        ("q1", "a", 1, "q0"), ("q1", "b", -1, "q1")),
     "HAVING weight[pi] >= -2", -2, 4994),
    # no run reaches the final q2, so the maximum is -inf
    (MAX, ("q0", "q1", "q2"), (
        ("q0", "a", 0, "q0"), ("q0", "b", -1, "q1"), ("q1", "b", 1, "q0"),
        ("q1", "b", 1, "q1"), ("q2", "b", 0, "q2")),
     "HAVING weight[pi] <= -2", NEG_INF, 4999),
], ids=[MIN, MAX])
def test_cycle_trading_the_target_for_a_row_runs_out_of_budget(
        monkeypatch, mode, states, transitions, having, pinned, expanded):
    # each lap of a cycle lowers the target and raises the one HAVING row,
    # so every key gains one incomparable two-component vector per lap:
    # such a cycle is not recognised, and under derived bounds the search
    # runs out of budget, its store a staircase that admits each vector
    # with one bisect; pinned bounds answer
    g = _automaton(states, transitions)
    calls = [0]
    le = opra.solver._le

    def counted(u, v):
        calls[0] += 1
        return le(u, v)

    monkeypatch.setattr(opra.solver, "_le", counted)
    with pytest.raises(ResourceExceededError) as err:
        _run_extremum(g, mode, having, budget=5_000)
    assert err.value.expanded == expanded
    # a scan of each key's antichain per admit makes over 10 million
    # componentwise comparisons here; the staircase makes none, and the
    # goal and pump tests under a thousand
    assert calls[0] < 10_000
    pra = validate(parse(RUN_QUERY + having), g).query.query
    ag = AnswerGraph(g, pra, target=("weight", ("pi",)))
    assert extremum(ag, mode, SolveConfig(b1=12, b2=24)).value == pinned


def test_pump_needs_a_completion_with_a_finite_target():
    # the loop on a lowers w, but every route ends at b, where w is +inf
    g = Graph(["a", "b"], [
        Labelling("E", 2, 0, {(1, 1): 1, (1, 2): 1}),
        Labelling("w", 1, 0, {(1,): -1, (2,): POS_INF}),
    ])
    text = ("def route(p) = <E(@1, @1') = 1>* <T>\n"
            'MATCH PATHS (pi) SUCH THAT "a" -pi-> "b" WHERE route(pi)')
    ag = AnswerGraph(g, validate(parse(text), g).query.query,
                     target=("w", ("pi",)))
    res = extremum(ag, MIN, cfg=SolveConfig(visited_budget=5_000))
    assert res.value == POS_INF


Q4 = ("q0", "q1", "q2", "q3")


@pytest.mark.parametrize("g, mode, having, target, want", [
    # the cycle q0 q2 q0 raises the weight, but the final q3 is unreachable
    (_automaton(Q4, (("q0", "a", 1, "q2"), ("q2", "b", 0, "q1"),
                     ("q2", "b", 1, "q0"))), MAX, "", "weight", NEG_INF),
    # the -1 loop on q1 leads nowhere; q3 is only reached from q2
    (_automaton(Q4, (("q0", "b", 1, "q1"), ("q1", "b", -1, "q1"),
                     ("q2", "a", -1, "q3"), ("q2", "a", 1, "q2"),
                     ("q3", "a", 0, "q0"))), MIN, "", "weight", POS_INF),
    # every lap of the loop on u adds a letter; s -a/1-> u leaves it over
    # the weight bound and becomes a dead key, the lighter route through
    # m1..m4 reaches the loop later and must still pump it
    (_automaton(("s", "m1", "m2", "m3", "m4", "u", "f"), (
        ("s", "a", 1, "u"), ("s", "a", -1, "m1"), ("m1", "a", 0, "m2"),
        ("m2", "a", 0, "m3"), ("m3", "a", 0, "m4"), ("m4", "a", 0, "u"),
        ("u", "a", 0, "u"), ("u", "a", 0, "f"))),
     MAX, "HAVING weight[pi] <= 0", "letter", POS_INF),
])
def test_improving_cycle_without_completion(g, mode, having, target, want):
    res = _run_extremum(g, mode, having, target, budget=5_000)
    assert res.value == want


def test_derived_bounds_match_bellman_ford_on_random_automata():
    reference = load_perfbench("reference")
    rng = random.Random(20171012)
    for trial in range(120):
        wa = rand_automaton(rng)
        g = build_automaton_graph(wa)
        for mode in (MIN, MAX):
            got = _run_extremum(g, mode, budget=5_000).value
            want = reference.automaton_extremum(
                wa.initial, wa.final, wa.transitions, mode)
            assert got == want, f"trial {trial} {mode}: {wa}"


def test_searches_admit_no_dead_state(monkeypatch):
    # a state in which an NFA's components are all on the sink while its
    # state is not final has no successor and is no target, so no search
    # admits one, start states included: random instances under pinned
    # bounds (emptiness, both extrema, answer sets) and automaton graphs
    # under derived bounds, pumping and completion searches included
    admitted = []
    admit = _Search._admit

    def spy(self, key):
        got = admit(self, key)
        if got is not None:
            admitted.append((self.ag.plan.nfas, key[0]))
        return got

    monkeypatch.setattr(_Search, "_admit", spy)
    rng = random.Random(2024)
    cfg = SolveConfig(b1=4, b2=8, visited_budget=200_000)
    for _ in range(12):
        g, q = rand_instance(rng, max_len=8, joint_budget=20_000,
                             free_path_p=0.5, max_nodes=4, n_unary=1)
        pra = validate(q, g).query.query
        check_empty(AnswerGraph(g, pra), cfg=cfg)
        search_answers(AnswerGraph(g, pra), 8, cfg)
        target_var = pra.regular_constraints[0].path_vars[0]
        ag = AnswerGraph(g, pra, target=("w0", (target_var,)))
        for mode in (MIN, MAX):
            extremum(ag, mode, cfg=cfg)
    for _ in range(12):
        g = build_automaton_graph(rand_automaton(rng))
        for mode in (MIN, MAX):
            _run_extremum(g, mode, budget=5_000)
    ended = 0
    for nfas, st in admitted:
        for j, (nfa, sel) in enumerate(nfas):
            if all(st.nodes[c] == SINK for c in sel):
                assert st.nfa_states[j] in nfa.final, st
                ended += 1
    assert len(admitted) > 1_500 and ended > 500

import itertools
import random
from dataclasses import replace
from operator import lt

import pytest

import opra.answer_graph
from opra.answer_graph import (
    OMEGA, UNBOUND, AGState, AnswerGraph, _index_key,
)
from opra.automata import eval_node_constraint, step
from opra.engine import engine_answers, evaluate
from opra.errors import ValidationError
from opra.extint import NEG_INF, POS_INF, ext_add
from opra.graph import NO_TARGETS, SINK, Graph, Labelling, aggregate
from opra.ontology import extend
from opra.oracle import OracleConfig, enumerate_satisfying
from opra.oracle import enumerate_answers as oracle_answers
from opra.parser import parse
from opra.query import (
    AggTerm, ArithConstraint, ArithTerm, Concat, ConstAtom, ConstTerm,
    LabelAtom, LabelTerm, Letter, NodeConstraint, OntologyEntry, PosVar,
    PraQuery, RegularConstraint, Star, TRUE_CONSTRAINT, Union_,
)
from opra.solver import (
    MIN, SolveConfig, _Search, check_empty, enumerate_answers, extremum,
)
from opra.validate import query_path_vars, validate

from gensupport import (
    BINARY, BINARY_DEFAULT, BINARY_VALUES, carried_vary, rand_feasible_graph,
    rand_graph, rand_instance, rand_query, rand_regex, rand_sparse_graph,
    route_constraint, step_letters,
)

CFG = SolveConfig(b1=8, b2=16)
ROUTE = "def route(p) = <E(@1, @1') = 1>* <T>\n"


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


def test_a_product_binds_free_variables_to_real_nodes(fig2):
    # only a free variable takes a value, and a bound path holds real
    # nodes only; the sink pads paths inside the product alone
    s, t = fig2.node_id("S"), fig2.node_id("T")
    pra = validate(parse(ROUTE + "MATCH NODES (s) SUCH THAT s -pi-> t "
                         "WHERE route(pi)"), fig2).query.query
    with pytest.raises(ValidationError,
                       match="^cannot bind non-free node variable 't'$"):
        AnswerGraph(fig2, pra, bound_nodes={"t": t})
    with pytest.raises(ValidationError,
                       match="^cannot bind non-free path variable 'pi'$"):
        AnswerGraph(fig2, pra, bound_paths={"pi": (s, t)})
    pra = validate(parse(ROUTE + "MATCH PATHS (pi) SUCH THAT s -pi-> t "
                         "WHERE route(pi)"), fig2).query.query
    with pytest.raises(ValidationError,
                       match="^input paths range over real nodes only$"):
        AnswerGraph(fig2, pra, bound_paths={"pi": (s, SINK, t)})
    res = check_empty(AnswerGraph(fig2, pra, bound_paths={"pi": (s, t)}),
                      cfg=CFG)
    assert not res.empty and res.paths == {"pi": (s, t)}


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


def test_kept_plans_bind_as_fresh_builds(fig2, node):
    # one dict of plans serves builds under other bound names, values,
    # input paths and targets: each binds the plan made for its names and
    # target, and starts and solves as a fresh build does
    pra = validate(parse(
        ROUTE + "MATCH NODES (s, t), PATHS (pi) SUCH THAT s -pi-> t "
        "WHERE route(pi)"), fig2).query.query
    S, T, W = node("S"), node("T"), node("W")
    time, attr = ("time", ("pi",)), ("attr", ("pi",))
    cases = [({}, {"s": S}, None), ({}, {"s": S, "t": T}, None),
             ({}, {"s": W}, None), ({}, {"t": T}, None),
             ({}, {"s": W}, time), ({}, {"s": W}, attr),
             ({}, {}, time), ({"pi": (S, W)}, {}, time),
             ({"pi": (S, T)}, {}, time)]
    plans = {}
    for paths, nodes, target in cases * 2:
        kept = AnswerGraph(fig2, pra, paths, nodes, target, plans=plans)
        fresh = AnswerGraph(fig2, pra, paths, nodes, target)
        assert list(kept.start_states()) == list(fresh.start_states())
        if target is None:
            assert check_empty(kept, CFG) == check_empty(fresh, CFG)
        else:
            assert extremum(kept, MIN, CFG) == extremum(fresh, MIN, CFG)
    assert len(plans) == 7


def test_successors_from_start(fig2, node):
    ag = AnswerGraph(fig2, route_sp(fig2))
    starts = list(ag.start_states())
    assert len(starts) == 1  # literal endpoints pin the single start
    ((st, carried),) = starts
    assert st.pos == OMEGA and st.nodes == (node("S"),)
    # the target literal is read by the step that ends pi; the source
    # literal only picks the first node, so it is carried
    assert (st.env, carried) == ((node("P"),), (node("S"),))
    succ = ag.successors(st)
    # successors that keep the route alive (non-accepting NFA states)
    # must follow the edge relation: S reaches exactly T and W
    nfa = ag.plan.nfas[0][0]
    via_edge = {s.nodes[0] for s in succ if s.nfa_states[0] not in nfa.final}
    assert via_edge == {node("T"), node("W")}
    # structural bound: at most |V|+1 node choices per component here
    assert len(succ) <= (len(list(fig2.real_nodes)) + 1) * len(nfa.moves)
    # a real node in a state without real-letter moves is a dead end
    assert all(s.nodes[0] == SINK for s in succ
               if not nfa.moves[s.nfa_states[0]])


def test_successors_are_edge_neighbours_on_sparse_graph(monkeypatch):
    # from a fixed-endpoint start, route(pi) steps only along E, and
    # closes on the sink only where the path may end; E is decided by its
    # index, so the one letter evaluated is the closing <T> at the sink
    evals = []

    def counted(*args):
        evals.append(args)
        return eval_node_constraint(*args)

    monkeypatch.setattr(opra.answer_graph, "eval_node_constraint", counted)
    g = rand_sparse_graph(random.Random(4), n=100, degree=3)
    edges = g.labellings["E"].entries
    rng = random.Random(5)
    for s, t in [tuple(rng.sample(range(1, 101), 2)) for _ in range(5)] \
            + [(7, 7)]:
        pra = validate(parse(
            "def route(p) = <E(@1, @1') = 1>* <T>\n"
            f'MATCH PATHS (pi) SUCH THAT "{g.node_name(s)}" -pi-> '
            f'"{g.node_name(t)}" WHERE route(pi)'
        ), g).query.query
        ag = AnswerGraph(g, pra)
        ((start, _),) = ag.start_states()
        evals.clear()
        nxt = [st.nodes[0] for st in ag.successors(start)]
        want = [v for (u, v) in edges if u == s] + ([SINK] if s == t else [])
        assert sorted(nxt) == sorted(want), (s, t)
        assert len(evals) == (1 if s == t else 0)


def full_scan_moves(ag, st):
    """Successors of a state without env slots by definition: every next
    node per component, the sink alone after the sink, each NFA moving by
    `automata.step` on its selection."""
    source = ag.plan.source
    reals = tuple(source.real_nodes)
    out = set()
    for v in itertools.product(*[(SINK,) if u == SINK else reals + (SINK,)
                                 for u in st.nodes]):
        per_nfa = [sorted(step(source, nfa, {st.nfa_states[j]},
                               tuple(st.nodes[c] for c in sel),
                               tuple(v[c] for c in sel)))
                   for j, (nfa, sel) in enumerate(ag.plan.nfas)]
        for combo in itertools.product(*per_nfa):
            out.add(AGState(combo, OMEGA, v, st.env))
    return out


def on_second(letter):
    """`letter` with every position variable moved to the second path."""
    def moved(atom):
        if not isinstance(atom, LabelAtom):
            return atom
        return LabelAtom(atom.labelling,
                         tuple(PosVar(2, a.primed) for a in atom.args))
    return NodeConstraint(moved(letter.lhs), letter.op, moved(letter.rhs))


def assert_successors_match_full_scan(sources, shapes):
    # index narrowing and the closing-move rule drop exactly the states
    # where a real node sits in an NFA state without real-letter moves,
    # or an NFA whose selection is all on the sink sits in a state that is
    # not final, which have no successors and are no targets: every other
    # full-scan move is kept.  Over two paths, NFAs over (pi,) and (rho,)
    # memoise their destinations per next node, one over (pi, rho) reads
    # node tuples, and the states still come in (nodes, nfa_states) order
    def closed(letter):
        return Concat(Star(Letter(letter)), Letter(TRUE_CONSTRAINT))

    pi, rho, both = ("pi",), ("rho",), ("pi", "rho")
    for n, (a, b) in enumerate(zip(shapes, shapes[1:] + shapes[:1])):
        one_path = [
            [(closed(a), pi)],
            [(closed(shapes[0]), pi), (closed(a), pi)],
            [(Star(Union_(Letter(a), Letter(b))), pi), (closed(b), pi)]]
        # every third pair over two paths, whose levels are larger
        two_paths = [
            [(closed(a), pi), (closed(b), rho)],
            [(closed(b), rho), (Star(Union_(
                Letter(a), Letter(on_second(b)))), both)],
            [(closed(a), pi), (Concat(Letter(on_second(a)), closed(b)),
                               both), (closed(shapes[0]), rho)]]
        for constraints in one_path + (two_paths if n % 3 == 0 else []):
            pra = PraQuery(regular_constraints=tuple(
                RegularConstraint(r, sel) for r, sel in constraints))
            for g in sources:
                ag = AnswerGraph(g, pra)
                level = {st for st, _ in ag.start_states()}
                for _ in range(3 if ag.plan.k == 1 else 2):
                    nxt, dead = set(), set()
                    for st in level:
                        listed = ag.successors(st)
                        # strictly increasing, so no successor repeats
                        keys = [(x.nodes, x.nfa_states) for x in listed]
                        assert all(map(lt, keys, keys[1:])), st
                        got = set(listed)
                        want = full_scan_moves(ag, st)
                        dropped = {
                            x for x in want if any(
                                x.nfa_states[j] not in nfa.final
                                if all(x.nodes[c] == SINK for c in sel)
                                else not nfa.moves[x.nfa_states[j]]
                                for j, (nfa, sel) in enumerate(ag.plan.nfas))
                        }
                        assert got == want - dropped, (a.text(), st)
                        nxt |= got
                        dead |= dropped
                    assert not any(ag.successors(x) for x in dead)
                    assert not any(map(ag.is_target, dead))
                    level = nxt


def step_letter(name, value, reverse=False, const_first=False):
    args = (PosVar(1), PosVar(1, True))
    atom = LabelAtom(name, args[::-1] if reverse else args)
    if const_first:
        return NodeConstraint(ConstAtom(value), "=", atom)
    return NodeConstraint(atom, "=", ConstAtom(value))


# defined binary labellings over E and a ternary S (default 0), each with
# the step letter values among 0, 1, 2 that index it: a bare stored term
# in either argument order at any value but its default, and an
# aggregate filtered by S at any value but its empty-set one (Max: -inf,
# Count: 0); the collector of `agg` shadows x, so that one has no index
DEFINED_LETTERS = (
    (OntologyEntry("adj", ("x", "y"), LabelTerm("E", ("x", "y"))), (1, 2)),
    (OntologyEntry("back", ("x", "y"), LabelTerm("E", ("y", "x"))),
     (1, 2)),
    (OntologyEntry("twice", ("x", "y"), LabelTerm("S", ("x", "x", "y"))),
     (1, 2)),
    (OntologyEntry("hop", ("x", "y"), AggTerm(
        "Max", "z", LabelTerm("w0", ("z",)),
        LabelTerm("S", ("x", "z", "y")))), (0, 1, 2)),
    (OntologyEntry("via", ("x", "y"), AggTerm(
        "Count", "z", ConstTerm(1), LabelTerm("S", ("z", "y", "x")))),
     (1, 2)),
    (OntologyEntry("agg", ("x", "y"), AggTerm(
        "Sum", "x", LabelTerm("w0", ("x",)),
        LabelTerm("S", ("x", "y", "x")))), ()),
)


def with_ternary(g, rng):
    n = len(g.node_names) - 1
    s = {key: rng.choice((1, 1, 5)) for key in itertools.product(
        range(1, n + 1), repeat=3) if rng.random() < 0.15}
    return Graph(g.node_names[1:],
                 list(g.labellings.values()) + [Labelling("S", 3, 0, s)])


def test_successors_match_full_scan_for_every_letter_shape():
    rng = random.Random(8)
    graphs = [rand_graph(rng, max_nodes=5, n_unary=0) for _ in range(3)]
    shapes = step_letters(1)
    # reversed stored letters, both sides first, at every value
    shapes += [step_letter(name, c, True, const_first)
               for name, values in (("E", (1, 0)), (BINARY, BINARY_VALUES
                                                   + (BINARY_DEFAULT,)))
               for c in values for const_first in (False, True)]
    assert_successors_match_full_scan(graphs, shapes)

    # defined letters, forward and reversed, indexed and not
    views = [extend(with_ternary(rand_graph(rng, max_nodes=5, n_unary=1),
                                 rng), [e for e, _ in DEFINED_LETTERS])
             for _ in range(3)]
    shapes = []
    for entry, indexed in DEFINED_LETTERS:
        for c in (0, 1, 2):
            for reverse in (False, True):
                letter = step_letter(entry.name, c, reverse)
                assert all((_index_key(letter, v) is not None)
                           == (c in indexed) for v in views), letter.text()
                shapes.append(letter)
    assert_successors_match_full_scan(views, shapes)


def table_moves(source, letter):
    """The real moves of the initial state 0 of `<letter>` on `source`:
    its one move enters a final state with no move on, so it is in the
    closing row alone."""
    pra = PraQuery(regular_constraints=(
        RegularConstraint(Letter(letter), ("pi",)),))
    live, closing, _ = AnswerGraph(source, pra).plan.tables[0][0]
    assert live == ()
    return closing


def test_stored_step_letters_are_decided_by_their_index():
    # a stored step letter's exact targets hold on exactly the steps where
    # the letter does, the sink included, in every shape and at every
    # value but the labelling's default, which keeps evaluation; a defined
    # letter's targets bound only its real next nodes, so it gets none
    rng = random.Random(15)
    values = (0, 1, 2, POS_INF, NEG_INF)
    for _ in range(4):
        n = rng.randint(2, 5)
        labs = [Labelling(name, 2, default, {
            key: rng.choice(values)
            for key in itertools.product(range(1, n + 1), repeat=2)
            if rng.random() < 0.5}) for name, default in
            (("E", 0), ("F", 2), ("G", NEG_INF))]
        g = with_ternary(Graph([f"n{i}" for i in range(n)], labs), rng)
        view = extend(g, [e for e, _ in DEFINED_LETTERS] + [
            OntologyEntry("adjF", ("x", "y"), LabelTerm("F", ("x", "y")))])
        # an unvalidated view may define a stored name: lookups read the
        # stored labelling, and so must its step targets
        clash = extend(g, [OntologyEntry("E", ("x", "y"),
                                         LabelTerm("F", ("x", "y")))])
        nodes = list(g.real_nodes) + [SINK]
        for source in (g, view, clash):
            for lab, c in itertools.product(labs, values):
                for reverse, const_first in itertools.product(
                        (False, True), repeat=2):
                    letter = step_letter(lab.name, c, reverse, const_first)
                    ((_, _, exact),) = table_moves(source, letter)
                    assert (exact is None) == (c == lab.default)
                    if exact is None:
                        continue  # the default value keeps evaluation
                    for u, w in itertools.product(nodes, repeat=2):
                        held = w in exact.get(u, NO_TARGETS)[0]
                        assert held == eval_node_constraint(
                            source, letter, (u,), (w,)), (letter.text(), u, w)
        for name in ("hop", "adj", "adjF"):
            assert _index_key(step_letter(name, 1), view) is not None
            for c, reverse in itertools.product(values, (False, True)):
                letter = step_letter(name, c, reverse)
                ((_, _, exact),) = table_moves(view, letter)
                assert exact is None, letter.text()
        # adjF(u, sink) reads 0, not F's default: its support leaves out
        # a step the letter takes
        letter = step_letter("adjF", 0)
        assert _index_key(letter, view) is not None
        assert eval_node_constraint(view, letter, (1,), (SINK,))


def test_move_table_rows_are_split_and_ordered():
    # what lets a step skip the sort and the dedupe: in every row of a
    # random regex's move table the destinations strictly increase, the
    # live row holds exactly the moves into states with a real-letter
    # move and the closing row exactly those into final states, each in
    # the NFA's move order; the targets, where kept, are the live letters'
    rng = random.Random(27)
    for _ in range(80):
        k = rng.randint(1, 2)
        g = rand_graph(rng, max_nodes=4, n_unary=1)
        pra = PraQuery(regular_constraints=(RegularConstraint(
            rand_regex(rng, k, ["w0"]), ("pi", "rho")[:k]),))
        plan = AnswerGraph(g, pra).plan
        ((nfa, _),) = plan.nfas
        for s, (live, closing, targets) in enumerate(plan.tables[0]):
            for row in (live, closing):
                dsts = [dst for _, dst, _ in row]
                assert all(map(lt, dsts, dsts[1:])), (s, dsts)
            moves = [(letter, dst) for letter, dst, _ in nfa.moves[s]]
            assert [(letter, dst) for letter, dst, _ in live] \
                == [(letter, dst) for letter, dst in moves if nfa.moves[dst]]
            assert [(letter, dst) for letter, dst, _ in closing] \
                == [(letter, dst) for letter, dst in moves if dst in nfa.final]
            assert targets is None or len(targets) == len(live)


def free_pra(g, nodes, such_that, where="route(pi)", having=""):
    return validate(parse(
        ROUTE + f"MATCH NODES ({nodes}) SUCH THAT {such_that} "
        f"WHERE {where} {having}"
    ), g).query.query


def test_free_target_starts_unbound():
    # t is read only when pi ends, so s -pi-> t starts from one state per
    # s, not one per (s, t) pair, and the step that ends pi binds t
    g = rand_sparse_graph(random.Random(6), n=20, degree=3)
    ag = AnswerGraph(g, free_pra(g, "s, t", "s -pi-> t"))
    assert ag.plan.lazy_vars == {"t"}
    starts = list(ag.start_states())
    full_env = ag.plan.full_env
    assert sorted(full_env(c, st.env) for st, c in starts) == \
        [(s, UNBOUND) for s in g.real_nodes]
    for st, carried in starts:
        succ = ag.successors(st)
        ends = [x for x in succ if x.nodes == (SINK,)]
        assert ends and all(full_env(carried, x.env) == (st.nodes[0],) * 2
                            for x in ends)
        assert all(x.env == st.env for x in succ if x.nodes != (SINK,))


def test_shared_lazy_target_binds_once(fig2, node):
    ag = AnswerGraph(fig2, free_pra(
        fig2, "s, u, t", "s -pi-> t AND u -rho-> t",
        "route(pi) AND route(rho)"))
    assert ag.plan.lazy_vars == {"t"}
    # t's position in a state's env, which holds the read slots alone
    slot = ag.plan.read_slots.index(ag.plan.env_vars.index("t"))
    ipi, irho = ag.plan.path_vars.index("pi"), ag.plan.path_vars.index("rho")
    S, T = node("S"), node("T")

    def starts(a, b):
        return [st for st, _ in ag.start_states()
                if (st.nodes[ipi], st.nodes[irho]) == (a, b)]

    # at different nodes the two paths cannot end in one step; each may
    # end alone, binding t to its node, and the other may then end only
    # at that node
    for st in starts(S, T):
        succ = ag.successors(st)
        assert not any(x.nodes == (SINK, SINK) for x in succ)
        pi_ended = [x for x in succ if x.nodes[ipi] == SINK]
        rho_ended = [x for x in succ if x.nodes[irho] == SINK]
        assert pi_ended and all(x.env[slot] == S for x in pi_ended)
        assert rho_ended and all(x.env[slot] == T for x in rho_ended)
        for x in pi_ended:
            for y in ag.successors(x):
                assert y.env[slot] == S
                assert y.nodes[irho] != SINK or x.nodes[irho] == S
    # at the same node they end together and t binds there
    for st in starts(S, S):
        both = [x for x in ag.successors(st) if x.nodes == (SINK, SINK)]
        assert both and all(x.env[slot] == S for x in both)


def start_envs(ag):
    """Every start's full env, rebuilt from its state and carried values."""
    return {ag.plan.full_env(c, st.env) for st, c in ag.start_states()}


def test_lazy_only_where_nothing_reads_the_target(fig2, node):
    # a path source, a given node and the target of a bound path are read
    # before their component ends, so they keep one start per value
    ag = AnswerGraph(fig2, free_pra(
        fig2, "s, t, u", "s -pi-> t AND t -rho-> u",
        "route(pi) AND route(rho)"))
    assert ag.plan.lazy_vars == {"u"}
    assert start_envs(ag) == {
        (s, t, UNBOUND) for s in fig2.real_nodes for t in fig2.real_nodes}

    ag = AnswerGraph(fig2, free_pra(fig2, "s, t", "s -pi-> t"),
                     bound_nodes={"t": node("P")})
    assert ag.plan.lazy_vars == frozenset()
    assert {env[1] for env in start_envs(ag)} == {node("P")}

    pra = validate(parse(
        ROUTE + "MATCH NODES (s, t), PATHS (pi) SUCH THAT s -pi-> t "
        "WHERE route(pi)"), fig2).query.query
    stp = tuple(node(x) for x in "STP")
    ag = AnswerGraph(fig2, pra, bound_paths={"pi": stp})
    assert ag.plan.lazy_vars == frozenset()
    assert start_envs(ag) == {(node("S"), node("P"))}


def test_witness_env_names_every_free_node(fig2):
    hop = "<E(@1, @1') = 1> <E(@1, @1') = 1>* <T>"
    pra = free_pra(fig2, "s, t", "s -pi-> t", f"{hop}(pi)",
                   "HAVING time[pi] >= 60")
    res = check_empty(AnswerGraph(fig2, pra), cfg=CFG)
    ext = extremum(AnswerGraph(fig2, pra, target=("time", ("pi",))), MIN,
                   cfg=CFG)
    for env, paths in ((res.env, res.paths), (ext.env, ext.witness)):
        pi = paths["pi"]
        assert env == {"s": pi[0], "t": pi[-1]}
        assert len(pi) >= 2 and UNBOUND not in env.values()
    pra = free_pra(fig2, "s, u, t", "s -pi-> t AND u -rho-> t",
                   f"{hop}(pi) AND {hop}(rho)")
    res = check_empty(AnswerGraph(fig2, pra), cfg=CFG)
    assert res.env == {"s": res.paths["pi"][0], "u": res.paths["rho"][0],
                       "t": res.paths["pi"][-1]}
    assert res.paths["pi"][-1] == res.paths["rho"][-1]


def test_states_hold_the_read_slots_and_chains_keep_their_carried_values():
    # random route queries with free, lazy and bound node variables, and
    # at times a free one that no constraint names: every state's env
    # holds the read slots alone, every configuration carries the values
    # its start came with, the bound ones among them, and the envs of
    # answers and witnesses name every free node at a real node
    rng = random.Random(2801)
    b = 4
    cfg = SolveConfig(b1=b, b2=2 * b, visited_budget=2_000_000)
    ocfg = OracleConfig(max_path_len=2 * b, max_paths=5_000_000)
    kinds = set()
    for trial in range(30):
        g, q = rand_instance(rng, max_len=2 * b, joint_budget=20_000,
                             max_nodes=3, n_unary=1)
        pra = validate(q, g).query.query
        if rng.random() < 0.3:
            pra = replace(pra, match_nodes=pra.match_nodes + ("z",))
        bound = {v: rng.choice(g.real_nodes) for v in pra.match_nodes
                 if rng.random() < 0.3}
        ag = AnswerGraph(g, pra, bound_nodes=bound)
        plan = ag.plan
        kinds |= {"lazy" for v in pra.match_nodes if v in plan.lazy_vars}
        kinds |= {"bound"} if bound else set()
        kinds |= {"carried"} if carried_vary(ag) else set()

        # every admitted configuration, answer or not
        search, admitted = _Search(ag, cfg), []
        admit = search._admit

        def spy(key):
            replaced = admit(key)
            if replaced is not None:
                admitted.append(key)
            return replaced

        search._admit = spy
        for _ in search.levels(2 * b):
            pass
        for st, (carried, _), _, parent in admitted:
            assert len(st.env) == len(plan.read_slots), trial
            assert len(carried) == len(plan.carried_slots), trial
            assert parent is None or parent[1][0] == carried, trial
            full = plan.full_env(carried, st.env)
            assert all(full[plan.env_vars.index(v)] == x
                       for v, x in bound.items()), trial

        res = check_empty(ag, cfg=cfg)
        sat = list(enumerate_satisfying(g, pra, ocfg, bound))
        assert res.empty == (not sat), trial
        if not res.empty:
            assert (res.env, res.paths) in sat, trial
            assert set(pra.match_nodes) <= set(res.env), trial
        got, _ = enumerate_answers(ag, max_len=b, cfg=cfg)
        assert got == oracle_answers(g, replace(q, query=pra),
                                     OracleConfig(max_path_len=b), bound), \
            trial
        assert all(len(nodes) == len(pra.match_nodes)
                   and UNBOUND not in nodes for nodes, _ in got), trial
    assert kinds == {"lazy", "bound", "carried"}


def test_bottom_self_loop_state(fig2):
    # a state where every path has terminated and every NFA accepts
    # keeps itself among its successors; with an NFA in a state that is
    # not final it has no successors and is no target
    ag = AnswerGraph(fig2, route_sp(fig2))
    from opra.answer_graph import AGState

    final = tuple(sorted(nfa.final)[0] for nfa, _ in ag.plan.nfas)
    env = next(iter(ag.start_states()))[0].env
    st = AGState(final, OMEGA, (SINK,), env)
    assert ag.is_target(st)
    assert st in ag.successors(st)
    for j, (nfa, _) in enumerate(ag.plan.nfas):
        for s in set(range(len(nfa.moves))) - nfa.final:
            dead = AGState(final[:j] + (s,) + final[j + 1:], OMEGA, (SINK,),
                           env)
            assert not ag.is_target(dead)
            assert ag.successors(dead) == []


def test_is_target_definition(fig2, node):
    ag = AnswerGraph(fig2, route_sp(fig2))
    for st, _ in ag.start_states():
        assert not ag.is_target(st)  # node component is non-sink
    # assemble a target state by hand: final NFA states, all sink
    final = tuple(sorted(nfa.final)[0] for nfa, _ in ag.plan.nfas)
    from opra.answer_graph import AGState

    st = AGState(final, OMEGA, (SINK,), next(ag.start_states())[0].env)
    assert ag.is_target(st)


def test_weight_vector(fig2, node):
    text = (
        'def route(p) = <E(@1, @1\') = 1>* <T>\n'
        'MATCH PATHS (pi) SUCH THAT "S" -pi-> "P" WHERE route(pi) '
        'HAVING time[pi] <= 360'
    )
    pra = validate(parse(text), fig2).query.query
    ag = AnswerGraph(fig2, pra)
    ((start, _),) = ag.start_states()
    at_t = [s for s in ag.successors(start) if s.nodes[0] == node("T")]
    assert all(ag.weight(s) == (10,) for s in at_t)
    assert ag.weight(start) == (10,)  # S also has time 10
    from opra.answer_graph import AGState

    sink_state = AGState(start.nfa_states, OMEGA, (SINK,), start.env)
    assert ag.weight(sink_state) == (0,)


def test_readers_match_label_value():
    # a reader of a stored labelling reads its entries directly, a unary
    # one over a default of 0 in one lookup; it must read what the
    # source's label_value reads on every node tuple but the all-sink
    # one, defaults of every kind included, and 0 there, as must a
    # defined labelling's reader
    rng = random.Random(24)
    values = (-2, 0, 3, POS_INF, NEG_INF)
    for _ in range(10):
        g = Graph(["a", "b", "c"], [
            Labelling(name, arity, rng.choice(values), {
                key: rng.choice(values)
                for key in itertools.product((1, 2, 3), repeat=arity)
                if rng.random() < 0.6})
            for name, arity in (("u", 1), ("e", 2))])
        view = extend(g, [OntologyEntry("d", ("x",), LabelTerm("u", ("x",)))])
        plan = AnswerGraph(view, PraQuery(regular_constraints=(
            RegularConstraint(Letter(TRUE_CONSTRAINT), ("pi", "rho")),
        ))).plan
        nodes = (SINK, 1, 2, 3)
        for name, sel in (("u", (0,)), ("u", (1,)), ("d", (1,)),
                          ("e", (0, 1)), ("e", (1, 0))):
            read = plan._reader(name, sel)
            for tup in itertools.product(nodes, repeat=2):
                key = tuple(tup[c] for c in sel)
                want = 0 if set(key) == {SINK} \
                    else view.label_value(name, key)
                assert read(tup) == want, (name, sel, tup)


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
    ((start, _),) = ag.start_states()
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
    for st, carried in ag.start_states():
        acc = ag.weight(st)
        chain = [st]
        for _ in range(rng.randint(1, 6)):
            succ = ag.successors(chain[-1])
            if not succ:
                break
            nxt = rng.choice(succ)
            acc = tuple(ext_add(a, w) for a, w in zip(acc, ag.weight(nxt)))
            chain.append(nxt)
        _, paths = ag.decode(chain, carried)
        if any(st.nodes[i] != SINK for i in range(ag.plan.k)
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
        # every path variable free, so each one's component is reported
        pra = vq.query.query
        ag = AnswerGraph(g, replace(pra, match_paths=query_path_vars(pra)))
        got, _ = enumerate_answers(ag, max_len=3,
                                   cfg=SolveConfig(visited_budget=2_000_000))
        want = set()
        for env, paths in enumerate_satisfying(
                g, pra, OracleConfig(max_path_len=3, max_paths=2_000_000)):
            nodes = tuple(env[v] for v in pra.match_nodes)
            want.add((nodes, tuple(paths[v] for v in ag.plan.path_vars)))
        assert got == want, f"trial {trial} diverged"


# (query, answer counts at bounds 3, 4 and 5)
ENDPOINT_CASES = (
    # two sources on one path must agree
    ("MATCH NODES (s, u, t) SUCH THAT s -pi-> t AND u -pi-> t "
     "WHERE route(pi)", (17, 23, 25)),
    # a literal source beside a variable one
    ('MATCH NODES (s, t) SUCH THAT s -pi-> t AND "S" -pi-> t '
     "WHERE route(pi)", (4, 5, 5)),
    # a literal target beside a variable one, on a free path
    ('MATCH NODES (s, t), PATHS (pi) SUCH THAT s -pi-> t AND s -pi-> "T" '
     "WHERE route(pi)", (3, 4, 6)),
    # no path at all: every start state is a target
    ("MATCH NODES (x)", (5, 5, 5)),
)


@pytest.mark.parametrize("text, counts", ENDPOINT_CASES)
def test_endpoint_rules_match_oracle(fig2, text, counts):
    vq = validate(parse(ROUTE + text), fig2)
    for bound, count in zip((3, 4, 5), counts):
        got = engine_answers(fig2, vq, max_len=bound,
                             cfg=SolveConfig(b1=bound, b2=bound + 1))
        assert got == oracle_answers(fig2, vq,
                                     OracleConfig(max_path_len=bound))
        assert len(got) == count


def test_path_free_query_is_met_by_a_start_state(fig2):
    res = evaluate(fig2, "MATCH NODES (x)", cfg=CFG)
    assert not res.empty
    assert res.env == {"x": "S"} and res.paths == {}
    assert res.stats.expanded == 0


@pytest.mark.parametrize("path, empty", [
    ("STP", False),   # ends at the literal target
    ("ST", True),     # a route that ends elsewhere
    ("TP", True),     # ends at the target but starts off the source
    ("", True),       # no first or last node
])
def test_bound_path_against_literal_endpoints(fig2, path, empty):
    q = ('MATCH NODES (s), PATHS (pi) SUCH THAT s -pi-> "P" AND '
         '"S" -pi-> "P" WHERE route(pi)')
    res = evaluate(fig2, ROUTE + q, cfg=CFG, bound_paths={"pi": list(path)})
    assert res.empty is empty
    if not empty:
        assert res.env == {"s": "S"} and res.paths == {"pi": list(path)}

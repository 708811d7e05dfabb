"""Metamorphic laws: relations between two runs that hold whatever the
right answer is, so they need no reference and cover instances the
oracle cannot enumerate.

  * L1, node renaming: permuting node ids changes no emptiness outcome,
    extremum value, answer set (mapped back to names) or error kind.
    Witnesses may differ, as generation order follows node ids.
  * L2, history: a view answers every lookup of its definitions the
    same, in any order, as a fresh view asked that lookup alone.  This
    covers the view's memo, its plan cache and its answer tables.
"""

import itertools
import random

import opra
from opra.corpus import QUERY_NAMES, fixture_graph, load_query
from opra.errors import OpraError
from opra.graph import Graph, Labelling
from opra.ontology import extend
from opra.solver import SolveConfig

from gensupport import rand_instance

PINNED = SolveConfig(b1=4, b2=8)
# derived bounds run into the thousands: the budget keeps each search
# small, and a search that exhausts it reads as its error kind
DERIVED = SolveConfig(visited_budget=1000)
# (instance, order, bounds, operation) where L1 fails at present.  MAX
# under derived bounds on instance 11, whose free node b is a path's
# source and target: n0 has no in-edge, so a pump check's completion
# search for b = n0 finds no target, and as its one row
# `-2 * w0[p0] - 2 * w0[p0]` falls on the n1 <-> n2 cycle, its frontier
# never dies out and it spends the shared budget.  In reverse node
# order a pump check for b = n3 reads +inf before it runs.
KNOWN_FAULTS = {(11, 0, "derived", "max")}


def _outcome(run):
    """run's result, or the kind of the `OpraError` it raised."""
    try:
        return run()
    except OpraError as e:
        return type(e).__name__


def _renamed(g: Graph, order) -> Graph:
    """g with its nodes given new ids: `order` lists the old ids in the
    new id order.  Names and labelling values stay with their nodes."""
    new = {old: i for i, old in enumerate(order, 1)}
    return Graph([g.node_name(v) for v in order], [
        Labelling(lab.name, lab.arity, lab.default,
                  {tuple([new[v] for v in key]): x
                   for key, x in lab.entries.items()})
        for lab in g.labellings.values()])


def _results(g: Graph, q, target_var: str) -> dict:
    """Emptiness, MIN and MAX of w0 over target_var, and the answer set
    with node ids read as names, at pinned and at derived bounds."""
    def names(answers):
        return {(tuple(map(g.node_name, nodes)),
                 tuple(tuple(map(g.node_name, p)) for p in paths))
                for nodes, paths in answers}

    out = {}
    for bounds, cfg in (("pinned", PINNED), ("derived", DERIVED)):
        out[bounds, "empty"] = _outcome(
            lambda: opra.evaluate(g, q, cfg).empty)
        for mode in ("min", "max"):
            out[bounds, mode] = _outcome(lambda: opra.evaluate_extremum(
                g, q, "w0", mode, cfg, target_paths=[target_var]).value)
        out[bounds, "answers"] = _outcome(lambda: names(
            opra.engine_answers(g, q, max_len=5, cfg=cfg)))
    return out


def test_node_renaming_changes_no_answer():
    # each instance against its nodes in reverse order, which moves the
    # highest id to another node, and in a random order
    rng = random.Random(1801)
    kinds, faults = set(), set()
    for i in range(30):
        g, q = rand_instance(rng, max_len=5, joint_budget=20_000,
                             max_nodes=4, n_unary=1)
        target_var = q.query.regular_constraints[0].path_vars[0]
        want = _results(g, q, target_var)
        reals = list(g.real_nodes)
        for j, order in enumerate((reals[::-1],
                                   rng.sample(reals, len(reals)))):
            got = _results(_renamed(g, order), q, target_var)
            faults.update((i, j) + op for op in want if got[op] != want[op])
        kinds.update(r if isinstance(r, str) else type(r).__name__
                     for r in want.values())
    assert faults == KNOWN_FAULTS
    # answers, values and a budget error all occur
    assert {"bool", "int", "set", "ResourceExceededError"} <= kinds, kinds


def _corpus_definitions(g: Graph) -> list:
    """Every definition of the fig2 corpus, each name once."""
    by_name = {}
    for name in QUERY_NAMES:
        for entry in load_query(name, g).query.ontology:
            by_name.setdefault(entry.name, entry)
    return list(by_name.values())


def test_lookups_do_not_depend_on_history():
    # one view holds every corpus definition, so that definitions of one
    # arity share node tuples; each lookup is also asked of a fresh view
    g = fixture_graph()
    entries = _corpus_definitions(g)
    lookups = [(e.name, key) for e in entries
               for key in itertools.product(g.real_nodes,
                                            repeat=len(e.params))]
    rng = random.Random(1802)
    for cfg in (SolveConfig(b1=8, b2=16), DERIVED):
        fresh = {(name, key): _outcome(
                     lambda: extend(g, entries, cfg).label_value(name, key))
                 for name, key in lookups}
        assert len(set(fresh.values())) > 2
        for _ in range(3):
            view = extend(g, entries, cfg)
            order = rng.sample(lookups, len(lookups))
            # then some again, as the memo and the tables answer them
            for name, key in order + order[:20]:
                got = _outcome(lambda: view.label_value(name, key))
                assert got == fresh[name, key], (cfg, name, key)

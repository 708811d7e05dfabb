"""Shared generators and reference helpers for the test suite.

Random instances are built from seeded `random.Random` objects so every
test run sees the same cases.  Graph/query generators keep instances
small enough that the brute-force oracle stays exact at the differential
bounds; a walk-count guard rerolls graphs whose route trees would blow
up the enumeration.
"""

from __future__ import annotations

import importlib
import itertools
import random
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from opra.embedding import WeightedAutomaton
from opra.errors import DuplicateLabellingNameError, ValidationError
from opra.graph import Graph, Labelling
from opra.query import (
    ArithConstraint, ArithTerm, ConstAtom, LabelAtom, Letter, NodeConstraint,
    NodeRef, OpraQuery, PathConstraint, PosVar, PraQuery, RegularConstraint,
    Star, TRUE_CONSTRAINT, Union_, Concat,
)

ROUTE_REGEX = Concat(
    Star(Letter(NodeConstraint(LabelAtom("E", (PosVar(1), PosVar(1, True))),
                               "=", ConstAtom(1)))),
    Letter(TRUE_CONSTRAINT),
)


def route_constraint(var: str) -> RegularConstraint:
    return RegularConstraint(ROUTE_REGEX, (var,))


# a second stored binary labelling, with a non-zero default
BINARY = "F"
BINARY_DEFAULT = 2
BINARY_VALUES = (0, 1, 3)


# -- random graphs -------------------------------------------------------------

def rand_graph(rng: random.Random, max_nodes: int = 5,
               n_unary: int = 2, value_range: Tuple[int, int] = (-3, 3),
               edge_p: Optional[float] = None) -> Graph:
    n = rng.randint(2, max_nodes)
    names = [f"n{i}" for i in range(n)]
    p = edge_p if edge_p is not None else rng.uniform(0.25, 0.5)
    edges = {}
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if rng.random() < p:
                edges[(i, j)] = 1
    labellings = [Labelling("E", 2, 0, edges)]
    for u in range(n_unary):
        entries = {}
        for i in range(1, n + 1):
            v = rng.randint(*value_range)
            if v != 0:
                entries[(i,)] = v
        labellings.append(Labelling(f"w{u}", 1, 0, entries))
    pairs = {}
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if rng.random() < 0.5:
                pairs[(i, j)] = rng.choice(BINARY_VALUES)
    labellings.append(Labelling(BINARY, 2, BINARY_DEFAULT, pairs))
    return Graph(names, labellings)


def rand_sparse_graph(rng: random.Random, n: int, degree: int) -> Graph:
    """Nodes n0..n{n-1}, each with `degree` distinct random E-successors."""
    edges = {}
    for i in range(1, n + 1):
        for j in rng.sample(range(1, n + 1), degree):
            edges[(i, j)] = 1
    return Graph([f"n{i}" for i in range(n)], [Labelling("E", 2, 0, edges)])


def rand_timed_graph(rng: random.Random, n: int, degree: int) -> Graph:
    """`rand_sparse_graph` plus a unary `time` in 1..10 on every node."""
    g = rand_sparse_graph(rng, n, degree)
    time = Labelling("time", 1, 0,
                     {(i,): rng.randint(1, 10) for i in g.real_nodes})
    return Graph(g.node_names[1:], [g.labellings["E"], time])


def count_walks(g: Graph, max_len: int) -> int:
    """Number of nonempty E-respecting walks with at most max_len nodes."""
    reals = list(g.real_nodes)
    ending_at = {v: 1 for v in reals}
    total = len(reals)
    for _ in range(max_len - 1):
        nxt: Dict[int, int] = {}
        for u, c in ending_at.items():
            for v in reals:
                if g.label_value("E", (u, v)) == 1:
                    nxt[v] = nxt.get(v, 0) + c
        if not nxt:
            break
        total += sum(nxt.values())
        ending_at = nxt
    return total


def rand_feasible_graph(rng: random.Random, max_len: int,
                        walk_budget: int, **kw) -> Graph:
    for _ in range(60):
        g = rand_graph(rng, **kw)
        if count_walks(g, max_len) <= walk_budget:
            return g
    return rand_graph(rng, max_nodes=3, edge_p=0.2, **{
        k: v for k, v in kw.items() if k not in ("max_nodes", "edge_p")
    })


def joint_cost(g: Graph, q: OpraQuery, max_len: int) -> int:
    """Rough bound on the oracle's joint enumeration tree: the product
    over path variables of their route-walk counts (plus end branches)."""
    walks = 2 * count_walks(g, max_len) + 2
    from opra.validate import query_path_vars

    est = 1
    for _ in query_path_vars(q.query):
        est *= walks
        if est > 10 ** 12:
            break
    return est


def rand_instance(rng: random.Random, max_len: int,
                  joint_budget: int = 60_000,
                  free_path_p: float = 0.25,
                  **graph_kw) -> Tuple[Graph, OpraQuery]:
    """A (graph, query) pair the oracle can enumerate exactly at max_len."""
    for _ in range(200):
        g = rand_graph(rng, **graph_kw)
        q = rand_query(rng, g, free_path_p=free_path_p)
        if joint_cost(g, q, max_len) <= joint_budget:
            return g, q
    g = rand_graph(rng, max_nodes=2, edge_p=0.3)
    return g, rand_query(rng, g, free_path_p=free_path_p)


# -- random regexes over node constraints ----------------------------------------

def step_letters(i: int) -> List[NodeConstraint]:
    """Letters over a binary labelling on the i-th path's step, in every
    shape successor narrowing must classify: indexable `L(@i, @i') = c`,
    `c = L(@i, @i')` and the reversed `L(@i', @i) = c` with c not L's
    default, and the unindexable default value and non-equality
    comparison."""
    step = LabelAtom("E", (PosVar(i), PosVar(i, True)))
    other = LabelAtom(BINARY, (PosVar(i), PosVar(i, True)))
    return [
        NodeConstraint(step, "=", ConstAtom(1)),
        NodeConstraint(ConstAtom(1), "=", step),
        NodeConstraint(step, "=", ConstAtom(0)),
        NodeConstraint(LabelAtom("E", (PosVar(i, True), PosVar(i))), "=",
                       ConstAtom(1)),
        NodeConstraint(step, "<", ConstAtom(1)),
        NodeConstraint(ConstAtom(0), "=", other),
    ] + [
        NodeConstraint(other, "=", ConstAtom(c))
        for c in BINARY_VALUES + (BINARY_DEFAULT,)
    ]


def _rand_letter(rng: random.Random, k: int, labellings: Sequence[str]):
    kind = rng.random()
    if kind < 0.35:
        i = rng.randint(1, k)
        if rng.random() < 0.4:
            return Letter(step_letters(i)[0])
        return Letter(rng.choice(step_letters(i)))
    if kind < 0.55 and k >= 2:
        return Letter(NodeConstraint(
            LabelAtom("E", (PosVar(1), PosVar(2))), "=", ConstAtom(1)
        ))
    if kind < 0.8 and labellings:
        lab = rng.choice(labellings)
        i = rng.randint(1, k)
        op = rng.choice(["<=", "<", "="])
        prim = rng.random() < 0.3
        return Letter(NodeConstraint(
            LabelAtom(lab, (PosVar(i, prim),)), op,
            ConstAtom(rng.randint(-3, 3)),
        ))
    return Letter(TRUE_CONSTRAINT)


def rand_regex(rng: random.Random, k: int, labellings: Sequence[str],
               depth: int = 3):
    if depth <= 0 or rng.random() < 0.35:
        return _rand_letter(rng, k, labellings)
    shape = rng.random()
    if shape < 0.35:
        return Concat(rand_regex(rng, k, labellings, depth - 1),
                      rand_regex(rng, k, labellings, depth - 1))
    if shape < 0.65:
        return Union_(rand_regex(rng, k, labellings, depth - 1),
                      rand_regex(rng, k, labellings, depth - 1))
    body = rand_regex(rng, k, labellings, depth - 1)
    return body if isinstance(body, Star) else Star(body)


# -- random queries ----------------------------------------------------------------

def rand_query(rng: random.Random, g: Graph,
               free_path_p: float = 0.25) -> OpraQuery:
    """A route-shaped query: every path variable carries a route
    constraint, plus optional extra regular, path and arithmetical
    constraints; at most one free path variable."""
    unary = sorted(n for n, lab in g.labellings.items() if lab.arity == 1)
    k = rng.choice([1, 1, 2])
    path_vars = [f"p{i}" for i in range(k)]
    regular = [route_constraint(v) for v in path_vars]
    if rng.random() < 0.6:
        regular.append(RegularConstraint(
            rand_regex(rng, 1, unary, depth=3), (rng.choice(path_vars),)
        ))
    if k == 2 and rng.random() < 0.4:
        regular.append(RegularConstraint(
            rand_regex(rng, 2, unary, depth=2), tuple(path_vars)
        ))

    node_pool = ["a", "b"]
    path_constraints = []
    used_nodes: List[str] = []
    for v in path_vars:
        if rng.random() < 0.7:
            src, tgt = rng.choice(node_pool), rng.choice(node_pool)
            path_constraints.append(
                PathConstraint(NodeRef(src), v, NodeRef(tgt))
            )
            used_nodes += [src, tgt]

    arith = []
    for _ in range(rng.randint(0, 2)):
        terms = []
        for _ in range(rng.randint(1, 2)):
            if not unary:
                break
            terms.append(ArithTerm(
                rng.choice([-2, -1, 1, 2]), rng.choice(unary),
                (rng.choice(path_vars),),
            ))
        if terms:
            arith.append(ArithConstraint(tuple(terms), rng.randint(-8, 10)))

    free_nodes = tuple(sorted(set(
        v for v in used_nodes if rng.random() < 0.6
    )))
    free_paths: Tuple[str, ...] = ()
    if rng.random() < free_path_p:
        free_paths = (path_vars[0],)
    pra = PraQuery(
        match_nodes=free_nodes,
        match_paths=free_paths,
        path_constraints=tuple(path_constraints),
        regular_constraints=tuple(regular),
        arith_constraints=tuple(arith),
    )
    return OpraQuery((), pra)


# -- weighted automata ----------------------------------------------------------------

# runs of a weighted automaton are the routes of its automaton graph from
# an initial-flagged transition to a final-flagged one
RUN_QUERY = """
def route(p) = <E(@1, @1') = 1>* <T>
MATCH PATHS (pi)
WHERE route(pi) AND <initial(@1) = 1> <T>*(pi) AND <T>* <final(@1) = 1>(pi)
"""


def rand_automaton(rng: random.Random) -> WeightedAutomaton:
    """Any automaton on 2-5 states with 2-8 transitions of weight -1/0/1,
    from q0 to the last state: cycles of every sign, on a run or off it,
    and automata with no run at all."""
    n = rng.randint(2, 5)
    states = tuple(f"q{i}" for i in range(n))
    trans = {(rng.choice(states), rng.choice("ab"), rng.choice((-1, 0, 1)),
              rng.choice(states)) for _ in range(rng.randint(2, 8))}
    return WeightedAutomaton(states, (states[0],), (states[-1],),
                             tuple(sorted(trans)))


def rand_dag_automaton(rng: random.Random) -> WeightedAutomaton:
    """Cycle-free automaton: transitions only go forward in state order,
    so every route in its transition graph is finite."""
    n = rng.randint(2, 5)
    states = [f"q{i}" for i in range(n)]
    letters = ["a", "b"][: rng.randint(1, 2)]
    trans = []
    for i in range(n - 1):
        trans.append((states[i], rng.choice(letters),
                      rng.choice([-1, 0, 1]), states[i + 1]))
    for _ in range(rng.randint(0, 4)):
        i = rng.randrange(n - 1)
        j = rng.randrange(i + 1, n)
        trans.append((states[i], rng.choice(letters),
                      rng.choice([-1, 0, 1]), states[j]))
    return WeightedAutomaton(
        states=tuple(states),
        initial=(states[0],),
        final=(states[-1],),
        transitions=tuple(dict.fromkeys(trans)),
    )


def automaton_graph_has_pumpable_negative_cycle(g: Graph) -> bool:
    """Bellman-Ford check on the transition graph: is there a negative
    cycle lying on some route from an initial-flagged node to a
    final-flagged one?"""
    nodes = list(g.real_nodes)
    edges = [
        (u, v) for u in nodes for v in nodes
        if g.label_value("E", (u, v)) == 1
    ]
    starts = {v for v in nodes if g.label_value("initial", (v,)) == 1}
    ends = {v for v in nodes if g.label_value("final", (v,)) == 1}

    def reachable(seed, adjacency):
        seen = set(seed)
        work = list(seed)
        while work:
            u = work.pop()
            for v in adjacency.get(u, ()):
                if v not in seen:
                    seen.add(v)
                    work.append(v)
        return seen

    fwd: Dict[int, List[int]] = {}
    back: Dict[int, List[int]] = {}
    for u, v in edges:
        fwd.setdefault(u, []).append(v)
        back.setdefault(v, []).append(u)
    alive = reachable(starts, fwd) & reachable(ends, back)
    dist = {v: 0 for v in alive}
    for _ in range(len(alive)):
        changed = False
        for u, v in edges:
            if u in alive and v in alive:
                w = g.label_value("weight", (v,))
                if dist[u] + w < dist[v]:
                    dist[v] = dist[u] + w
                    changed = True
        if not changed:
            return False
    for u, v in edges:
        if u in alive and v in alive:
            if dist[u] + g.label_value("weight", (v,)) < dist[v]:
                return True
    return False


# -- RPQ-over-embedding test material ----------------------------------------------

RPQ_SHAPES = [
    ("a",),
    ("a", "star"),
    ("a", "b"),
    ("a", "b", "star"),
    ("a", "union_b"),
]


def rpq_regex_text(shape, letters) -> str:
    """Word regex over the hop labellings, one step per data edge."""
    def letter(a):
        return f"<hop_{a}(@1, @1') = 1>"

    a, b = letters
    if shape == ("a",):
        return letter(a)
    if shape == ("a", "star"):
        return f"{letter(a)}*"
    if shape == ("a", "b"):
        return f"{letter(a)} {letter(b)}"
    if shape == ("a", "b", "star"):
        return f"{letter(a)} {letter(b)}*"
    return f"({letter(a)} + {letter(b)})*"


def rpq_query_text(shape, letters) -> str:
    """The embedded form of an RPQ: symbol testers from node literals,
    per-letter hop labellings from the edge triples, and a data-node
    restriction, all as on-demand labellings."""
    from opra.embedding import symbol_node

    regex = rpq_regex_text(shape, letters)
    a, b = letters
    lets = ",\n    ".join(
        f'is_{x}(v) := [ MATCH NODES (v) SUCH THAT "{symbol_node(x)}" '
        f'-r-> v WHERE <T>(r) ]'
        for x in letters
    ) + ",\n    " + ",\n    ".join(
        f"hop_{x}(v, w) := agg Max z {{ is_{x}(z) : E3(v, z, w) }}"
        for x in letters
    ) + f",\n    is_data(v) := 1 - Max(is_{a}(v), is_{b}(v))"
    return (
        f"LET {lets} IN\n"
        f"MATCH NODES (s, t)\n"
        f"SUCH THAT s -pi-> t\n"
        f"WHERE {regex} <T>(pi) AND <is_data(@1) = 1> <T>*(pi)"
    )


def data_rpq_answers(dg, shape, letters, max_edges: int):
    """Direct data-graph RPQ semantics by exhaustive word enumeration."""
    a, b = letters

    def words_ok(word):
        if shape == ("a",):
            return word == (a,)
        if shape == ("a", "star"):
            return all(x == a for x in word)
        if shape == ("a", "b"):
            return word == (a, b)
        if shape == ("a", "b", "star"):
            return len(word) >= 1 and word[0] == a and \
                all(x == b for x in word[1:])
        return True  # (a+b)* accepts every word over the alphabet

    adj: Dict[str, List[Tuple[str, str]]] = {}
    for u, x, w in dg.edges:
        adj.setdefault(u, []).append((x, w))
    answers = set()
    for start in dg.nodes:
        frontier = [(start, ())]
        while frontier:
            node_, word = frontier.pop()
            if words_ok(word):
                answers.add((start, node_))
            if len(word) >= max_edges:
                continue
            for x, w in adj.get(node_, ()):
                frontier.append((w, word + (x,)))
    return answers


def rand_data_graph(rng: random.Random, letters=("a", "b"),
                    max_nodes: int = 4):
    from opra.embedding import DataGraph

    n = rng.randint(2, max_nodes)
    nodes = tuple(f"v{i}" for i in range(n))
    edges = tuple(dict.fromkeys(
        (rng.choice(nodes), rng.choice(letters), rng.choice(nodes))
        for _ in range(rng.randint(1, 2 * n))
    ))
    return DataGraph(nodes, letters, edges, {})


_DG = {"nodes": ["a", "b"], "alphabet": ["x"], "edges": [["a", "x", "b"]]}
# data-graph JSON that loading must reject with GraphLoadError
BAD_DATA_GRAPHS = {
    "no_nodes": {"alphabet": []},
    "not_an_object": [1, 2],
    "label_not_array": {**_DG, "labels": {"a": 5}},
    "short_edge": {**_DG, "edges": [["a", "x"]]},
    "label_not_int": {**_DG, "labels": {"a": ["q", True]}},
    "label_bool": {**_DG, "labels": {"a": [1, True]}},
    "label_unknown_node": {**_DG, "labels": {"zz": [3]}},
}


# queries that parse but fail validation on any graph, each with its error
INVALID_QUERIES = (
    ("MATCH NODES (s, s)", ValidationError),
    ("MATCH PATHS (p, p)", ValidationError),
    ("LET f(x) := 1, f(y) := 2 IN MATCH NODES (s)",
     DuplicateLabellingNameError),
    ("LET f(x, x) := 1 IN MATCH NODES (s)", ValidationError),
)


# -- misc -------------------------------------------------------------------------------

def all_paths(nodes: Sequence[int], max_len: int):
    """Every sequence over `nodes` with length at most max_len."""
    yield ()
    for length in range(1, max_len + 1):
        yield from itertools.product(nodes, repeat=length)


CHAIN_SHAPES = ("concat", "union", "+", "&&")


def chain_query(shape: str, n: int) -> str:
    """A query holding a chain of n operands of one binary operator:
    concatenation or union in a regex, `+` or `&&` in a term."""
    if shape in ("concat", "union"):
        sep = " " if shape == "concat" else " + "
        return "MATCH PATHS (p) WHERE " + sep.join(["<T>"] * n) + " (p)"
    return ("LET f(x) := " + f" {shape} ".join(["1"] * n)
            + "\nIN MATCH NODES (s) SUCH THAT s -p-> s")


# -- the benchmark's own modules ------------------------------------------------------

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_perfbench(name: str):
    """A module of perfbench/, imported unedited from its file; its plain
    imports of sibling modules (workloads imports reference) resolve
    there too."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(str(PERFBENCH))


"""The benchmark's four seeded workloads.

Each workload turns a seed into plain-Python inputs (`make`), builds the
program's graphs and parses and validates its queries from them
(`Case.setup`, the timed set-up), and lists the operations of one round
(`Case.ops`), each with the reference answer it is checked against.
The operations call only the public API of `opra`, and always through
the package's module attributes at call time, so that the traced run
can wrap the names each caller resolves.

Every round holds the same operations in the same order for any seed,
so a run made of whole rounds fails the same share of them whatever the
seed and however long the run.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from importlib import resources
from typing import Callable, Dict, List, Optional, Sequence

import opra
import opra.corpus

import reference as ref

INF = float("inf")


@dataclass
class Op:
    """One operation: `run` calls `opra` and returns its output, `check`
    tells whether that output is right.  `known_fault` names the fault an
    operation is kept for when it is expected to fail."""

    name: str
    run: Callable[[], object]
    check: Callable[[object], bool]
    known_fault: Optional[str] = None


@dataclass
class Case:
    setup: Callable[[], object]
    ops: Callable[[object], List[Op]]


# -- seeded inputs ---------------------------------------------------------------

def route_graph(rng: random.Random, n: int, degree: int = 3):
    """Sparse directed graph: `degree` distinct out-neighbours per node and
    a unary `time` in 1..10.  Returns the adjacency, the weights and the
    graph in the JSON form `opra.graph_from_dict` reads."""
    adj = {
        i: sorted(rng.sample([j for j in range(n) if j != i], degree))
        for i in range(n)
    }
    time = [rng.randint(1, 10) for _ in range(n)]
    data = {
        "nodes": [f"v{i}" for i in range(n)],
        "labellings": {
            "E": {"arity": 2, "entries": [
                [f"v{u}", f"v{v}", 1] for u in range(n) for v in adj[u]
            ]},
            "time": {"arity": 1, "entries": [
                [f"v{u}", time[u]] for u in range(n)
            ]},
        },
    }
    return adj, time, data


def node_ids(names: Sequence[str]) -> List[int]:
    return [int(name[1:]) for name in names]


def fig2_data() -> dict:
    """The corpus fixture graph in the JSON form graph_from_dict reads."""
    path = resources.files("opra.corpus").joinpath("fig2.json")
    return json.loads(path.read_text("utf-8"))


# -- route_fixed -----------------------------------------------------------------

ROUTE_DEF = "def route(p) = <E(@1, @1') = 1>* <T>\n"
FIXED_QUERY = ROUTE_DEF + (
    'MATCH PATHS (pi)\nSUCH THAT "v{s}" -pi-> "v{t}"\n'
    "WHERE route(pi)\nHAVING time[pi] <= {bound}\n"
)
# The bound is generous enough that a query explores the whole graph, so
# its cost follows n and not the size of its search ball around s, which
# differs five-fold between pairs on one graph under tight bounds.
FIXED_SIZE = 100
FIXED_GRAPHS = 3
FIXED_PAIRS = 3
FIXED_BOUND = 60
# pinned bounds: a walk under the time bound has at most 60 nodes <= b1
FIXED_B = (60, 120)


def hop_distances(adj, s: int) -> Dict[int, int]:
    dist = {s: 0}
    frontier = [s]
    while frontier:
        nxt = []
        for u in frontier:
            for v in adj[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    nxt.append(v)
        frontier = nxt
    return dist


def make_route_fixed(seed: int) -> Case:
    rng = random.Random(seed)
    graphs = []
    for _ in range(FIXED_GRAPHS):
        adj, time, data = route_graph(rng, FIXED_SIZE)
        pairs = []
        for _ in range(FIXED_PAIRS):
            # the far end of the breadth-first search from s
            s = rng.randrange(FIXED_SIZE)
            hops = hop_distances(adj, s)
            far = max(hops.values())
            t = rng.choice(sorted(v for v, h in hops.items() if h == far))
            best = ref.route_weights(adj, time, s, FIXED_BOUND).get(t, INF)
            pairs.append((s, t, best))
        graphs.append((adj, time, data, pairs))

    def setup():
        built = []
        for _, _, data, pairs in graphs:
            g = opra.graph_from_dict(data)
            built.append((g, [
                opra.validate(opra.parse(FIXED_QUERY.format(
                    s=s, t=t, bound=FIXED_BOUND)), g)
                for s, t, _ in pairs
            ]))
        return built

    def ops(built) -> List[Op]:
        cfg = opra.SolveConfig(b1=FIXED_B[0], b2=FIXED_B[1])
        out = []
        for (adj, time, _, pairs), (g, vqs) in zip(graphs, built):
            for (s, t, best), vq in zip(pairs, vqs):
                # one route request: is there a route within the bound,
                # and how long does the fastest one take?
                out.append(Op(
                    f"route v{s}->v{t}",
                    lambda g=g, vq=vq: (
                        opra.evaluate(g, vq, cfg),
                        opra.evaluate_extremum(g, vq, "time", "min", cfg)),
                    lambda r, adj=adj, time=time, s=s, t=t, best=best:
                        _fixed_ok(r, adj, time, s, t, best),
                ))
        return out

    return Case(setup, ops)


def _fixed_ok(res, adj, time, s, t, best) -> bool:
    empty, fastest = res
    if empty.empty != (best == INF) or fastest.value != best:
        return False
    if best == INF:
        return True
    pi = node_ids(fastest.witness["pi"])
    return ref.route_witness_ok(
        adj, time, node_ids(empty.paths["pi"]), s, t, FIXED_BOUND, 2) \
        and ref.route_witness_ok(adj, time, pi, s, t, FIXED_BOUND, 2) \
        and sum(time[v] for v in pi) == best


# -- route_free ------------------------------------------------------------------

# a route of at least one hop, so that emptiness is not decided by a
# single node
FREE_QUERY = (
    "MATCH NODES (s, t)\nSUCH THAT s -pi-> t\n"
    "WHERE <E(@1, @1') = 1> <E(@1, @1') = 1>* <T>(pi)\n"
    "HAVING time[pi] <= {bound}\n"
)
# Every node is light enough to start a route under these bounds, so a
# query always starts from all n^2 (s, t) pairs: its cost follows n and
# not the seed's count of light nodes.  Every one-hop route (at most
# 10 + 10) fits FREE_BOUND, so the search finds its witness only after
# whole levels and expands 4 n^2 states for every seed; under a bound of
# 10 it stopped at the first light edge in its order, and the count of
# states it expanded differed up to two-fold between graphs.  The sizes
# make an emptiness query and an enumeration cost about the same, so that
# the run's median latency falls inside one cluster of operations, not
# between two.
FREE_SIZE = 20
FREE_GRAPHS = 6
FREE_BOUND = 20
ENUM_SIZE = 8
ENUM_GRAPHS = 6
ENUM_BOUND = 20
ENUM_MAX_LEN = 4
FREE_B = (40, 80)


def make_route_free(seed: int) -> Case:
    rng = random.Random(seed)
    free = [route_graph(rng, FREE_SIZE) for _ in range(FREE_GRAPHS)]
    enum = [route_graph(rng, ENUM_SIZE) for _ in range(ENUM_GRAPHS)]

    def setup():
        query = opra.parse(FREE_QUERY.format(bound=FREE_BOUND))
        enum_query = opra.parse(FREE_QUERY.format(bound=ENUM_BOUND))
        built = []
        for graphs, q in ((free, query), (enum, enum_query)):
            for _, _, data in graphs:
                g = opra.graph_from_dict(data)
                built.append((g, opra.validate(q, g)))
        return built

    def ops(built) -> List[Op]:
        cfg = opra.SolveConfig(b1=FREE_B[0], b2=FREE_B[1])
        out = []
        for (adj, time, _), (g, vq) in zip(free, built):
            lightest = ref.lightest_edge_route(adj, time)
            out.append(Op(
                f"route n={FREE_SIZE} time<={FREE_BOUND}",
                lambda g=g, vq=vq: opra.evaluate(g, vq, cfg),
                lambda r, adj=adj, time=time, lightest=lightest:
                    _free_ok(r, adj, time, lightest),
            ))
        for (adj, time, _), (g, vq) in zip(enum, built[FREE_GRAPHS:]):
            want = {
                (f"v{s}", f"v{t}") for s, t in
                ref.bounded_pairs(adj, time, ENUM_MAX_LEN, ENUM_BOUND)
            }
            out.append(Op(
                f"answers n={ENUM_SIZE} len<={ENUM_MAX_LEN}",
                lambda g=g, vq=vq: opra.engine_answers(
                    g, vq, max_len=ENUM_MAX_LEN, cfg=cfg),
                lambda r, g=g, want=want: {
                    tuple(g.node_name(v) for v in nodes) for nodes, _ in r
                } == want,
            ))
        return out

    return Case(setup, ops)


def _free_ok(res, adj, time, lightest) -> bool:
    if res.empty:
        return lightest > FREE_BOUND
    s, t = node_ids([res.env["s"], res.env["t"]])
    return ref.route_witness_ok(
        adj, time, node_ids(res.paths["pi"]), s, t, FREE_BOUND, 2)


# -- automaton_extrema -----------------------------------------------------------

RUN_QUERY = ROUTE_DEF + (
    "MATCH PATHS (pi)\n"
    "WHERE route(pi) AND <initial(@1) = 1> <T>*(pi) "
    "AND <T>* <final(@1) = 1>(pi)\n"
)
# pinned bounds: b1 exceeds every cycle-free run of the generated
# automata, and b2 - b1 leaves room to pump any of their cycles
AUTO_B = (24, 96)
# A fixed number of transitions, nearly all of them fixed in place on the
# looping automata, keeps a search's size alike from seed to seed.
PUMP_TRANSITIONS = 9
DAG_TRANSITIONS = 12
PUMP_AUTOMATA = 12
DAG_AUTOMATA = 3
# The solver does not recognise an unbounded extremum under the derived
# default bounds (derive_bounds reaches its 10^7 cap), so these two
# queries exhaust the visited budget.  They do not depend on the seed.
FAULT = "unbounded extremum not recognised under default bounds"
FAULT_BUDGET = 20_000
FIXED_PUMP = (
    ("q0", "q1"), ("q0",), ("q1",),
    (("q0", "a", -1, "q0"), ("q0", "a", 0, "q1")),
)


def pump_automaton(rng: random.Random):
    """A run from `in` to `out` passes an all -1 cycle of three states
    and then an all +1 cycle of two, so both extrema are unbounded and
    every pinned search runs to b2; a random further transition makes up
    the rest."""
    c = ["c0", "c1", "c2"]
    p = ["p0", "p1"]
    trans = {(c[i], rng.choice("ab"), -1, c[(i + 1) % 3]) for i in range(3)}
    trans |= {("p0", rng.choice("ab"), 1, "p1"),
              ("p1", rng.choice("ab"), 1, "p0"),
              ("in", rng.choice("ab"), 0, "c0"),
              (rng.choice(c), rng.choice("ab"), 0, rng.choice(p)),
              (rng.choice(p), rng.choice("ab"), 0, "out")}
    while len(trans) < PUMP_TRANSITIONS:
        trans.add((rng.choice(c + p), rng.choice("ab"),
                   rng.choice((-1, 0, 1)), rng.choice(c + p + ["out"])))
    return tuple(c + p + ["in", "out"]), ("in",), ("out",), \
        tuple(sorted(trans))


def dag_automaton(rng: random.Random):
    """Transitions only go forward in state order: every run is finite."""
    states = [f"q{i}" for i in range(7)]
    trans = {(states[i], rng.choice("ab"), rng.choice((-1, 0, 1)),
              states[i + 1]) for i in range(6)}
    while len(trans) < DAG_TRANSITIONS:
        i = rng.randrange(6)
        trans.add((states[i], rng.choice("ab"), rng.choice((-1, 0, 1)),
                   states[rng.randrange(i + 1, 7)]))
    return tuple(states), (states[0],), (states[-1],), tuple(sorted(trans))


def make_automaton_extrema(seed: int) -> Case:
    rng = random.Random(seed)
    pinned = [pump_automaton(rng) for _ in range(PUMP_AUTOMATA)]
    dags = [dag_automaton(rng) for _ in range(DAG_AUTOMATA)]
    fig2 = opra.corpus.query_text("q_route_sp")
    fixture = fig2_data()
    fig2_max = opra.corpus.load_goldens()["extrema"]["max_attr_route_sp"]

    def setup():
        query = opra.parse(RUN_QUERY)
        built = []
        for wa in pinned + dags + [FIXED_PUMP]:
            g = opra.build_automaton_graph(opra.WeightedAutomaton(*wa))
            built.append((g, opra.validate(query, g)))
        g = opra.graph_from_dict(fixture)
        built.append((g, opra.validate(opra.parse(fig2), g)))
        return built

    def ops(built) -> List[Op]:
        pin = opra.SolveConfig(b1=AUTO_B[0], b2=AUTO_B[1])
        default = opra.SolveConfig()
        out = []
        # cycle-free automata run under the derived default bounds, where
        # their frontier dies out on its own
        plans = [(wa, "pinned", pin) for wa in pinned]
        plans += [(wa, "default", default) for wa in dags]
        for (wa, label, cfg), (g, vq) in zip(plans, built):
            for mode in ("min", "max"):
                want = ref.automaton_extremum(wa[1], wa[2], wa[3], mode)
                out.append(Op(
                    f"{mode} weight {len(wa[3])} transitions {label}",
                    lambda g=g, vq=vq, mode=mode, cfg=cfg:
                        opra.evaluate_extremum(g, vq, "weight", mode, cfg),
                    lambda r, want=want: r.value == want,
                ))
        budget = opra.SolveConfig(visited_budget=FAULT_BUDGET)
        g, vq = built[-2]
        want = ref.automaton_extremum(*FIXED_PUMP[1:], "min")
        out.append(Op(
            "min weight fixed pumpable automaton, default bounds",
            lambda: opra.evaluate_extremum(g, vq, "weight", "min", budget),
            lambda r, want=want: r.value == want, known_fault=FAULT,
        ))
        g2, vq2 = built[-1]
        out.append(Op(
            "max attr fig2 q_route_sp, default bounds",
            lambda: opra.evaluate_extremum(g2, vq2, "attr", "max", budget),
            lambda r: opra.extint.to_json(r.value) == fig2_max["value"],
            known_fault=FAULT,
        ))
        return out

    return Case(setup, ops)


# -- ontology_nested -------------------------------------------------------------

def _is_symbol(x: str) -> str:
    return (f'is_{x}(v) := [ MATCH NODES (v) SUCH THAT "sigma:{x}" -r-> v '
            f"WHERE <T>(r) ]")


def _hop(x: str) -> str:
    return f"hop_{x}(v, w) := agg Max z {{ is_{x}(z) : E3(v, z, w) }}"


def _step(x: str) -> str:
    return f"<hop_{x}(@1, @1') = 1>"


# RPQ over the edge symbols a, b: the regex over hop labellings, and the
# word language it stands for
RPQ_SHAPES = (
    ("a", _step("a"), lambda w: w == ("a",)),
    ("a*", _step("a") + "*", lambda w: all(x == "a" for x in w)),
    ("ab", _step("a") + " " + _step("b"), lambda w: w == ("a", "b")),
    ("ab*", _step("a") + " " + _step("b") + "*",
     lambda w: w[:1] == ("a",) and all(x == "b" for x in w[1:])),
    ("(a+b)*", f"({_step('a')} + {_step('b')})*", lambda w: True),
)
RPQ_QUERY = (
    "LET {defs},\n    is_data(v) := 1 - Max(is_a(v), is_b(v)) IN\n"
    "MATCH NODES (s, t)\nSUCH THAT s -pi-> t\n"
    "WHERE {regex} <T>(pi) AND <is_data(@1) = 1> <T>*(pi)\n"
)
RPQ_SIZES = (4, 5, 6, 7, 8)
RPQ_MAX_LEN = 5  # product-path length: data paths of up to 4 edges


def rpq_text(regex: str) -> str:
    defs = ",\n    ".join([_is_symbol("a"), _is_symbol("b"),
                           _hop("a"), _hop("b")])
    return RPQ_QUERY.format(defs=defs, regex=regex)


def data_graph(rng: random.Random, n: int) -> dict:
    """Every node has one a-edge and one b-edge to random targets, so the
    number of words of each length is the same for any seed."""
    nodes = [f"d{i}" for i in range(n)]
    edges = [[u, a, rng.choice(nodes)] for u in nodes for a in "ab"]
    return {"nodes": nodes, "alphabet": ["a", "b"], "edges": edges}


def make_ontology_nested(seed: int) -> Case:
    rng = random.Random(seed)
    dgs = [data_graph(rng, n) for n in RPQ_SIZES]
    corpus = opra.corpus
    goldens = corpus.load_goldens()
    texts = {name: corpus.query_text(name) for name in corpus.QUERY_NAMES}
    fixture = fig2_data()

    def setup():
        g = opra.graph_from_dict(fixture)
        fig2 = {name: opra.validate(opra.parse(text), g)
                for name, text in texts.items()}
        shapes = [opra.parse(rpq_text(regex)) for _, regex, _ in RPQ_SHAPES]
        rpqs = []
        for dg in dgs:
            eg = opra.embed(opra.data_graph_from_dict(dg))
            rpqs.append((eg, [opra.validate(q, eg) for q in shapes]))
        return g, fig2, rpqs

    def ops(built) -> List[Op]:
        g, fig2, rpqs = built
        cfg = corpus.CORPUS_CONFIG
        out = []
        for name, bound in corpus.ANSWER_PLANS:
            want = goldens["answers"][name]["answers"]
            out.append(Op(
                f"fig2 answers {name}",
                lambda vq=fig2[name], bound=bound:
                    opra.engine_answers(g, vq, max_len=bound, cfg=cfg),
                lambda r, vq=fig2[name], want=want:
                    _canonical(g, vq, r) == want,
            ))
        for key, qname, target, mode in corpus.EXTREMUM_PLANS:
            want = goldens["extrema"][key]["value"]
            out.append(Op(
                f"fig2 {key}",
                lambda vq=fig2[qname], target=target, mode=mode:
                    opra.evaluate_extremum(g, vq, target, mode, cfg),
                lambda r, want=want: opra.extint.to_json(r.value) == want,
            ))
        out.extend(_fig2_terms(g, fig2, goldens["terms"], cfg))
        for dg, (eg, vqs) in zip(dgs, rpqs):
            edges = [tuple(e) for e in dg["edges"]]
            for (shape, _, accepts), vq in zip(RPQ_SHAPES, vqs):
                want = ref.rpq_pairs(dg["nodes"], edges, accepts,
                                     RPQ_MAX_LEN - 1)
                out.append(Op(
                    f"rpq {shape} on {len(dg['nodes'])} nodes",
                    lambda eg=eg, vq=vq: opra.engine_answers(
                        eg, vq, max_len=RPQ_MAX_LEN),
                    lambda r, eg=eg, want=want: {
                        tuple(eg.node_name(v) for v in nodes)
                        for nodes, _ in r
                    } == want,
                ))
        return out

    return Case(setup, ops)


def _canonical(g, vq, answers) -> List[dict]:
    """The goldens' form of an answer set: names, sorted by JSON text."""
    pra = vq.query.query
    out = [{
        "nodes": {v: g.node_name(n) for v, n in zip(pra.match_nodes, nodes)},
        "paths": {v: [g.node_name(n) for n in p]
                  for v, p in zip(pra.match_paths, paths)},
    } for nodes, paths in answers]
    out.sort(key=lambda e: json.dumps(e, sort_keys=True))
    return out


def _fig2_terms(g, fig2, goldens, cfg) -> List[Op]:
    """Labelling values looked up on a fresh ontology view per operation."""
    def term(qname, label, nodes):
        def run():
            view = opra.extend(g, fig2[qname].query.ontology,
                               solve_config=cfg)
            return [view.label_value(label, tuple(g.node_id(n) for n in ns))
                    for ns in nodes]
        return run

    crowded = sorted(goldens["crowded"])
    return [
        Op("fig2 term t_walk(W)",
           term("processed_labellings", "t_walk", [("W",)]),
           lambda r: [opra.extint.to_json(v) for v in r]
           == [goldens["t_walk_W"]]),
        Op("fig2 term mas(S, T), mas(S, W)",
           term("neighbourhood", "mas", [("S", "T"), ("S", "W")]),
           lambda r: [opra.extint.to_json(v) for v in r]
           == [goldens["mas_S_T"], goldens["mas_S_W"]]),
        Op("fig2 term crowded(x) for every x",
           term("nested_queries", "crowded", [(n,) for n in crowded]),
           lambda r: [opra.extint.to_json(v) for v in r]
           == [goldens["crowded"][n] for n in crowded]),
    ]


# the reason for each workload is in BENCHMARK.json
WORKLOADS: Dict[str, Callable[[int], Case]] = {
    "route_fixed": make_route_fixed,
    "route_free": make_route_free,
    "ontology_nested": make_ontology_nested,
    "automaton_extrema": make_automaton_extrema,
}

"""Tests of the benchmark's reference checks against `opra.oracle`.

    python3 -m pytest perfbench/test_reference.py

Each function of reference.py is compared with the brute-force oracle,
which enumerates path tuples literally, on small seeded instances built
by the same generators the workloads use (or smaller ones of the same
shape where the oracle's enumeration would be too large).
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import opra  # noqa: E402
from opra.oracle import (  # noqa: E402
    OracleConfig, brute_extremum, enumerate_answers, enumerate_satisfying,
)

import reference as ref  # noqa: E402
import workloads as wl  # noqa: E402

INF = float("inf")


def small_route_graph(seed: int, n: int = 6):
    adj, time, data = wl.route_graph(random.Random(seed), n, degree=2)
    time = [1 + t % 4 for t in time]  # keep oracle walks short
    for row in data["labellings"]["time"]["entries"]:
        row[1] = time[int(row[0][1:])]
    return adj, time, opra.graph_from_dict(data)


def fixed_query(g, s: int, t: int, bound: int):
    return opra.validate(opra.parse(wl.FIXED_QUERY.format(
        s=s, t=t, bound=bound)), g)


def test_route_weights_and_emptiness_match_oracle():
    bound = 7
    for seed in range(6):
        adj, time, g = small_route_graph(seed)
        for s in range(len(adj)):
            best = ref.route_weights(adj, time, s, bound)
            for t in range(len(adj)):
                if t == s:
                    continue
                vq = fixed_query(g, s, t, bound)
                # every node weighs at least 1: no walk under the bound
                # has more than `bound` nodes
                cfg = OracleConfig(max_path_len=bound)
                want = brute_extremum(g, vq, ("time", ("pi",)), "min", cfg)
                assert best.get(t, INF) == want
                assert bool(enumerate_answers(g, vq, cfg)) == (want != INF)


def test_route_witness_property():
    bound = 7
    adj, time, g = small_route_graph(3)
    checked = 0
    for s in range(len(adj)):
        for t in range(len(adj)):
            if t == s:
                continue
            vq = fixed_query(g, s, t, bound)
            cfg = OracleConfig(max_path_len=bound)
            for _, paths in enumerate_satisfying(g, vq.query.query, cfg):
                pi = [int(g.node_name(v)[1:]) for v in paths["pi"]]
                assert ref.route_witness_ok(adj, time, pi, s, t, bound, 2)
                weight = sum(time[v] for v in pi)
                assert not ref.route_witness_ok(adj, time, pi, s, t,
                                                weight - 1, 2)
                assert not ref.route_witness_ok(adj, time, pi[:-1], s, t,
                                                bound, 2)
                non_edge = [v for v in adj if v not in adj[pi[-1]]]
                assert not ref.route_witness_ok(
                    adj, time, pi + non_edge[:1], s, non_edge[0], bound, 2)
                checked += 1
    assert checked > 0


def test_free_routes_match_oracle():
    for seed in range(6):
        adj, time, g = small_route_graph(100 + seed, n=5)
        for bound, max_nodes in ((3, 3), (5, 3), (6, 4)):
            vq = opra.validate(opra.parse(
                wl.FREE_QUERY.format(bound=bound)), g)
            got = enumerate_answers(g, vq, OracleConfig(
                max_path_len=max_nodes))
            want = ref.bounded_pairs(adj, time, max_nodes, bound)
            assert {tuple(int(g.node_name(v)[1:]) for v in nodes)
                    for nodes, _ in got} == want
            everything = enumerate_answers(g, vq, OracleConfig(
                max_path_len=bound))
            assert bool(everything) == (
                ref.lightest_edge_route(adj, time) <= bound)


def tiny_automaton(rng: random.Random):
    states = [f"s{i}" for i in range(rng.randint(2, 3))]
    trans = {(rng.choice(states), rng.choice("ab"), rng.choice((-1, 0, 1)),
              rng.choice(states)) for _ in range(rng.randint(2, 5))}
    return (tuple(states), (states[0],), (states[-1],), tuple(sorted(trans)))


def test_automaton_extremum_matches_oracle():
    rng = random.Random(7)
    query = opra.parse(wl.RUN_QUERY)
    dags = [wl.dag_automaton(rng) for _ in range(4)]
    tiny = [tiny_automaton(rng) for _ in range(30)]
    kinds = {"finite": 0, "infinite": 0}
    for wa in dags + tiny:
        g = opra.build_automaton_graph(opra.WeightedAutomaton(*wa))
        vq = opra.validate(query, g)
        n = len(wa[3])
        for mode in ("min", "max"):
            want = ref.automaton_extremum(wa[1], wa[2], wa[3], mode)

            def oracle(length):
                return brute_extremum(g, vq, ("weight", ("pi",)), mode,
                                      OracleConfig(max_path_len=length))

            if want in (INF, -INF) and oracle(n) not in (INF, -INF):
                # a pumpable cycle: longer runs keep improving
                kinds["infinite"] += 1
                assert want == (-INF if mode == "min" else INF)
                better = oracle(3 * n)
                assert better < oracle(n) if mode == "min" \
                    else better > oracle(n)
            else:
                # no improving cycle: a run need not repeat a transition
                kinds["finite"] += 1
                assert oracle(n) == want
    assert kinds["finite"] and kinds["infinite"]


def test_pump_automata_are_unbounded_both_ways():
    rng = random.Random(11)
    for _ in range(20):
        wa = wl.pump_automaton(rng)
        assert ref.automaton_extremum(wa[1], wa[2], wa[3], "min") == -INF
        assert ref.automaton_extremum(wa[1], wa[2], wa[3], "max") == INF


def test_rpq_pairs_match_oracle():
    rng = random.Random(5)
    for n in (3, 4):
        dg = wl.data_graph(rng, n)
        eg = opra.embed(opra.data_graph_from_dict(dg))
        edges = [tuple(e) for e in dg["edges"]]
        for shape, regex, accepts in wl.RPQ_SHAPES:
            vq = opra.validate(opra.parse(wl.rpq_text(regex)), eg)
            got = enumerate_answers(eg, vq, OracleConfig(max_path_len=4))
            want = ref.rpq_pairs(dg["nodes"], edges, accepts, 3)
            assert {tuple(eg.node_name(v) for v in nodes)
                    for nodes, _ in got} == want, shape


def test_fig2_goldens_are_the_oracle_values():
    assert opra.corpus.generate_goldens() == opra.corpus.load_goldens()

"""Reference answers computed without `opra`.

Every workload output is checked against one of these: classic graph
algorithms run directly on the benchmark's own plain-Python inputs
(adjacency lists, weight lists, automaton transition tuples, data-graph
edge triples).  Nothing here imports `opra`, so a fault in the engine
cannot hide in its own check.  `test_reference.py` tests each function
against the brute-force `opra.oracle` on small seeded instances.

Conventions shared with the engine's route queries: a route is a walk
along `E` edges, a node-weighted walk sums the weight of every node it
visits (both endpoints included), and a product path of length L covers
walks of at most L nodes.
"""

from __future__ import annotations

import heapq
import math
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

INF = math.inf

Adjacency = Mapping[int, Sequence[int]]


def route_weights(adj: Adjacency, weight: Sequence[int], s: int,
                  bound: int) -> Dict[int, int]:
    """Least node-weighted walk from s to every node it reaches through
    at least one edge, for the nodes where that weight is at most
    `bound`.  Dijkstra over nodes with positive weights; the walk must
    leave s, so s itself is only settled when reached through an edge."""
    best: Dict[int, int] = {}
    heap: List[Tuple[int, int]] = []
    for v in adj.get(s, ()):
        heapq.heappush(heap, (weight[s] + weight[v], v))
    while heap:
        d, u = heapq.heappop(heap)
        if d > bound:
            break
        if u in best:
            continue
        best[u] = d
        for v in adj.get(u, ()):
            if v not in best:
                heapq.heappush(heap, (d + weight[v], v))
    return best


def route_witness_ok(adj: Adjacency, weight: Sequence[int],
                     path: Sequence[int], s: Optional[int], t: Optional[int],
                     bound: int, min_nodes: int = 1) -> bool:
    """Property every route witness must have: it starts at s, ends at t
    (either may be None for "any node"), follows E, has at least
    `min_nodes` nodes and weighs at most `bound`."""
    if len(path) < min_nodes:
        return False
    if s is not None and path[0] != s:
        return False
    if t is not None and path[-1] != t:
        return False
    follows_e = all(b in adj.get(a, ()) for a, b in zip(path, path[1:]))
    return follows_e and sum(weight[v] for v in path) <= bound


def lightest_edge_route(adj: Adjacency, weight: Sequence[int]) -> float:
    """Least weight of any walk with at least one edge.  With positive
    node weights that is the lightest single edge."""
    return min(
        (weight[u] + weight[v] for u, vs in adj.items() for v in vs),
        default=INF,
    )


def bounded_pairs(adj: Adjacency, weight: Sequence[int], max_nodes: int,
                  bound: int) -> Set[Tuple[int, int]]:
    """(s, t) pairs joined by a walk of 2..max_nodes nodes weighing at most
    `bound`: a hop-bounded dynamic programme over walk length."""
    pairs: Set[Tuple[int, int]] = set()
    for s in adj:
        # lightest walk from s ending at each node, by number of nodes
        layer = {s: weight[s]}
        for _ in range(max_nodes - 1):
            nxt: Dict[int, int] = {}
            for u, d in layer.items():
                for v in adj.get(u, ()):
                    dv = d + weight[v]
                    if dv <= bound and dv < nxt.get(v, INF):
                        nxt[v] = dv
            pairs.update((s, v) for v in nxt)
            layer = nxt
    return pairs


# -- weighted automata -----------------------------------------------------------

Transition = Tuple[str, str, int, str]  # (source, letter, weight, target)


def automaton_extremum(initial: Iterable[str], final: Iterable[str],
                       transitions: Sequence[Transition], mode: str) -> float:
    """MIN or MAX of the weight sum over runs with at least one
    transition from an initial to a final state.

    Bellman-Ford over states, restricted to transitions that lie on some
    run: a cycle there that improves the value (negative for MIN,
    positive for MAX) can be pumped without bound, giving -inf / +inf.
    No run at all gives the empty-set convention, +inf for MIN and -inf
    for MAX.
    """
    sign = 1 if mode == "min" else -1
    initial, final = set(initial), set(final)
    fwd: Dict[str, Set[str]] = {}
    back: Dict[str, Set[str]] = {}
    for p, _, _, q in transitions:
        fwd.setdefault(p, set()).add(q)
        back.setdefault(q, set()).add(p)
    reach = _closure(initial, fwd)
    coreach = _closure(final, back)
    live = [(p, sign * w, q) for p, _, w, q in transitions
            if p in reach and q in coreach]
    # dist[q]: least signed weight of a non-empty run prefix ending in q
    dist: Dict[str, float] = {}
    for p, w, q in live:
        if p in initial:
            dist[q] = min(dist.get(q, INF), w)
    states = {x for p, _, q in live for x in (p, q)}
    for _ in range(len(states)):
        changed = False
        for p, w, q in live:
            if p in dist and dist[p] + w < dist.get(q, INF):
                dist[q] = dist[p] + w
                changed = True
        if not changed:
            break
    else:
        if any(p in dist and dist[p] + w < dist.get(q, INF)
               for p, w, q in live):
            return -INF if mode == "min" else INF
    best = min((dist[q] for q in final if q in dist), default=INF)
    return best if mode == "min" else -best


def _closure(seed: Iterable[str], edges: Mapping[str, Set[str]]) -> Set[str]:
    seen = set(seed)
    work = list(seen)
    while work:
        u = work.pop()
        for v in edges.get(u, ()):
            if v not in seen:
                seen.add(v)
                work.append(v)
    return seen


# -- regular path queries on data graphs -----------------------------------------

def rpq_pairs(nodes: Sequence[str], edges: Iterable[Tuple[str, str, str]],
              accepts, max_edges: int) -> Set[Tuple[str, str]]:
    """(s, t) pairs joined by a data path of at most `max_edges` edges whose
    edge-symbol word `accepts` takes, by enumerating the words directly."""
    out: Dict[str, List[Tuple[str, str]]] = {}
    for u, a, v in edges:
        out.setdefault(u, []).append((a, v))
    pairs = set()
    for s in nodes:
        stack = [(s, ())]
        while stack:
            u, word = stack.pop()
            if accepts(word):
                pairs.add((s, u))
            if len(word) < max_edges:
                stack.extend((v, word + (a,)) for a, v in out.get(u, ()))
    return pairs

"""Standard embedding of edge-labelled data graphs, and the
weighted-automaton graph generator used for stress corpora.

A data graph has nodes labelled by integer vectors and edges labelled by
a finite alphabet.  Its embedding is a labelled graph over the nodes
plus one extra node per alphabet symbol: unary labellings lab1..labK
carry the node vectors (0 on symbol nodes), and the ternary labelling E3
is 1 exactly on the edge triples (source, symbol, target).  Every data
path v0 e1 v1 ... corresponds to the interleaved embedded node sequence.

A weighted automaton (weights -1/0/1) turns into a graph with one node
per transition: unary labellings weight / letter / initial / final and
the binary E that chains transitions sharing a state.  Runs of the
automaton are exactly the E-routes from an initial-flagged node to a
final-flagged one, and the run value is the weight sum along the route.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from .errors import GraphLoadError, NameCollisionError
from .graph import Graph, Labelling

SYMBOL_PREFIX = "sigma:"


@dataclass(frozen=True)
class DataGraph:
    nodes: Tuple[str, ...]
    alphabet: Tuple[str, ...]
    edges: Tuple[Tuple[str, str, str], ...]  # (source, symbol, target)
    labels: Dict[str, Tuple[int, ...]] = field(default_factory=dict)

    @property
    def dim(self) -> int:
        return max((len(v) for v in self.labels.values()), default=0)

    def __post_init__(self):
        for u, a, v in self.edges:
            if u not in self.nodes or v not in self.nodes:
                raise GraphLoadError(f"edge ({u}, {a}, {v}) uses unknown node")
            if a not in self.alphabet:
                raise GraphLoadError(f"edge ({u}, {a}, {v}) uses unknown symbol")
        for node, vec in self.labels.items():
            if node not in self.nodes:
                raise GraphLoadError(f"label of unknown node {node!r}")
            if any(isinstance(x, bool) or not isinstance(x, int) for x in vec):
                raise GraphLoadError(f"label of {node!r} must hold ints only")


def data_graph_from_dict(data: dict) -> DataGraph:
    if not isinstance(data, dict):
        raise GraphLoadError("data graph file must be an object")
    for key in ("nodes", "alphabet"):
        names = data.get(key)
        if not isinstance(names, list) \
                or not all(isinstance(n, str) for n in names):
            raise GraphLoadError(f"{key!r} must be an array of strings")
    edges = data.get("edges")
    if not isinstance(edges, list) \
            or not all(isinstance(e, list) and len(e) == 3 for e in edges):
        raise GraphLoadError(
            "'edges' must be an array of [source, symbol, target] arrays")
    labels = data.get("labels") or {}
    if not isinstance(labels, dict) \
            or not all(isinstance(vec, list) for vec in labels.values()):
        raise GraphLoadError("'labels' must map node names to arrays")
    return DataGraph(
        nodes=tuple(data["nodes"]),
        alphabet=tuple(data["alphabet"]),
        edges=tuple(tuple(e) for e in edges),
        labels={node: tuple(vec) for node, vec in labels.items()},
    )


def load_data_graph(path: str) -> DataGraph:
    with open(path, "r", encoding="utf-8") as fh:
        return data_graph_from_dict(json.load(fh))


def symbol_node(symbol: str) -> str:
    return SYMBOL_PREFIX + symbol


def embed(dg: DataGraph) -> Graph:
    """The standard embedding: nodes plus symbol nodes, vector components
    as unary labellings (0 on symbols), edges as the ternary E3."""
    for n in dg.nodes:
        if n.startswith(SYMBOL_PREFIX):
            raise NameCollisionError(
                f"node {n!r} collides with the reserved symbol prefix"
            )
    node_names = list(dg.nodes) + [symbol_node(a) for a in dg.alphabet]
    k = dg.dim
    labellings: List[Labelling] = []
    for i in range(k):
        entries = {}
        for idx, n in enumerate(dg.nodes):
            vec = dg.labels.get(n, ())
            value = vec[i] if i < len(vec) else 0
            if value != 0:
                entries[(idx + 1,)] = value
        labellings.append(Labelling(f"lab{i + 1}", 1, 0, entries))
    index = {n: i + 1 for i, n in enumerate(node_names)}
    triples = {}
    for u, a, v in dg.edges:
        triples[(index[u], index[symbol_node(a)], index[v])] = 1
    labellings.append(Labelling("E3", 3, 0, triples))
    return Graph(node_names, labellings)


def embed_path(dg: DataGraph, nodes: Sequence[str],
               symbols: Sequence[str]) -> Tuple[str, ...]:
    """Interleaved embedded node sequence of a data path v0 e1 v1 ...."""
    if len(nodes) != len(symbols) + 1:
        raise ValueError("a data path has one more node than edge symbols")
    out: List[str] = [nodes[0]]
    for sym, node in zip(symbols, nodes[1:]):
        out.append(symbol_node(sym))
        out.append(node)
    return tuple(out)


# -- weighted automata ------------------------------------------------------------

@dataclass(frozen=True)
class WeightedAutomaton:
    states: Tuple[str, ...]
    initial: Tuple[str, ...]
    final: Tuple[str, ...]
    transitions: Tuple[Tuple[str, str, int, str], ...]  # (src, letter, weight, dst)

    def __post_init__(self):
        for src, letter, weight, dst in self.transitions:
            if weight not in (-1, 0, 1):
                raise GraphLoadError("transition weights must be -1, 0 or 1")
            if src not in self.states or dst not in self.states:
                raise GraphLoadError("transition uses unknown state")


def build_automaton_graph(wa: WeightedAutomaton) -> Graph:
    """One graph node per transition; letter codes are assigned by sorted
    order of the alphabet, starting at 1."""
    trans = sorted(wa.transitions)
    letters = sorted({t[1] for t in trans})
    letter_code = {a: i + 1 for i, a in enumerate(letters)}
    names = [f"t{i}" for i in range(len(trans))]
    weight = {}
    letter = {}
    initial = {}
    final = {}
    chain = {}
    for i, (src, a, w, dst) in enumerate(trans):
        nid = (i + 1,)
        if w != 0:
            weight[nid] = w
        letter[nid] = letter_code[a]
        if src in wa.initial:
            initial[nid] = 1
        if dst in wa.final:
            final[nid] = 1
        for j, (src2, _, _, _) in enumerate(trans):
            if dst == src2:
                chain[(i + 1, j + 1)] = 1
    return Graph(names, [
        Labelling("weight", 1, 0, weight),
        Labelling("letter", 1, 0, letter),
        Labelling("initial", 1, 0, initial),
        Labelling("final", 1, 0, final),
        Labelling("E", 2, 0, chain),
    ])

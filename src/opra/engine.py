"""High-level evaluation pipeline: graph + query text in, results out.

Ties together validation, the ontology view, the product construction
and the solver, converting between external node names and internal
ids at the boundary.  The solve configuration given here also drives
every nested solver run triggered by on-demand labellings.
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Sequence, Set, Tuple

from .answer_graph import AnswerGraph
from .errors import ValidationError
from .graph import Graph
from .ontology import ExtendedGraph, extend
from .parser import parse
from .solver import (
    EmptinessResult, ExtremumResult, SolveConfig, check_empty,
    enumerate_answers as _enumerate, extremum as _extremum,
)
from .validate import validate


def prepare(g: Graph, q,
            cfg: Optional[SolveConfig] = None) -> Tuple[ExtendedGraph, object]:
    """Validate and wrap: returns a fresh ontology view and the inner
    query."""
    if isinstance(q, str):
        q = parse(q)
    vq = validate(q, g)
    return extend(g, vq, solve_config=cfg), vq.query.query


def _ids_for(g: Graph, bound_nodes, bound_paths):
    nodes = {v: g.node_id(n) for v, n in (bound_nodes or {}).items()}
    paths = {
        v: tuple(g.node_id(n) for n in p)
        for v, p in (bound_paths or {}).items()
    }
    return nodes, paths


def build_answer_graph(g: Graph, q, cfg: Optional[SolveConfig] = None,
                       bound_nodes: Optional[Mapping[str, str]] = None,
                       bound_paths: Optional[Mapping[str, Sequence[str]]] = None,
                       target: Optional[Tuple[str, Optional[Sequence[str]]]]
                       = None) -> AnswerGraph:
    """The query's product graph on g.  A target (labelling, path
    variables) with None for its path variables aggregates over the
    query's free path variables."""
    eg, pra = prepare(g, q, cfg)
    if target is not None:
        name, over = target
        if over is None:
            over = pra.match_paths
            if not over:
                raise ValidationError(
                    "the query has no free path variable to aggregate over; "
                    "pass target_paths explicitly"
                )
        target = (name, tuple(over))
    nodes, paths = _ids_for(g, bound_nodes, bound_paths)
    return AnswerGraph(eg, pra, bound_paths=paths, bound_nodes=nodes,
                       target=target)


def decode_names(g: Graph, env, paths):
    env_names = {v: g.node_name(n) for v, n in (env or {}).items()}
    path_names = {
        v: [g.node_name(n) for n in p] for v, p in (paths or {}).items()
    }
    return env_names, path_names


def decode_answers(g: Graph, pra, answers) -> List[dict]:
    """(node tuple, path tuple) answers of the query `pra`, in the given
    order, as {"nodes": ..., "paths": ...} dicts of names keyed by its
    free variables."""
    out = []
    for nodes, paths in answers:
        env, named = decode_names(g, dict(zip(pra.match_nodes, nodes)),
                                  dict(zip(pra.match_paths, paths)))
        out.append({"nodes": env, "paths": named})
    return out


def evaluate(g: Graph, q, cfg: Optional[SolveConfig] = None,
             bound_nodes=None, bound_paths=None) -> EmptinessResult:
    """Emptiness of the query on the graph; witness decoded to names."""
    ag = build_answer_graph(g, q, cfg, bound_nodes, bound_paths)
    res = check_empty(ag, cfg=cfg)
    if not res.empty:
        res.env, res.paths = decode_names(g, res.env, res.paths)
    return res


def evaluate_extremum(g: Graph, q, target: str, mode: str,
                      cfg: Optional[SolveConfig] = None,
                      target_paths: Optional[Sequence[str]] = None,
                      bound_nodes=None, bound_paths=None) -> ExtremumResult:
    """Min/max of a labelling aggregated over the query's free path
    variables (or an explicit selection of path variables)."""
    ag = build_answer_graph(g, q, cfg, bound_nodes, bound_paths,
                            target=(target, target_paths))
    res = _extremum(ag, mode, cfg=cfg)
    if res.witness is not None:
        res.env, res.witness = decode_names(g, res.env, res.witness)
    return res


def engine_answers(g: Graph, q, max_len: int,
                   cfg: Optional[SolveConfig] = None) -> Set[tuple]:
    """Decoded answer set over product paths of at most max_len steps."""
    ag = build_answer_graph(g, q, cfg)
    answers, _ = _enumerate(ag, max_len=max_len, cfg=cfg)
    return answers

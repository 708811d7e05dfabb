"""Bundled example corpus: the map fixture plus its query suite.

The fixture graph and queries ship as package data; golden outputs were
generated once by the brute-force oracle (see generate_goldens) and are
committed.  The `run` entry point re-evaluates everything with the
product engine and diffs against the goldens, so a corpus run is a
standing engine-versus-oracle differential check.
"""

from __future__ import annotations

import json
from importlib import resources
from typing import Callable, Dict, List, Optional, Tuple

from ..engine import decode_answers, engine_answers, evaluate_extremum
from ..extint import to_json
from ..graph import Graph, graph_from_dict
from ..ontology import extend
from ..oracle import (
    OracleConfig, OracleView, enumerate_answers, oracle_two_phase,
)
from ..parser import parse
from ..solver import SolveConfig
from ..validate import validate

QUERY_NAMES = (
    "q_route", "q_route_sp", "sums", "multiple_paths",
    "processed_labellings", "t_walk_via_walk", "nested_queries",
    "neighbourhood", "path_lengths", "registers",
)

# (query, product-path length bound for answer enumeration)
ANSWER_PLANS: Tuple[Tuple[str, int], ...] = (
    ("q_route", 4),
    ("q_route_sp", 6),
    ("sums", 8),
    ("multiple_paths", 6),
    ("processed_labellings", 6),
    ("t_walk_via_walk", 8),
    ("nested_queries", 4),
    ("neighbourhood", 6),
    ("path_lengths", 6),
    ("registers", 6),
)

EXTREMUM_PLANS = (
    ("min_time_route_sp", "q_route_sp", "time", "min"),
    ("max_attr_route_sp", "q_route_sp", "attr", "max"),
)

CORPUS_CONFIG = SolveConfig(b1=8, b2=16)
ORACLE_TWO_PHASE = (8, 16)


def _read(name: str) -> str:
    return resources.files(__package__).joinpath(name).read_text("utf-8")


def fixture_graph() -> Graph:
    return graph_from_dict(json.loads(_read("fig2.json")))


def query_text(name: str) -> str:
    return _read(name + ".opra")


def load_query(name: str, g: Optional[Graph] = None):
    q = parse(query_text(name))
    return validate(q, g if g is not None else fixture_graph())


def _canonical_answers(g: Graph, vq, answers) -> List[dict]:
    out = decode_answers(g, vq.query.query, answers)
    out.sort(key=lambda e: json.dumps(e, sort_keys=True))
    return out


def _engine_report(g: Graph) -> dict:
    report: Dict[str, dict] = {"answers": {}, "extrema": {}, "terms": {}}
    for name, bound in ANSWER_PLANS:
        vq = load_query(name, g)
        answers = engine_answers(g, vq, max_len=bound, cfg=CORPUS_CONFIG)
        report["answers"][name] = {
            "bound": bound,
            "answers": _canonical_answers(g, vq, answers),
        }
    for key, qname, target, mode in EXTREMUM_PLANS:
        vq = load_query(qname, g)
        res = evaluate_extremum(g, vq, target=target, mode=mode,
                                cfg=CORPUS_CONFIG)
        report["extrema"][key] = {
            "query": qname, "target": target, "mode": mode,
            "value": to_json(res.value),
        }
    report["terms"] = _term_checks(
        g, lambda entries: extend(g, entries, solve_config=CORPUS_CONFIG))
    return report


def _term_checks(g: Graph, view: Callable[[tuple], Graph]) -> dict:
    """Ontology labellings read through `view(entries)`, the label source
    that one evaluator makes for a query's ontology entries."""
    def source_for(name: str):
        return view(load_query(name, g).query.ontology)

    out: Dict[str, object] = {}
    src = source_for("processed_labellings")
    out["t_walk_W"] = to_json(src.label_value("t_walk", (g.node_id("W"),)))
    src = source_for("neighbourhood")
    out["mas_S_T"] = to_json(
        src.label_value("mas", (g.node_id("S"), g.node_id("T"))))
    out["mas_S_W"] = to_json(
        src.label_value("mas", (g.node_id("S"), g.node_id("W"))))
    src = source_for("nested_queries")
    out["crowded"] = {
        g.node_name(v): to_json(src.label_value("crowded", (v,)))
        for v in g.real_nodes
    }
    return out


def load_goldens() -> dict:
    return json.loads(_read("goldens.json"))


def run() -> Tuple[dict, List[str]]:
    """Evaluate the whole suite and diff against the committed goldens.

    Returns the engine report and the list of mismatched item names.
    """
    g = fixture_graph()
    report = _engine_report(g)
    goldens = load_goldens()
    failures = []
    for section in ("answers", "extrema", "terms"):
        for key, expected in goldens.get(section, {}).items():
            got = report.get(section, {}).get(key)
            if got != expected:
                failures.append(f"{section}.{key}")
    return report, failures


# -- golden generation (oracle side; run once, output committed) ---------------

def generate_goldens() -> dict:
    """Compute the goldens with the brute-force oracle.

    Finite values come straight from bounded enumeration.  Extrema use
    the two-phase protocol (better value in the longer phase means the
    true extremum is unbounded); the simultaneous-extrema query is
    evaluated by substituting per-endpoint oracle extrema, which on this
    fixture are unbounded for every connected pair, so no finite route
    can match them and its answer set is empty.
    """
    g = fixture_graph()
    goldens: Dict[str, dict] = {"answers": {}, "extrema": {}, "terms": {}}

    for name, bound in ANSWER_PLANS:
        vq = load_query(name, g)
        if name == "path_lengths":
            answers = _oracle_path_lengths_answers(g, vq, bound)
        else:
            answers = enumerate_answers(
                g, vq, OracleConfig(max_path_len=bound, max_paths=5_000_000))
        goldens["answers"][name] = {
            "bound": bound,
            "answers": _canonical_answers(g, vq, answers),
        }

    for key, qname, target, mode in EXTREMUM_PLANS:
        vq = load_query(qname, g)
        value = oracle_two_phase(
            g, vq, (target, vq.query.query.match_paths), mode,
            *ORACLE_TWO_PHASE, max_paths=5_000_000)
        goldens["extrema"][key] = {
            "query": qname, "target": target, "mode": mode,
            "value": to_json(value),
        }

    term_cfg = OracleConfig(max_path_len=8, max_paths=5_000_000)
    goldens["terms"] = _term_checks(
        g, lambda entries: OracleView(g, entries, term_cfg))
    return goldens


def _oracle_path_lengths_answers(g: Graph, vq, bound: int):
    """Answer set of the simultaneous-extrema query via the oracle.

    For each endpoint pair, take the oracle's two-phase max/min of the
    competing-route aggregates; a pair admits an answer only if some
    route attains both, which an unbounded maximum rules out.
    """
    from ..oracle import enumerate_satisfying, oracle_source
    from ..graph import aggregate

    route_vq = load_query("q_route", g)
    b1, b2 = ORACLE_TWO_PHASE
    answers = set()
    view = oracle_source(g, route_vq, OracleConfig(max_path_len=b2))
    for s in g.real_nodes:
        for t in g.real_nodes:
            bound_nodes = {"s": s, "t": t}
            extrema = {
                target: oracle_two_phase(g, route_vq, (target, ("pi",)), mode,
                                         b1, b2, bound_nodes=bound_nodes)
                for target, mode in (("attr", "max"), ("time", "min"))
            }
            for _, paths in enumerate_satisfying(
                    view, route_vq.query.query,
                    OracleConfig(max_path_len=bound),
                    bound_nodes=bound_nodes):
                pi = paths["pi"]
                if aggregate(g, "attr", [pi]) == extrema["attr"] \
                        and aggregate(g, "time", [pi]) == extrema["time"]:
                    answers.add(((s, t), ()))
                    break
    return answers

"""Spans and counts taken at the layer boundaries of `opra`, from outside.

`Tracer.install` replaces the public functions and methods it names
by wrappers, on the module or class each caller resolves them
from (for example `check_empty` both in `opra.engine` and in
`opra.ontology`, whose nested solves call it), and `uninstall` puts the
originals back.  A wrapper either records a span (name, start, end,
parent span, operation id) or only bumps a counter: the hottest calls,
such as letter evaluations and label lookups, are counted, not timed,
so their time stays in the self time of the span that made them.

Spans are kept in memory and summarised per round; the caller writes
those it keeps to disk when the run ends.  A layer's self time is the
time of its spans minus the time covered by their child spans.
"""

from __future__ import annotations

import time
from typing import Dict, List

import opra
import opra.answer_graph
import opra.engine
import opra.ontology
from opra.answer_graph import AnswerGraph
from opra.errors import ResourceExceededError
from opra.graph import SINK, Graph
from opra.ontology import ExtendedGraph

_clock = time.perf_counter

# span fields: name, parent span, operation id, start, end
NAME, PARENT, START, END = 0, 1, 3, 4

COUNTERS = (
    "automata.letter_evals", "graph.label_value_calls",
    "answer_graph.start_states", "answer_graph.successor_calls",
    "answer_graph.successor_states", "answer_graph.weight_calls",
    "solver.expanded", "solver.enqueued",
    "solver.dominance_enqueued", "solver.dominance_candidates",
    "ontology.lookups", "ontology.memo_hits", "ontology.nested_solves",
)


class Tracer:
    def __init__(self):
        self.spans: List[list] = []
        self.stack: List[int] = []       # open spans, innermost last
        self.op = -1                      # id shared by an operation's spans
        self.counts: Dict[str, List[int]] = {c: [0] for c in COUNTERS}
        self.nested_solve_s = 0.0
        self._solves: List[List[int]] = []    # candidates per open solve
        self._lookups: List[list] = []        # [span, missed] per lookup
        self._nested_depth = 0
        self._patched: List[tuple] = []

    # -- spans -------------------------------------------------------------

    def open(self, name: str) -> int:
        sid = len(self.spans)
        self.spans.append([name, self.stack[-1] if self.stack else None,
                           self.op, _clock(), None])
        self.stack.append(sid)
        return sid

    def close(self, sid: int) -> float:
        end = _clock()
        self.stack.pop()
        span = self.spans[sid]
        span[END] = end
        return end - span[START]

    def reset(self) -> None:
        """Start a new round: drop its spans and zero its counts."""
        self.spans = []
        self.nested_solve_s = 0.0
        for box in self.counts.values():
            box[0] = 0

    def count(self, name: str) -> int:
        return self.counts[name][0]

    # -- wrapping ------------------------------------------------------------

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched = []

    def _spanned(self, owner, attr: str, name: str) -> None:
        fn = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            sid = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(sid)

        self._patch(owner, attr, wrapper)

    def _counted(self, owner, attr: str, name: str) -> None:
        fn = getattr(owner, attr)
        box = self.counts[name]

        def wrapper(*args, **kwargs):
            box[0] += 1
            return fn(*args, **kwargs)

        self._patch(owner, attr, wrapper)

    def _solver(self, owner, attr: str, name: str, dominance: bool,
                nested: bool) -> None:
        fn = getattr(owner, attr)
        c = self.counts

        def wrapper(*args, **kwargs):
            frame = [0]
            self._solves.append(frame)
            outermost = nested and self._nested_depth == 0
            if nested:
                c["ontology.nested_solves"][0] += 1
                self._nested_depth += 1
            sid = self.open(name)
            try:
                res = fn(*args, **kwargs)
            except ResourceExceededError as e:
                c["solver.expanded"][0] += e.expanded
                raise
            finally:
                took = self.close(sid)
                self._solves.pop()
                if nested:
                    self._nested_depth -= 1
                if outermost:
                    self.nested_solve_s += took
            stats = res.stats if dominance else res[1]
            c["solver.expanded"][0] += stats.expanded
            c["solver.enqueued"][0] += stats.enqueued
            if dominance:
                c["solver.dominance_enqueued"][0] += stats.enqueued
                c["solver.dominance_candidates"][0] += frame[0]
            return res

        self._patch(owner, attr, wrapper)

    def install(self) -> None:
        """Wrap every layer boundary the per-layer metrics read."""
        # set-up: the names the benchmark's own set-up code resolves
        for attr, name in (("parse", "parser.parse"),
                           ("validate", "validate.validate"),
                           ("graph_from_dict", "graph.graph_from_dict"),
                           ("embed", "embedding.embed"),
                           ("build_automaton_graph",
                            "embedding.build_automaton_graph")):
            self._spanned(opra, attr, name)
        # operations
        self._spanned(opra.engine, "prepare", "engine.prepare")
        self._spanned(AnswerGraph, "__init__", "answer_graph.build")
        self._spanned(opra.answer_graph, "compile_regex",
                      "automata.compile_regex")
        self._counted(opra.answer_graph, "eval_node_constraint",
                      "automata.letter_evals")
        self._counted(Graph, "label_value", "graph.label_value_calls")
        self._counted(AnswerGraph, "weight", "answer_graph.weight_calls")
        self._counted(AnswerGraph, "extremum_weight",
                      "answer_graph.weight_calls")
        self._wrap_start_states()
        self._wrap_successors()
        for owner, attr, name, dominance, nested in (
                (opra.engine, "check_empty", "solver.check_empty",
                 True, False),
                (opra.engine, "_extremum", "solver.extremum", True, False),
                (opra.engine, "_enumerate", "solver.enumerate_answers",
                 False, False),
                (opra.ontology, "check_empty", "solver.check_empty",
                 True, True),
                (opra.ontology, "extremum", "solver.extremum", True, True)):
            self._solver(owner, attr, name, dominance, nested)
        self._wrap_lookups()

    def _wrap_start_states(self) -> None:
        fn = AnswerGraph.start_states
        box = self.counts["answer_graph.start_states"]
        solves = self._solves

        def start_states(ag):
            for st in fn(ag):
                box[0] += 1
                if solves:
                    solves[-1][0] += 1
                yield st

        self._patch(AnswerGraph, "start_states", start_states)

    def _wrap_successors(self) -> None:
        fn = AnswerGraph.successors
        calls = self.counts["answer_graph.successor_calls"]
        states = self.counts["answer_graph.successor_states"]
        solves = self._solves

        def successors(ag, st):
            sid = self.open("answer_graph.successors")
            try:
                out = fn(ag, st)
            finally:
                self.close(sid)
            calls[0] += 1
            states[0] += len(out)
            if solves:
                solves[-1][0] += len(out)
            return out

        self._patch(AnswerGraph, "successors", successors)

    def _wrap_lookups(self) -> None:
        """Lookups of ontology-defined labellings, and whether the memo
        answered them: a lookup that calls `eval_term` itself missed."""
        label_value = ExtendedGraph.label_value
        eval_term = opra.ontology.eval_term
        lookups = self.counts["ontology.lookups"]
        hits = self.counts["ontology.memo_hits"]

        def wrapped_label_value(view, name, key):
            if view.base.has_labelling(name) or SINK in key:
                return label_value(view, name, key)
            lookups[0] += 1
            sid = self.open("ontology.label_value")
            marker = [sid, False]
            self._lookups.append(marker)
            try:
                return label_value(view, name, key)
            finally:
                self._lookups.pop()
                self.close(sid)
                if not marker[1]:
                    hits[0] += 1

        def wrapped_eval_term(source, term, eta):
            if self._lookups and self._lookups[-1][0] == self.stack[-1]:
                self._lookups[-1][1] = True
            sid = self.open("ontology.eval_term")
            try:
                return eval_term(source, term, eta)
            finally:
                self.close(sid)

        self._patch(ExtendedGraph, "label_value", wrapped_label_value)
        self._patch(opra.ontology, "eval_term", wrapped_eval_term)

    # -- summaries -------------------------------------------------------------

    def totals(self) -> Dict[str, Dict[str, float]]:
        """Per span name: number of spans, total time and self time."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] is not None:
                child[span[PARENT]] += span[END] - span[START]
        out: Dict[str, Dict[str, float]] = {}
        for i, span in enumerate(self.spans):
            t = out.setdefault(span[NAME], {"n": 0, "total": 0.0,
                                            "self": 0.0})
            dur = span[END] - span[START]
            t["n"] += 1
            t["total"] += dur
            t["self"] += dur - child[i]
        return out


def layer_metrics(tr: Tracer, totals: Dict[str, Dict[str, float]],
                  n_ops: int) -> Dict[str, float]:
    """The per-layer metrics of one traced round of `n_ops` operations."""
    def total(name: str) -> float:
        return totals.get(name, {}).get("total", 0.0)

    def self_time(prefix: str) -> float:
        return sum(t["self"] for name, t in totals.items()
                   if name.startswith(prefix))

    def ratio(num: int, den: int) -> float:
        return num / den if den else 0.0

    compile_ = totals.get("automata.compile_regex", {})
    builds = totals.get("answer_graph.build", {})
    return {
        "engine.prepare_ms": 1e3 * total("engine.prepare") / n_ops,
        "automata.compile_calls": compile_.get("n", 0),
        "automata.compile_ms": 1e3 * compile_.get("total", 0.0),
        "automata.letter_evals": tr.count("automata.letter_evals"),
        "graph.label_value_calls": tr.count("graph.label_value_calls"),
        "answer_graph.builds": builds.get("n", 0),
        "answer_graph.start_states": tr.count("answer_graph.start_states"),
        "answer_graph.successor_calls":
            tr.count("answer_graph.successor_calls"),
        "answer_graph.successor_states":
            tr.count("answer_graph.successor_states"),
        "answer_graph.successors_s":
            totals.get("answer_graph.successors", {}).get("self", 0.0),
        "answer_graph.weight_calls": tr.count("answer_graph.weight_calls"),
        "solver.expanded": tr.count("solver.expanded"),
        "solver.enqueued": tr.count("solver.enqueued"),
        "solver.admit_ratio": ratio(
            tr.count("solver.dominance_enqueued"),
            tr.count("solver.dominance_candidates")),
        "solver.self_s": self_time("solver."),
        "ontology.lookups": tr.count("ontology.lookups"),
        "ontology.memo_hit_ratio": ratio(tr.count("ontology.memo_hits"),
                                         tr.count("ontology.lookups")),
        "ontology.nested_solves": tr.count("ontology.nested_solves"),
        "ontology.nested_solve_s": tr.nested_solve_s,
        "ontology.self_s": self_time("ontology."),
    }


def setup_metrics(totals: Dict[str, Dict[str, float]]) -> Dict[str, float]:
    """Per-layer metrics of one traced set-up."""
    def per_call_ms(name: str) -> float:
        t = totals.get(name)
        return 1e3 * t["total"] / t["n"] if t else 0.0

    return {
        "parser.parse_ms": per_call_ms("parser.parse"),
        "validate.validate_ms": per_call_ms("validate.validate"),
        "embedding.build_ms": 1e3 * sum(
            t["total"] for name, t in totals.items()
            if name.startswith("embedding.")),
    }

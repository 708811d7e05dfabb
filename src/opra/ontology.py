"""On-demand auxiliary labellings and term evaluation.

An ExtendedGraph is a Graph: it shares its base graph's nodes and
stored labellings, by reference, and adds an ordered sequence of
labelling definitions.  Looking up a defined labelling on a node tuple
evaluates its term under the instantiation mapping the definition's
parameters to that tuple, with memoization per (labelling, tuple);
definitions may reference graph labellings and earlier definitions only
(validation enforces the ordering).  Tuples that mention the sink short-
circuit to 0 so that padded positions stay value-neutral.

A view is made for one evaluation, and its memo and its evaluation
depth are its own: the memo lives exactly as long as the view, and
labelling names are unique within a view, so a value computed on one
graph or under one ontology is never read back for another.

Term evaluation follows the constructor-by-constructor semantics:
constants, labelling lookups, 0/1 query indicators, extrema of an
aggregate over the paths satisfying a nested query (computed by the
product engine), variable equality, fundamental-function application,
and aggregation over all graph nodes passing a 0/1 filter.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Optional, Tuple

from .answer_graph import AnswerGraph
from .errors import (
    ArityMismatchError,
    RecursionDepthExceededError,
    UnknownLabellingError,
)
from .extint import ExtInt, eval_fundamental  # re-exported
from .graph import SINK, Graph, NodeId
from .query import (
    AggTerm, ApplyTerm, ConstTerm, IndicatorTerm, LabelTerm, MaxPathTerm,
    MinPathTerm, OntologyEntry, Term, VarEqTerm,
)
from .solver import MAX, MIN, SolveConfig, check_empty, extremum

MAX_EVAL_DEPTH = 64


class ExtendedGraph(Graph):
    """A graph whose ontology labellings are computed on demand."""

    def __init__(self, base: Graph, entries: Iterable[OntologyEntry] = (),
                 solve_config: Optional[SolveConfig] = None):
        self.base = base
        self.node_names = base.node_names
        self._index = base._index
        self.labellings = base.labellings
        self.entries: Tuple[OntologyEntry, ...] = tuple(entries)
        self._by_name: Dict[str, OntologyEntry] = {
            e.name: e for e in self.entries
        }
        self.solve_config = solve_config or SolveConfig()
        self._memo: Dict[Tuple[str, Tuple[NodeId, ...]], ExtInt] = {}
        self._depth = 0

    def has_labelling(self, name: str) -> bool:
        return name in self.labellings or name in self._by_name

    def _entry(self, name: str) -> OntologyEntry:
        entry = self._by_name.get(name)
        if entry is None:
            raise UnknownLabellingError(f"unknown labelling {name!r}")
        return entry

    def arity(self, name: str) -> int:
        if name in self.labellings:
            return super().arity(name)
        return len(self._entry(name).params)

    def label_value(self, name: str, key: Tuple[NodeId, ...]) -> ExtInt:
        if name in self.labellings:
            return super().label_value(name, key)
        entry = self._entry(name)
        if len(key) != len(entry.params):
            raise ArityMismatchError(
                f"labelling {name!r} has arity {len(entry.params)}, "
                f"got {len(key)} nodes"
            )
        if any(n == SINK for n in key):
            return 0  # padding stays value-neutral
        memo_key = (name, key)
        cached = self._memo.get(memo_key)
        if cached is not None:
            return cached
        value = eval_term(self, entry.term, dict(zip(entry.params, key)))
        self._memo[memo_key] = value
        return value


def extend(g: Graph, entries: Iterable[OntologyEntry] = (),
           solve_config: Optional[SolveConfig] = None) -> ExtendedGraph:
    """Graph view where the given labelling definitions resolve on demand."""
    return ExtendedGraph(g, entries, solve_config)


def eval_term(view: ExtendedGraph, term: Term,
              eta: Mapping[str, NodeId]) -> ExtInt:
    """Value of a term under an instantiation of its node variables.

    Nested queries and path extrema run the product engine against the
    view, under its solve configuration.
    """
    view._depth += 1
    try:
        if view._depth > MAX_EVAL_DEPTH:
            raise RecursionDepthExceededError(
                f"term evaluation nested deeper than {MAX_EVAL_DEPTH}"
            )
        return _eval(view, term, eta)
    finally:
        view._depth -= 1


def _eval(view: ExtendedGraph, term: Term,
          eta: Mapping[str, NodeId]) -> ExtInt:
    if isinstance(term, ConstTerm):
        return term.value
    if isinstance(term, LabelTerm):
        return view.label_value(
            term.labelling, tuple(eta[a] for a in term.args)
        )
    if isinstance(term, VarEqTerm):
        return 1 if eta[term.left] == eta[term.right] else 0
    if isinstance(term, (IndicatorTerm, MinPathTerm, MaxPathTerm)):
        bound = {v: eta[v] for v in term.query.match_nodes}
        if isinstance(term, IndicatorTerm):
            ag = AnswerGraph(view, term.query, bound_nodes=bound)
            return 0 if check_empty(ag, cfg=view.solve_config).empty else 1
        ag = AnswerGraph(view, term.query, bound_nodes=bound,
                         target=(term.labelling, (term.path_var,)))
        mode = MIN if isinstance(term, MinPathTerm) else MAX
        return extremum(ag, mode, cfg=view.solve_config).value
    if isinstance(term, ApplyTerm):
        args = [eval_term(view, a, eta) for a in term.args]
        return eval_fundamental(term.func, args)
    if isinstance(term, AggTerm):
        values = []
        for v in view.real_nodes:
            scope = dict(eta)
            scope[term.collector] = v
            if eval_term(view, term.filter, scope) == 1:
                values.append(eval_term(view, term.value,
                                        {term.collector: v}))
        return eval_fundamental(term.func, values)
    raise TypeError(f"not a term: {term!r}")

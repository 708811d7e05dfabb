"""On-demand auxiliary labellings and term evaluation.

An ExtendedGraph is the engine's `graph.View`: the view looks up a
defined labelling on demand, and this module evaluates its term, with
nested queries solved by the product engine.  Definitions may reference
graph labellings and earlier definitions only, and nest no deeper than
`MAX_EVAL_DEPTH`: a view checks both when it is made
(`validate.definition_heights`).

A view is made for one evaluation, and its memo and its plans are its
own: they live exactly as long as the view, and labelling names are
unique within a view, so a value or plan made on one graph or under one
ontology is never read for another.

Term evaluation follows the constructor-by-constructor semantics:
constants, labelling lookups, 0/1 query indicators, extrema of an
aggregate over the paths satisfying a nested query (computed by the
product engine), variable equality, fundamental-function application,
and aggregation over all graph nodes passing a 0/1 filter.  An
aggregate whose filter is a stored labelling, with a default other
than 1, over its collector and bound variables reads the collector
values that pass from that labelling's index instead of scanning every
node: the same nodes, in the same order, run the same value terms, so
values, errors and memo contents are those of the scan.

A defined binary labelling also bounds the next nodes of a step letter
(`step_targets`) when its term is a bare stored labelling over its two
parameters, or such an aggregate whose value on an empty set differs
from the letter's value: some collector value must then pass the
filter, so the next node is among the filter's entries of value 1.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional

from .answer_graph import AnswerGraph, Plan
from .extint import ExtInt, eval_fundamental  # re-exported
from .graph import Graph, NodeId, View, step_candidates
from .query import (
    AggTerm, ApplyTerm, ConstTerm, IndicatorTerm, LabelTerm, OntologyEntry,
    PathExtremumTerm, Term, VarEqTerm,
)
from .solver import SolveConfig, check_empty, extremum
from .validate import definition_heights


class ExtendedGraph(View):
    """A graph whose ontology labellings are computed on demand."""

    def __init__(self, base: Graph, entries: Iterable[OntologyEntry] = (),
                 solve_config: Optional[SolveConfig] = None):
        super().__init__(base, entries)
        definition_heights(self._by_name.values(), self.labellings)
        self.solve_config = solve_config or SolveConfig()
        self._plans: Dict[tuple, Plan] = {}

    def term_value(self, term: Term, eta: Mapping[str, NodeId]) -> ExtInt:
        return eval_term(self, term, eta)

    def step_targets(self, name: str, value: ExtInt, reverse: bool = False
                     ) -> Optional[Mapping[NodeId, FrozenSet[NodeId]]]:
        """As `Graph.step_targets`, for a stored name too, as
        `label_value` reads it first; a defined labelling answers in the
        two shapes the module docstring lists, read from its stored
        labelling's index."""
        entry = self._by_name.get(name)
        if entry is None or name in self.labellings:
            return super().step_targets(name, value, reverse)
        if len(entry.params) != 2:
            return None
        cur, nxt = entry.params[::-1] if reverse else entry.params
        term, free = entry.term, ()
        if isinstance(term, AggTerm) and isinstance(term.filter, LabelTerm) \
                and value != eval_fundamental(term.func, []):
            # the collector shadows a parameter of its name
            free = (term.collector,)
            cur, nxt = [None if v in free else v for v in (cur, nxt)]
            term, value = term.filter, 1
        if not isinstance(term, LabelTerm) or cur == nxt \
                or any(a not in (cur, nxt) + free for a in term.args):
            return None
        return step_candidates(self.labellings.get(term.labelling), value,
                               term.args, cur, nxt)


def extend(g: Graph, entries: Iterable[OntologyEntry] = (),
           solve_config: Optional[SolveConfig] = None) -> ExtendedGraph:
    """Graph view where the given labelling definitions resolve on demand."""
    return ExtendedGraph(g, entries, solve_config)


def eval_term(view: ExtendedGraph, term: Term,
              eta: Mapping[str, NodeId]) -> ExtInt:
    """Value of a term under an instantiation of its node variables.

    Nested queries and path extrema run the product engine against the
    view, under its solve configuration.  This is the one recursive
    evaluator: lookups and subterms reach it by its module name, and it
    counts nothing per call.  Its nesting is bounded by the term's own
    structure, which the parser caps, and by the heights of the view's
    definitions, which the view checked when it was made.
    """
    if isinstance(term, ConstTerm):
        return term.value
    if isinstance(term, LabelTerm):
        return view.label_value(
            term.labelling, tuple(eta[a] for a in term.args)
        )
    if isinstance(term, VarEqTerm):
        return 1 if eta[term.left] == eta[term.right] else 0
    if isinstance(term, (IndicatorTerm, PathExtremumTerm)):
        bound = {v: eta[v] for v in term.query.match_nodes}
        indicator = isinstance(term, IndicatorTerm)
        ag = AnswerGraph(view, term.query, bound_nodes=bound,
                         plans=view._plans, target=None if indicator
                         else (term.labelling, (term.path_var,)))
        if indicator:
            return 0 if check_empty(ag, cfg=view.solve_config).empty else 1
        return extremum(ag, term.mode, cfg=view.solve_config).value
    if isinstance(term, ApplyTerm):
        args = [eval_term(view, a, eta) for a in term.args]
        return eval_fundamental(term.func, args)
    if isinstance(term, AggTerm):
        z = term.collector
        passing = _passing(view, term, eta)
        if passing is not None:
            values = [eval_term(view, term.value, {z: v}) for v in passing]
        else:
            values = []
            scope = dict(eta)  # no callee keeps it, so one serves every node
            for v in view.real_nodes:
                scope[z] = v
                if eval_term(view, term.filter, scope) == 1:
                    values.append(eval_term(view, term.value, {z: v}))
        return eval_fundamental(term.func, values)
    raise TypeError(f"not a term: {term!r}")


def _passing(view: ExtendedGraph, term: AggTerm,
             eta: Mapping[str, NodeId]) -> Optional[List[NodeId]]:
    """The nodes that pass an aggregate's filter, in node order, read from
    the filter's index when it is a stored labelling S, with a default
    other than 1, over the collector and bound variables: the collector
    values of S's entries of value 1 that agree with the bound variables.
    None where the scan must run instead."""
    f, z = term.filter, term.collector
    if not isinstance(f, LabelTerm) or z not in f.args:
        return None
    lab = view.labellings.get(f.labelling)
    if lab is None or lab.default == 1 or lab.arity != len(f.args):
        return None
    by = tuple(i for i, a in enumerate(f.args) if a != z)
    keys = lab.index(1, by).get(tuple([eta[f.args[i]] for i in by]), ())
    at = f.args.index(z)
    same = [i for i, a in enumerate(f.args) if a == z and i != at]
    return [key[at] for key in keys if all(key[i] == key[at] for i in same)]

"""On-demand auxiliary labellings and term evaluation.

An ExtendedGraph is the engine's `graph.View`: the view looks up a
defined labelling on demand, and this module evaluates its term, with
nested queries solved by the product engine.  Definitions may reference
graph labellings and earlier definitions only, and nest no deeper than
`MAX_EVAL_DEPTH`: a view checks both when it is made
(`validate.definition_heights`), or, made from a validated query, reads
the heights `validate` computed for it.

A view is made for one evaluation, and its memo, its plans and its
answer tables are its own: they live exactly as long as the view, and
labelling names are unique within a view, so a value, plan or table
made on one graph or under one ontology is never read for another.

A nested indicator or path extremum whose query has lazy targets among
its free node variables (`answer_graph.lazy_targets`: path-constraint
targets that are no path's source) is answered set-at-a-time.  The
view binds only the eager free variables from the instantiation and
runs one search to its end (`solver.answer_table`), which answers the
term for every value of the lazy ones; the table is kept per term and
eager values.  The answers are the per-tuple ones: letters and rows
read path positions, never tracked variables, so the search admits at
real nodes the configurations of each per-tuple search, and its closing
step binds each lazy target to the node its path ends at.  It also does
at least each per-tuple search's work, so where it finishes, none of
those would have failed.  A term is solved per tuple, as before, where
it has no lazy free variable, where no table applies (an extremum
under derived bounds, whose pumping is per search, or an indicator
under derived bounds with a non-monotone HAVING row, whose frontier
need not die out; `solver.table_applies` decides this from the query,
before a plan is built), and where the set search raised an
`OpraError`: that failure is kept, so that the search is not run again,
and each lookup then answers or fails alone.

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

from typing import Dict, Iterable, List, Mapping, Optional, Union

from .answer_graph import AnswerGraph, Plan, lazy_targets
from .errors import OpraError
from .extint import ExtInt, eval_fundamental  # re-exported
from .graph import Graph, NodeId, NodeTargets, View, step_candidates
from .query import (
    AggTerm, ApplyTerm, ConstTerm, IndicatorTerm, LabelTerm, OntologyEntry,
    PathExtremumTerm, Term, VarEqTerm,
)
from .solver import (
    AnswerTable, SolveConfig, answer_table, check_empty, extremum,
    table_applies,
)
from .validate import ValidatedQuery, definition_heights


class ExtendedGraph(View):
    """A graph whose ontology labellings are computed on demand.

    `entries` are the definitions, or a query that `validate` checked
    against `base`, whose ontology the view then reads with the heights
    `validate` computed for it.  `heights` holds each definition's static
    height."""

    def __init__(self, base: Graph,
                 entries: Union[Iterable[OntologyEntry], ValidatedQuery] = (),
                 solve_config: Optional[SolveConfig] = None):
        if isinstance(entries, ValidatedQuery):
            super().__init__(base, entries.query.ontology)
            self.heights = entries.heights
        else:
            super().__init__(base, entries)
            self.heights = definition_heights(self._by_name.values(),
                                              self.labellings)
        self.solve_config = solve_config or SolveConfig()
        self._plans: Dict[tuple, Plan] = {}
        # (id(term), eager values): the term, kept alive so that its id
        # names it, and its answer table, or None where there is none
        self._tables: Dict[tuple, tuple] = {}

    def term_value(self, term: Term, eta: Mapping[str, NodeId]) -> ExtInt:
        return eval_term(self, term, eta)

    def step_targets(self, name: str, value: ExtInt, reverse: bool = False
                     ) -> Optional[Mapping[NodeId, NodeTargets]]:
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


def extend(g: Graph,
           entries: Union[Iterable[OntologyEntry], ValidatedQuery] = (),
           solve_config: Optional[SolveConfig] = None) -> ExtendedGraph:
    """Graph view where the given labelling definitions, or those of a
    query validated against g, resolve on demand."""
    return ExtendedGraph(g, entries, solve_config)


def eval_term(view: ExtendedGraph, term: Term,
              eta: Mapping[str, NodeId]) -> ExtInt:
    """Value of a term under an instantiation of its node variables.

    Nested queries and path extrema run the product engine against the
    view, under its solve configuration.  This is the one recursive
    evaluator: lookups and subterms reach it by its module name, and it
    counts nothing per call.  Its nesting is bounded by the term's own
    structure, which the parser caps, and by the heights of the view's
    definitions, checked by `validate` or when the view was made.
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
        return _nested(view, term, eta)
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


def _nested(view: ExtendedGraph, term: Term,
            eta: Mapping[str, NodeId]) -> ExtInt:
    """A nested indicator or path extremum under `eta`: read from the
    view's answer table for the term and its eager match variables'
    values, which one search makes on first use, or else solved for
    `eta` alone (module docstring)."""
    q = term.query
    # mode None: an indicator, 1 where the query has an answer
    mode, target = (None, None) if isinstance(term, IndicatorTerm) \
        else (term.mode, (term.labelling, (term.path_var,)))
    lazy = lazy_targets(q)
    if not lazy.isdisjoint(q.match_nodes):
        table = _table(view, term, mode, target, {
            v: eta[v] for v in q.match_nodes if v not in lazy})
        if table is not None:
            return table.values.get(tuple([eta[v] for v in table.key_vars]),
                                    table.default)
    ag = AnswerGraph(view, q, bound_nodes={v: eta[v] for v in q.match_nodes},
                     plans=view._plans, target=target)
    if mode is None:
        return 0 if check_empty(ag, cfg=view.solve_config).empty else 1
    return extremum(ag, mode, cfg=view.solve_config).value


def _table(view: ExtendedGraph, term: Term, mode: Optional[str], target,
           eager: Dict[str, NodeId]) -> Optional[AnswerTable]:
    """The view's answer table for the term under the eager values, made
    once: None where `answer_table` gives none or raised, as a set search
    may fail where the per-tuple ones would not."""
    key = (id(term), tuple(eager.values()))
    kept = view._tables.get(key)
    if kept is None:
        table = None
        # decided first, so that no plan is built for a table that none
        # of the lookups reads
        if table_applies(view, term.query, mode, view.solve_config):
            try:
                table = answer_table(
                    AnswerGraph(view, term.query, bound_nodes=eager,
                                plans=view._plans, target=target),
                    mode, view.solve_config)
            except OpraError:
                pass
        kept = view._tables[key] = (term, table)
    return kept[1]


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

"""On-demand auxiliary labellings and term evaluation.

An ExtendedGraph wraps a base graph with an ordered sequence of
labelling definitions.  Looking up a defined labelling on a node tuple
evaluates its term under the instantiation mapping the definition's
parameters to that tuple, with memoization per (labelling, tuple);
definitions may reference graph labellings and earlier definitions only
(validation enforces the ordering).  Tuples that mention the sink short-
circuit to 0 so that padded positions stay value-neutral.

The memo belongs to one view: it lives exactly as long as the view, and
labelling names are unique within a view, so a value computed on one
graph or under one ontology is never read back for another.

Term evaluation follows the constructor-by-constructor semantics:
constants, labelling lookups, 0/1 query indicators, extrema of an
aggregate over the paths satisfying a nested query (computed by the
product engine), variable equality, fundamental-function application,
and aggregation over all graph nodes passing a 0/1 filter.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Optional, Sequence, Tuple

from .answer_graph import AnswerGraph
from .errors import (
    ArityMismatchError,
    RecursionDepthExceededError,
    UnknownLabellingError,
)
from .extint import NEG_INF, POS_INF, ExtInt, ext_add, ext_sum, ext_times
from .graph import SINK, Graph, NodeId
from .query import (
    AggTerm, ApplyTerm, ConstTerm, IndicatorTerm, LabelTerm, MaxPathTerm,
    MinPathTerm, OntologyEntry, Term, VarEqTerm,
)
from .solver import MAX, MIN, SolveConfig, check_empty, extremum

MAX_EVAL_DEPTH = 64


def eval_fundamental(func: str, args: Sequence[ExtInt]) -> ExtInt:
    """Apply a fundamental function.

    Aggregates take any number of arguments (empty input yields the
    lattice identity); the binary functions return 0 unless applied to
    exactly two arguments, and <= returns 1 or 0.
    """
    if func == "Max":
        return max(args) if args else NEG_INF
    if func == "Min":
        return min(args) if args else POS_INF
    if func == "Count":
        return len(args)
    if func == "Sum":
        return ext_sum(args)
    if func in ("+", "-", "*", "<="):
        if len(args) != 2:
            return 0
        a, b = args
        if func == "+":
            return ext_add(a, b)
        if func == "-":
            neg = -b if not isinstance(b, float) else (
                NEG_INF if b == POS_INF else POS_INF
            )
            return ext_add(a, neg)
        if func == "*":
            return ext_times(a, b)
        return 1 if a <= b else 0
    raise UnknownLabellingError(f"unknown fundamental function {func!r}")


class ExtendedGraph:
    """A graph view with ontology labellings computed on demand."""

    def __init__(self, base: Graph, entries: Iterable[OntologyEntry] = (),
                 solve_config: Optional[SolveConfig] = None):
        self.base = base
        # the base graph's stored labellings; defined ones resolve on demand
        self.labellings = base.labellings
        self.entries: Tuple[OntologyEntry, ...] = tuple(entries)
        self._by_name: Dict[str, OntologyEntry] = {
            e.name: e for e in self.entries
        }
        self.solve_config = solve_config or SolveConfig()
        self._memo: Dict[Tuple[str, Tuple[NodeId, ...]], ExtInt] = {}
        self._depth = 0

    # -- the label-source interface shared with Graph ---------------------

    @property
    def real_nodes(self):
        return self.base.real_nodes

    def node_id(self, name: str) -> NodeId:
        return self.base.node_id(name)

    def node_name(self, nid: NodeId) -> str:
        return self.base.node_name(nid)

    def has_labelling(self, name: str) -> bool:
        return self.base.has_labelling(name) or name in self._by_name

    def arity(self, name: str) -> int:
        if self.base.has_labelling(name):
            return self.base.arity(name)
        entry = self._by_name.get(name)
        if entry is None:
            raise UnknownLabellingError(f"unknown labelling {name!r}")
        return len(entry.params)

    def label_value(self, name: str, key: Tuple[NodeId, ...]) -> ExtInt:
        if self.base.has_labelling(name):
            return self.base.label_value(name, key)
        entry = self._by_name.get(name)
        if entry is None:
            raise UnknownLabellingError(f"unknown labelling {name!r}")
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


def _solve_config(source) -> SolveConfig:
    return getattr(source, "solve_config", None) or SolveConfig()


def eval_term(source, term: Term, eta: Mapping[str, NodeId]) -> ExtInt:
    """Value of a term under an instantiation of its node variables.

    `source` is the graph view the term reads (a Graph or ExtendedGraph);
    nested queries and path extrema run the product engine against it.
    """
    depth_owner = source if isinstance(source, ExtendedGraph) else None
    if depth_owner is not None:
        depth_owner._depth += 1
        if depth_owner._depth > MAX_EVAL_DEPTH:
            depth_owner._depth -= 1
            raise RecursionDepthExceededError(
                f"term evaluation nested deeper than {MAX_EVAL_DEPTH}"
            )
    try:
        return _eval(source, term, eta)
    finally:
        if depth_owner is not None:
            depth_owner._depth -= 1


def _eval(source, term: Term, eta: Mapping[str, NodeId]) -> ExtInt:
    if isinstance(term, ConstTerm):
        return term.value
    if isinstance(term, LabelTerm):
        return source.label_value(
            term.labelling, tuple(eta[a] for a in term.args)
        )
    if isinstance(term, VarEqTerm):
        return 1 if eta[term.left] == eta[term.right] else 0
    if isinstance(term, IndicatorTerm):
        bound = {v: eta[v] for v in term.query.match_nodes}
        ag = AnswerGraph(source, term.query, bound_nodes=bound)
        result = check_empty(ag, cfg=_solve_config(source))
        return 0 if result.empty else 1
    if isinstance(term, (MinPathTerm, MaxPathTerm)):
        bound = {v: eta[v] for v in term.query.match_nodes}
        ag = AnswerGraph(
            source, term.query, bound_nodes=bound,
            target=(term.labelling, (term.path_var,)),
        )
        mode = MIN if isinstance(term, MinPathTerm) else MAX
        return extremum(ag, mode, cfg=_solve_config(source)).value
    if isinstance(term, ApplyTerm):
        args = [eval_term(source, a, eta) for a in term.args]
        return eval_fundamental(term.func, args)
    if isinstance(term, AggTerm):
        values = []
        for v in source.real_nodes:
            scope = dict(eta)
            scope[term.collector] = v
            if eval_term(source, term.filter, scope) == 1:
                values.append(eval_term(source, term.value,
                                        {term.collector: v}))
        return eval_fundamental(term.func, values)
    raise TypeError(f"not a term: {term!r}")

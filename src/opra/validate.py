"""Semantic validation of parsed queries against a graph schema.

Checks that every labelling reference resolves (graph labelling or an
earlier ontology entry), arities match, position variables stay inside
regular constraints and within range, node literals name real nodes,
variables are used consistently and no definition nests too deep.
Validation is a pure checking pass: the AST itself is already in core
form, so downstream consumers derive whatever ordering they need from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Container, Dict, FrozenSet, Iterator, Tuple

from .errors import (
    ArityMismatchError,
    DuplicateLabellingNameError,
    ForwardOntologyReferenceError,
    PositionVarOutOfRangeError,
    PositionVarOutsideRegexError,
    RecursionDepthExceededError,
    UnknownLabellingError,
    UnknownVariableError,
    ValidationError,
)
from .graph import Graph
from .query import (
    AGGREGATE_FUNCS, BINARY_FUNCS, PATH_EXTREMA,
    AggTerm, ApplyTerm, Concat, ConstTerm, IndicatorTerm, LabelAtom,
    LabelTerm, Letter, OntologyEntry, OpraQuery, PathExtremumTerm, PraQuery,
    Regex, RegularConstraint, Star, Term, Union_, VarEqTerm,
)

MAX_EVAL_DEPTH = 64


@dataclass(frozen=True)
class ValidatedQuery:
    """A query that passed validation."""

    query: OpraQuery


def query_node_vars(pra: PraQuery) -> Tuple[str, ...]:
    """Node variables: free ones first (MATCH order), then existential sorted."""
    free = tuple(pra.match_nodes)
    named = {ref.name for pc in pra.path_constraints
             for ref in (pc.source, pc.target) if not ref.literal}
    return free + tuple(sorted(named - set(free)))


def query_path_vars(pra: PraQuery) -> Tuple[str, ...]:
    """Path variables: free ones first (MATCH order), then existential sorted."""
    free = tuple(pra.match_paths)
    named = {pc.path_var for pc in pra.path_constraints}
    named.update(v for rc in pra.regular_constraints for v in rc.path_vars)
    named.update(v for ac in pra.arith_constraints for t in ac.terms
                 for v in t.path_vars)
    return free + tuple(sorted(named - set(free)))


def _label_atoms(r: Regex) -> Iterator[LabelAtom]:
    if isinstance(r, Letter):
        nc = r.constraint
        yield from (a for a in (nc.lhs, nc.rhs) if isinstance(a, LabelAtom))
    elif isinstance(r, (Concat, Union_)):
        yield from _label_atoms(r.left)
        yield from _label_atoms(r.right)
    elif isinstance(r, Star):
        yield from _label_atoms(r.body)


def definition_heights(entries: Collection[OntologyEntry],
                       stored: Container[str]) -> Dict[str, int]:
    """Each definition's static height, in order: how deep term evaluations
    nest at most below a lookup of it.  A term is 1 plus the highest of its
    parts and of the labellings it reads itself, in a lookup or in its
    nested query's letters, HAVING rows and target.  A name in `stored`
    reads as 0, as a view reads it there first, an entry as its height,
    above MAX_EVAL_DEPTH until computed, and any other name as 0; the
    first definition above the limit raises RecursionDepthExceededError.
    """
    heights = {e.name: MAX_EVAL_DEPTH + 1 for e in entries}

    def read(name: str) -> int:
        return 0 if name in stored else heights.get(name, 0)

    def height(t: Term) -> int:
        if isinstance(t, LabelTerm):
            return 1 + read(t.labelling)
        if isinstance(t, ApplyTerm):
            return 1 + max(map(height, t.args), default=0)
        if isinstance(t, AggTerm):
            return 1 + max(height(t.value), height(t.filter))
        if not isinstance(t, (IndicatorTerm, PathExtremumTerm)):
            return 1
        q = t.query
        reads = [a.labelling for rc in q.regular_constraints
                 for a in _label_atoms(rc.regex)]
        reads += [r.labelling for ac in q.arith_constraints for r in ac.terms]
        if not isinstance(t, IndicatorTerm):
            reads.append(t.labelling)
        return 1 + max(map(read, reads), default=0)

    for e in entries:
        heights[e.name] = height(e.term)
        if heights[e.name] > MAX_EVAL_DEPTH:
            raise RecursionDepthExceededError(
                f"labelling {e.name!r} nests deeper than {MAX_EVAL_DEPTH}")
    return heights


class _Checker:
    def __init__(self, graph: Graph, ontology_names: FrozenSet[str]):
        self.graph = graph
        self.ontology_names = ontology_names
        self.labels: Dict[str, int] = {
            name: lab.arity for name, lab in graph.labellings.items()
        }

    def resolve(self, name: str) -> int:
        arity = self.labels.get(name)
        if arity is None:
            if name in self.ontology_names:
                raise ForwardOntologyReferenceError(
                    f"labelling {name!r} is defined later in the ontology"
                )
            raise UnknownLabellingError(f"unknown labelling {name!r}")
        return arity

    def check_arity(self, name: str, got: int) -> None:
        arity = self.resolve(name)
        if arity != got:
            raise ArityMismatchError(
                f"labelling {name!r} has arity {arity}, applied to {got}"
            )

    # -- PRA queries ----------------------------------------------------

    def check_pra(self, pra: PraQuery) -> None:
        if len(set(pra.match_nodes)) != len(pra.match_nodes):
            raise ValidationError("duplicate variable in MATCH NODES")
        if len(set(pra.match_paths)) != len(pra.match_paths):
            raise ValidationError("duplicate variable in MATCH PATHS")
        node_vars = set(query_node_vars(pra))
        path_vars = set(query_path_vars(pra))
        both = node_vars & path_vars
        if both:
            raise ValidationError(
                f"variable(s) used as both node and path: {sorted(both)}"
            )
        for v in node_vars | path_vars:
            if v.startswith("@"):
                raise PositionVarOutsideRegexError(
                    f"position variable {v} used outside a regular constraint"
                )
        for pc in pra.path_constraints:
            for ref in (pc.source, pc.target):
                if ref.literal:
                    self.graph.node_id(ref.name)  # raises UnknownNodeError
        for rc in pra.regular_constraints:
            self.check_regular(rc)
        for ac in pra.arith_constraints:
            for t in ac.terms:
                self.check_arity(t.labelling, len(t.path_vars))

    def check_regular(self, rc: RegularConstraint) -> None:
        k = len(rc.path_vars)
        for atom in _label_atoms(rc.regex):
            self.check_arity(atom.labelling, len(atom.args))
            for pv in atom.args:
                if pv.index < 1 or pv.index > k:
                    raise PositionVarOutOfRangeError(
                        f"{pv.text()} out of range for a constraint "
                        f"over {k} path(s)"
                    )

    # -- terms ------------------------------------------------------------

    def check_term(self, term: Term, scope: FrozenSet[str]) -> None:
        if isinstance(term, ConstTerm):
            return
        if isinstance(term, LabelTerm):
            self.check_arity(term.labelling, len(term.args))
            for a in term.args:
                self._check_var(a, scope)
            return
        if isinstance(term, VarEqTerm):
            self._check_var(term.left, scope)
            self._check_var(term.right, scope)
            return
        if isinstance(term, (IndicatorTerm, PathExtremumTerm)):
            if isinstance(term, IndicatorTerm):
                if term.query.match_paths:
                    raise ValidationError(
                        "a query indicator takes node variables only"
                    )
            elif term.mode not in PATH_EXTREMA:
                raise ValidationError(f"unknown path extremum {term.mode!r}")
            else:
                self.check_arity(term.labelling, 1)
                if term.query.match_paths != (term.path_var,):
                    raise ValidationError(
                        "the extremum path variable must be the query's "
                        "only free path variable"
                    )
            for v in term.query.match_nodes:
                self._check_var(v, scope)
            self.check_pra(term.query)
            return
        if isinstance(term, ApplyTerm):
            if term.func not in AGGREGATE_FUNCS and term.func not in BINARY_FUNCS:
                raise ValidationError(f"unknown function {term.func!r}")
            for a in term.args:
                self.check_term(a, scope)
            return
        if isinstance(term, AggTerm):
            if term.func not in AGGREGATE_FUNCS:
                raise ValidationError(
                    f"{term.func!r} is not an aggregate function"
                )
            if term.collector in scope:
                raise ValidationError(
                    f"collector variable {term.collector!r} is not fresh"
                )
            # the value term ranges over the collector alone
            self.check_term(term.value, frozenset({term.collector}))
            self.check_term(term.filter, scope | {term.collector})
            return
        raise ValidationError(f"not a term: {term!r}")

    def _check_var(self, name: str, scope: FrozenSet[str]) -> None:
        if name.startswith("@"):
            raise PositionVarOutsideRegexError(
                f"position variable {name} used outside a regular constraint"
            )
        if name not in scope:
            raise UnknownVariableError(f"unknown node variable {name!r}")


def validate(q: OpraQuery | ValidatedQuery, g: Graph) -> ValidatedQuery:
    """Check a parsed query against a graph schema.

    Idempotent: validating an already-validated query returns it unchanged.
    """
    if isinstance(q, ValidatedQuery):
        return q
    names = [e.name for e in q.ontology]
    if len(set(names)) != len(names):
        raise DuplicateLabellingNameError("duplicate ontology labelling name")
    checker = _Checker(g, frozenset(names))
    for entry in q.ontology:
        if entry.name in checker.labels:
            raise DuplicateLabellingNameError(
                f"labelling {entry.name!r} collides with an existing labelling"
            )
        if len(set(entry.params)) != len(entry.params):
            raise ValidationError(
                f"duplicate parameter in labelling {entry.name!r}"
            )
        checker.check_term(entry.term, frozenset(entry.params))
        checker.labels[entry.name] = len(entry.params)
    definition_heights(q.ontology, g.labellings)
    checker.check_pra(q.query)
    return ValidatedQuery(q)

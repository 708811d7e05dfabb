"""Brute-force reference semantics.

Everything here evaluates queries by direct enumeration of path tuples
up to a length bound, checking the constraint definitions literally:
path constraints by endpoint comparison, regular constraints by NFA
simulation of the induced word (with subset statesets as a pruning
device, which only ever discards prefixes no extension can save), and
arithmetical constraints by positionwise aggregation.  Ontology
labellings evaluate by direct recursion on the term semantics, with
extrema taken over the enumerated satisfying paths.

The answer-graph and solver modules are never imported: this module is
the independent side of every differential test.

A separate membership check for regular constraints, `regex_matches`,
decides the language inductively over the regex tree (concatenation
splits, union branches, star closures) instead of via the compiled NFA,
so the two regex semantics can be tested against each other.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from .automata import Nfa, compile_regex, eval_node_constraint, step
from .errors import EnumerationCapExceededError, check_int
from .extint import (
    NEG_INF, POS_INF, ExtInt, eval_fundamental, ext_add, ext_mul,
)
from .graph import SINK, Graph, NodeId, View, aggregate, path_index
from .query import (
    AggTerm, ApplyTerm, Concat, ConstTerm, Epsilon, IndicatorTerm, LabelTerm,
    Letter, OntologyEntry, OpraQuery, PathExtremumTerm, PraQuery, Regex,
    Star, Term, Union_, VarEqTerm,
)
from .parser import parse
from .validate import (
    ValidatedQuery, check_extremum_mode, query_node_vars, query_path_vars,
    validate,
)


@dataclass
class OracleConfig:
    """Enumeration limits: a max_path_len that is not an int >= 0, or a
    max_paths that is not an int >= 1, raises `ValidationError` here."""
    max_path_len: int = 6
    max_paths: int = 2_000_000  # cap on visited enumeration-tree nodes

    def __post_init__(self):
        check_int("max_path_len", self.max_path_len, 0)
        check_int("max_paths", self.max_paths, 1)


# -- direct regex-language membership (independent of the NFA) -----------------

def regex_matches(source, regex: Regex, letters: Sequence[tuple]) -> bool:
    """Inductive membership of a concrete letter sequence in the regex
    language: letters match node constraints, concatenation splits the
    word, union takes either branch, star is the iterated closure."""
    memo: Dict[Tuple[int, int, int], bool] = {}

    def m(r: Regex, i: int, j: int) -> bool:
        key = (id(r), i, j)
        got = memo.get(key)
        if got is not None:
            return got
        if isinstance(r, Epsilon):
            out = i == j
        elif isinstance(r, Letter):
            out = j == i + 1 and eval_node_constraint(
                source, r.constraint, *letters[i]
            )
        elif isinstance(r, Union_):
            out = m(r.left, i, j) or m(r.right, i, j)
        elif isinstance(r, Concat):
            out = any(
                m(r.left, i, k) and m(r.right, k, j) for k in range(i, j + 1)
            )
        elif isinstance(r, Star):
            out = i == j or any(
                m(r.body, i, k) and m(r, k, j) for k in range(i + 1, j + 1)
            )
        else:
            raise TypeError(f"not a regex: {r!r}")
        memo[key] = out
        return out

    return m(regex, 0, len(letters))


def letters_of(paths: Sequence[Sequence[NodeId]]) -> List[tuple]:
    s = max((len(p) for p in paths), default=0)
    return [
        (
            tuple(path_index(p, i) for p in paths),
            tuple(path_index(p, i + 1) for p in paths),
        )
        for i in range(1, s + 1)
    ]


def match_paths_language(source, regex: Regex,
                         paths: Sequence[Sequence[NodeId]]) -> bool:
    return regex_matches(source, regex, letters_of(paths))


# -- joint enumeration of satisfying path tuples --------------------------------

class _Enumerator:
    def __init__(self, source, pra: PraQuery, cfg: OracleConfig,
                 bound_nodes: Optional[Mapping[str, NodeId]] = None,
                 bound_paths: Optional[Mapping[str, Sequence[NodeId]]] = None):
        self.source = source
        self.pra = pra
        self.cfg = cfg
        self.bound_nodes = dict(bound_nodes or {})
        self.bound_paths = {
            v: tuple(p) for v, p in (bound_paths or {}).items()
        }
        self.node_vars = query_node_vars(pra)
        self.path_vars = query_path_vars(pra)
        self.nfas: List[Tuple[Nfa, Tuple[int, ...]]] = []
        pidx = {v: i for i, v in enumerate(self.path_vars)}
        for rc in pra.regular_constraints:
            self.nfas.append(
                (compile_regex(rc.regex), tuple(pidx[v] for v in rc.path_vars))
            )
        self.src_of: List[List[object]] = [[] for _ in self.path_vars]
        self.tgt_of: List[List[object]] = [[] for _ in self.path_vars]
        for pc in pra.path_constraints:
            i = pidx[pc.path_var]
            src = self.source.node_id(pc.source.name) if pc.source.literal \
                else pc.source.name
            tgt = self.source.node_id(pc.target.name) if pc.target.literal \
                else pc.target.name
            self.src_of[i].append(src)
            self.tgt_of[i].append(tgt)
        self.reals = tuple(source.real_nodes)
        self.nodes_visited = 0

    def _resolve(self, req, env: Mapping[str, NodeId]) -> NodeId:
        return req if isinstance(req, int) else env[req]

    def run(self) -> Iterator[Tuple[Dict[str, NodeId],
                                    Dict[str, Tuple[NodeId, ...]]]]:
        domains = [
            (self.bound_nodes[v],) if v in self.bound_nodes else self.reals
            for v in self.node_vars
        ]
        for combo in itertools.product(*domains):
            env = dict(zip(self.node_vars, combo))
            yield from self._per_env(env)

    def _per_env(self, env):
        starts: List[Sequence[NodeId]] = []
        for i, v in enumerate(self.path_vars):
            if v in self.bound_paths:
                p = self.bound_paths[v]
                if self.src_of[i] or self.tgt_of[i]:
                    if not p:
                        return
                    if any(self._resolve(r, env) != p[0]
                           for r in self.src_of[i]):
                        return
                    if any(self._resolve(r, env) != p[-1]
                           for r in self.tgt_of[i]):
                        return
                starts.append((p[0] if p else SINK,))
            elif self.src_of[i] or self.tgt_of[i]:
                required = {self._resolve(r, env) for r in self.src_of[i]}
                if len(required) > 1:
                    return
                starts.append((required.pop(),) if required else self.reals)
            else:
                starts.append(self.reals + (SINK,))
        statesets = (frozenset({0}),) * len(self.nfas)
        for cur in itertools.product(*starts):
            paths = tuple((c,) if c != SINK else () for c in cur)
            yield from self._extend(env, cur, paths, statesets, 1)

    def _can_end(self, i: int, node: NodeId, env) -> bool:
        return all(self._resolve(r, env) == node for r in self.tgt_of[i])

    def _extend(self, env, cur, paths, statesets, pos):
        self.nodes_visited += 1
        if self.nodes_visited > self.cfg.max_paths:
            raise EnumerationCapExceededError(
                f"oracle enumeration cap {self.cfg.max_paths} exceeded"
            )
        if all(c == SINK for c in cur):
            # every path has ended and the whole word has been read
            if all(ss & nfa.final for ss, (nfa, _) in
                   zip(statesets, self.nfas)) and self._arith_ok(paths):
                yield env, dict(zip(self.path_vars, paths))
            return
        choices: List[Sequence[NodeId]] = []
        for i, v in enumerate(self.path_vars):
            if cur[i] == SINK:
                choices.append((SINK,))
            elif v in self.bound_paths:
                choices.append((path_index(self.bound_paths[v], pos + 1),))
            else:
                opts: List[NodeId] = []
                if self._can_end(i, cur[i], env):
                    opts.append(SINK)
                if pos < self.cfg.max_path_len:
                    opts.extend(self.reals)
                choices.append(opts)
        for nxt in itertools.product(*choices):
            new_sets = []
            dead = False
            for ss, (nfa, sel) in zip(statesets, self.nfas):
                cur_sel = tuple(cur[c] for c in sel)
                nxt_sel = tuple(nxt[c] for c in sel)
                ss2 = step(self.source, nfa, ss, cur_sel, nxt_sel)
                if not ss2:
                    dead = True
                    break
                new_sets.append(ss2)
            if dead:
                continue
            new_paths = tuple(
                p + (n,) if n != SINK else p for p, n in zip(paths, nxt)
            )
            yield from self._extend(env, nxt, new_paths,
                                    tuple(new_sets), pos + 1)

    def _arith_ok(self, paths) -> bool:
        named = dict(zip(self.path_vars, paths))
        for ac in self.pra.arith_constraints:
            total: ExtInt = 0
            for t in ac.terms:
                value = aggregate(
                    self.source, t.labelling,
                    [named[v] for v in t.path_vars],
                )
                total = ext_add(total, ext_mul(t.coeff, value))
            if not total <= ac.bound:
                return False
        return True


def enumerate_satisfying(source, pra: PraQuery, cfg: OracleConfig,
                         bound_nodes=None, bound_paths=None):
    """Yield (env, paths) for every satisfying assignment within bounds."""
    return _Enumerator(source, pra, cfg, bound_nodes, bound_paths).run()


# -- ontology labellings by direct recursion ------------------------------------

class OracleView(View):
    """The oracle's `graph.View`: a defined labelling's term evaluates by
    `oracle_eval_term`, with nested queries answered by enumeration."""

    def __init__(self, base: Graph, entries: Sequence[OntologyEntry],
                 cfg: OracleConfig):
        super().__init__(base, entries)
        self.cfg = cfg

    def term_value(self, term: Term, eta: Mapping[str, NodeId]) -> ExtInt:
        return oracle_eval_term(self, term, eta)


def oracle_eval_term(view: OracleView, term: Term,
                     eta: Mapping[str, NodeId]) -> ExtInt:
    """Term semantics with nested queries answered by enumeration."""
    if isinstance(term, ConstTerm):
        return term.value
    if isinstance(term, LabelTerm):
        return view.label_value(term.labelling,
                                tuple(eta[a] for a in term.args))
    if isinstance(term, VarEqTerm):
        return 1 if eta[term.left] == eta[term.right] else 0
    if isinstance(term, IndicatorTerm):
        bound = {v: eta[v] for v in term.query.match_nodes}
        for _ in enumerate_satisfying(view, term.query, view.cfg,
                                      bound_nodes=bound):
            return 1
        return 0
    if isinstance(term, PathExtremumTerm):
        bound = {v: eta[v] for v in term.query.match_nodes}
        return _best(view, term.query, (term.labelling, (term.path_var,)),
                     term.mode, view.cfg, bound)
    if isinstance(term, ApplyTerm):
        args = [oracle_eval_term(view, a, eta) for a in term.args]
        return eval_fundamental(term.func, args)
    if isinstance(term, AggTerm):
        values = []
        for v in view.real_nodes:
            scope = dict(eta)
            scope[term.collector] = v
            if oracle_eval_term(view, term.filter, scope) == 1:
                values.append(
                    oracle_eval_term(view, term.value, {term.collector: v})
                )
        return eval_fundamental(term.func, values)
    raise TypeError(f"not a term: {term!r}")


# -- public query-level entry points ---------------------------------------------

def _unwrap(g: Graph, q) -> OpraQuery:
    """The query itself: text is parsed and validated against g, as the
    engine does."""
    if isinstance(q, str):
        q = validate(parse(q), g)
    if isinstance(q, ValidatedQuery):
        return q.query
    return q


def oracle_source(g: Graph, q, cfg: OracleConfig) -> OracleView:
    return OracleView(g, _unwrap(g, q).ontology, cfg)


def enumerate_answers(g: Graph, q, cfg: OracleConfig,
                      bound_nodes=None, bound_paths=None):
    """All assignments to the free variables for which some assignment to
    the existential ones (paths within the length bound) satisfies every
    constraint.  Returns a set of (free-node tuple, free-path tuple)."""
    opra = _unwrap(g, q)
    view = oracle_source(g, opra, cfg)
    pra = opra.query
    answers = set()
    for env, paths in enumerate_satisfying(view, pra, cfg,
                                           bound_nodes, bound_paths):
        nodes = tuple(env[v] for v in pra.match_nodes)
        frees = tuple(paths[v] for v in pra.match_paths)
        answers.add((nodes, frees))
    return answers


def brute_extremum(g: Graph, q, target: Tuple[str, Tuple[str, ...]],
                   mode: str, cfg: OracleConfig,
                   bound_nodes=None) -> ExtInt:
    """Min or max of the target aggregate over all satisfying assignments
    within the length bound; empty set gives +inf (min) / -inf (max)."""
    opra = _unwrap(g, q)
    return _best(oracle_source(g, opra, cfg), opra.query, target, mode, cfg,
                 bound_nodes)


def _best(view: OracleView, pra: PraQuery,
          target: Tuple[str, Tuple[str, ...]], mode: str, cfg: OracleConfig,
          bound_nodes=None) -> ExtInt:
    """The least (mode "min") or the greatest (mode "max") target
    aggregate over every satisfying assignment; +inf (min) / -inf (max)
    over none.  Any other mode raises ValidationError."""
    check_extremum_mode(mode)
    name, path_sel = target
    values = (aggregate(view, name, [paths[v] for v in path_sel])
              for _, paths in enumerate_satisfying(view, pra, cfg,
                                                   bound_nodes))
    if mode == "min":
        return min(values, default=POS_INF)
    return max(values, default=NEG_INF)


def oracle_two_phase(g: Graph, q, target: Tuple[str, Tuple[str, ...]],
                     mode: str, b1: int, b2: int,
                     max_paths: int = OracleConfig.max_paths,
                     bound_nodes=None) -> ExtInt:
    """The two-bound extremum protocol evaluated with the oracle: a
    better value at length bound b2 than at b1 means the true extremum is
    unbounded."""
    short = brute_extremum(g, q, target, mode,
                           OracleConfig(b1, max_paths), bound_nodes)
    long_ = brute_extremum(g, q, target, mode,
                           OracleConfig(b2, max_paths), bound_nodes)
    if mode == "min":
        return NEG_INF if long_ < short else short
    return POS_INF if long_ > short else short

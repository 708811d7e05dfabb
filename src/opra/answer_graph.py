"""On-the-fly product graph for query evaluation.

A state couples one NFA state per regular constraint, a position index
into the bound input paths (a counter that jumps to omega past their
end, or is omega throughout when nothing is bound), one graph node per
path variable, and the values of the tracked slots a step reads.  A
node literal of a path constraint is one more tracked slot, after the
variables', whose domain is its one node, so every endpoint check
reads a slot.  A state is an `AGState` named tuple, so hashing and
equality run in C.  States are never materialized globally; the solver
asks for start states, successors, weights and target-ness on demand.

Most tracked node variables are fixed at the start, one start per
value.  A lazy target is bound later instead: a variable that is not
given in `bound_nodes`, is the source of no path
constraint, and is the target only of components without a bound
input path (t in `s -pi-> t`).  It starts UNBOUND, any node may end a
component it targets while it is unbound, and the step that moves such
a component from a real node u onto the sink binds it to u; a step
where two of its components end at different nodes is dropped.  This
is sound because letters and arithmetical terms read path positions
only, never tracked variables, and a target state has every component
on the sink, so every lazy target is bound there.  Free `(s, t)`
queries thus start from n states, not n^2.

A state's env holds the read slots alone (`Plan.read_slots`): every
target slot, lazy ones included, the only slots a step reads or binds.
The rest are carried (`Plan.carried_slots`): free sources, free node
variables no path constraint names, and source literals.  Read only to
pick first nodes, they are yielded beside each start state, and
`decode` rebuilds the full env from both.

Transitions enforce, in one place, the four consistency rules that make
product paths encode exactly the constraint-satisfying path tuples:
bound components replay their input path position by position, a
component that has terminated stays on the sink forever, a component may
terminate only when its node satisfies its path-constraint targets, and
every NFA must take an enabled transition while its own paths are
alive, and keeps its state afterwards only if that state is final (the
paper's terminal letter ⊥, here a rule).  So the move that ends an
NFA's paths, the one whose selected next nodes are all the sink, enters
only a final state: from any other, ⊥ leaves no run, and the state
would have no successor and be no target.  Start states obey the same
rule: one where an NFA's components all start on the sink is made only
when state 0 is final.  No state is generated that has no way on for
this reason (a trim product, one step deep).

Path tuples decode from product paths by truncating each component at
its first sink; with that convention a product path of length L covers
exactly the tuples whose longest component has length L.

Where letters allow, successors come from labelling indexes rather than
a scan of every node, under two rules that drop only states with no way
on.  The closing-move rule: an NFA may move into a state with no
real-letter move (not live) only on the move that ends its paths, and
then only into a final state, because from there a real node could
never take another step.
Candidate narrowing: for an NFA whose selector is one component at a
real node u, every real next node must pass a letter into a live state;
when each such letter reads `L(@1, @1') = c` or `L(@1', @1) = c` (or
either with its sides swapped) and the source's `step_targets` bounds
it, the passing nodes are among those targets of u, and the
component's real choices are the intersection of these unions over its
single-component NFAs.  The source answers for stored labellings at
any value but their default, and an ontology view also for the defined
shapes `ontology` lists; the lookups are resolved when the plan is
built.  Any other letter leaves all real nodes as candidates.  Each
candidate is then tested against a row of its NFA state in the plan's
move table (`Nfa.moves` with the targets): a stored step letter by
membership in its targets, which are exact, sink included, and any other
letter by evaluation.

A step pays only for what can vary between calls; the plan decides the
rest when it is built (`successors`).  Each NFA state's moves are split
into a live row, the moves into live states, and a closing row, the
moves into final states, so the closing-move rule picks a row and tests
no move.  Each component's choices increase, the sink (0) first, and a
row's destinations are distinct and increase, as the moves out of a
position automaton's state are, so the states come out of the product
in (nodes, nfa_states) order, none repeated, with no sort and no dedupe.
A node's targets keep their increasing order beside their set
(`Labelling.targets`), so one lookup narrows with no sort either.
An NFA memoises its destinations per next selection for the call only
where a selection can repeat, when it reads fewer components than the
plan has, and one that reads one component compares nodes, not
1-tuples.  An NFA whose paths have all ended keeps its state; a state
handed in from outside in which that state is not final gives no
successor at once.

Weights read stored labellings straight from their entries, a unary
one with a default of 0 in one lookup (no key with the sink is stored,
so the sink reads 0 unchecked), and add plain ints as ints, other
values by the extended rules.  A row of one term skips the sum, and a
target that is such a row with coefficient 1 reads it, so a state
reads each term once: a MIN target is that row's column, with no column
of its own, and a MAX target negates its value.

A `Plan` holds what depends only on the source, the query, the names
of the bound variables and the target, and is the one place that reads
the query and the source's labellings for a search.  It states, each
computed once when the plan is built unless said otherwise:

  * variable and slot orders, lazy targets, and compiled NFAs with
    their move tables;
  * weight and target readers, and the weight vector's layout
    (`Plan.layout`);
  * the HAVING rows whose contribution is provably >= 0
    (`monotone_rows`), which a search prunes on;
  * the magnitude that derived bounds grow with (`Plan.magnitude`): the
    largest finite |coefficient * value| a HAVING term or the target
    can take, at least 1, computed on each read, which only a derived b1
    makes, from the stored labellings' cached `Labelling.finite_bound`;
  * the layout of an answer: the free lazy targets in MATCH order with
    their positions in a state's env (`free_lazy`, `free_lazy_at`), which
    key an answer table, and the free paths' components in MATCH order
    (`free_paths`) with the free node variables' values (`free_nodes`),
    which make an enumerated answer.

An `AnswerGraph` binds a plan to input paths and node values.
An ontology view keeps the plans of its nested queries, so each is
compiled once per view and bound once per node tuple, or once per value
tuple of its eager variables where one search answers every value of
its lazy targets (`lazy_targets`, `solver.answer_table`).
"""

from __future__ import annotations

import itertools
from typing import (
    Collection, Dict, FrozenSet, List, Mapping, NamedTuple, Optional,
    Sequence, Tuple,
)

from .automata import Nfa, compile_regex, eval_node_constraint
from .errors import ValidationError
from .extint import NEG_INF, POS_INF, ExtInt, ext_add, ext_mul, is_finite
from .graph import NO_TARGETS, SINK, NodeId, NodeTargets, path_index
from .query import (
    ArithTerm, ConstAtom, LabelAtom, NodeConstraint, NodeRef, PosVar,
    PraQuery,
)
from .validate import query_node_vars, query_path_vars

OMEGA = -1  # position index once past the bound input paths
UNBOUND = -1  # env value of a lazy target before its component ends

# per real node, a set holding every real next node a letter admits
Targets = Mapping[NodeId, NodeTargets]
# per NFA state: its live row and its closing row, the real moves into a
# live and into a final state, each as (letter, dst, exact) in increasing
# dst order, and its live letters' targets, or None for a full scan
MoveTable = List[Tuple[tuple, tuple, Optional[Tuple[Targets, ...]]]]
_STEP_ARGS = (PosVar(1), PosVar(1, True))


def _index_key(letter: NodeConstraint, source) -> Optional[Targets]:
    """The source's step targets of `L(@1, @1') = c` or `L(@1', @1) = c`,
    either side first; None for any other letter or where the source has
    no index for L at c."""
    lhs, rhs = letter.lhs, letter.rhs
    if isinstance(lhs, ConstAtom):
        lhs, rhs = rhs, lhs
    if letter.op != "=" or not isinstance(lhs, LabelAtom) \
            or not isinstance(rhs, ConstAtom) \
            or lhs.args not in (_STEP_ARGS, _STEP_ARGS[::-1]):
        return None
    return source.step_targets(lhs.labelling, rhs.value,
                               lhs.args != _STEP_ARGS)


def _move_table(nfa: Nfa, source) -> MoveTable:
    """`nfa.moves` split into rows, with their letters' targets.  `exact`
    holds those of a stored labelling, which the letter meets exactly,
    sink included; a defined letter's are a superset, so it keeps None,
    as do the rest.  A move into a state that is live and final is in
    both rows."""
    table = []
    for real in nfa.moves:
        live_row, closing_row, keys = [], [], []
        for letter, dst, live in real:
            targets = _index_key(letter, source)
            atom = letter.rhs if isinstance(letter.rhs, LabelAtom) \
                else letter.lhs
            exact = targets if targets is not None \
                and atom.labelling in source.labellings else None
            if live:
                live_row.append((letter, dst, exact))
                keys.append(targets)
            if dst in nfa.final:
                closing_row.append((letter, dst, exact))
        table.append((tuple(live_row), tuple(closing_row),
                      None if None in keys else tuple(keys)))
    return table


def lazy_targets(pra: PraQuery, bound_paths: Collection[str] = (),
                 bound_nodes: Collection[str] = ()) -> FrozenSet[str]:
    """The node variables a plan binds lazily: path-constraint targets
    that nothing fixes up front, being no path constraint's source, not
    in `bound_nodes` and no target of a path in `bound_paths`."""
    eager = set(bound_nodes)
    targets = set()
    for pc in pra.path_constraints:
        if not pc.source.literal:
            eager.add(pc.source.name)
        if not pc.target.literal:
            targets.add(pc.target.name)
            if pc.path_var in bound_paths:
                eager.add(pc.target.name)
    return frozenset(targets - eager)


def monotone_rows(source, pra: PraQuery) -> Tuple[int, ...]:
    """The HAVING rows of pra whose per-state contribution on source is
    provably >= 0: every term's least contribution is finite and >= 0
    (all-sink positions contribute 0, so 0 is always possible).  A
    labelling the source does not store may take any value."""
    def least(t: ArithTerm) -> ExtInt:
        lab = source.labellings.get(t.labelling)
        lo, hi = (NEG_INF, POS_INF) if lab is None else lab.value_range
        return ext_mul(t.coeff, lo if t.coeff >= 0 else hi)

    return tuple([i for i, ac in enumerate(pra.arith_constraints)
                  if all(is_finite(lo) and lo >= 0
                         for lo in map(least, ac.terms))])


class AGState(NamedTuple):
    nfa_states: Tuple[int, ...]
    pos: int
    nodes: Tuple[NodeId, ...]
    env: Tuple[NodeId, ...]


class Plan:
    """The part of a product fixed before any value is bound."""

    def __init__(self, source, pra: PraQuery,
                 bound_paths: Collection[str] = (),
                 bound_nodes: Collection[str] = (),
                 target: Optional[Tuple[str, Tuple[str, ...]]] = None):
        self.source = source
        self.pra = pra

        for kind, names, free in (("path", bound_paths, pra.match_paths),
                                  ("node", bound_nodes, pra.match_nodes)):
            for v in names:
                if v not in free:
                    raise ValidationError(
                        f"cannot bind non-free {kind} variable {v!r}")

        # path variables: bound free ones first, then unbound free, then
        # existential (the component order of every state's node tuple)
        self.path_vars: Tuple[str, ...] = tuple(sorted(
            query_path_vars(pra),
            key=lambda v: (v not in pra.match_paths, v not in bound_paths)))
        self.k = len(self.path_vars)

        # tracked node variables: free ones, then path-constraint ones
        self.env_vars: Tuple[str, ...] = query_node_vars(pra)
        self.lazy_vars = lazy_targets(pra, bound_paths, bound_nodes)
        reals = tuple(source.real_nodes)
        # per slot, its domain; a binding sets those of `bound_slots`
        self.domains = [(UNBOUND,) if v in self.lazy_vars else reals
                        for v in self.env_vars]
        self.bound_slots = [(i, v) for i, v in enumerate(self.env_vars)
                            if v in bound_nodes]
        # a node literal of a path constraint is one more slot, after the
        # variables', whose domain is its one node
        slot = {NodeRef(v): i for i, v in enumerate(self.env_vars)}
        for pc in pra.path_constraints:
            for ref in (pc.source, pc.target):
                if ref not in slot:
                    slot[ref] = len(self.domains)
                    self.domains.append((source.node_id(ref.name),))

        # per component, the slots its path constraints' endpoints read
        pidx = {v: i for i, v in enumerate(self.path_vars)}
        self._src_slots: List[List[int]] = [[] for _ in range(self.k)]
        tgt_slots: List[List[int]] = [[] for _ in range(self.k)]
        for pc in pra.path_constraints:
            self._src_slots[pidx[pc.path_var]].append(slot[pc.source])
            tgt_slots[pidx[pc.path_var]].append(slot[pc.target])
        # a state's env: every target slot, lazy ones too, in slot order;
        # the other slots are carried beside it from the start
        self.read_slots = tuple(sorted(set().union(*tgt_slots)))
        self.carried_slots = tuple(s for s in range(len(self.domains))
                                   if s not in self.read_slots)
        split = self.carried_slots + self.read_slots
        self._unsplit = tuple(split.index(s) for s in range(len(split)))
        at = {s: i for i, s in enumerate(self.read_slots)}
        # per component, its targets' positions in a state's env, and the
        # lazy ones its last step binds
        self._tgt_slots = [[at[s] for s in slots] for slots in tgt_slots]
        self._binds = [(i, lazy) for i, lazy in enumerate(
            tuple(at[s] for s in slots if self.domains[s] == (UNBOUND,))
            for slots in tgt_slots) if lazy]
        # an answer's layout: the free lazy targets in MATCH order with
        # their env positions, and the free paths' components in MATCH
        # order
        self.free_lazy = tuple([v for v in pra.match_nodes
                                if v in self.lazy_vars])
        self.free_lazy_at = tuple([at[self.env_vars.index(v)]
                                   for v in self.free_lazy])
        self.free_paths = tuple([pidx[v] for v in pra.match_paths])

        # compiled regular constraints with their component selectors
        self.nfas: List[Tuple[Nfa, Tuple[int, ...]]] = [
            (compile_regex(rc.regex), tuple(pidx[v] for v in rc.path_vars))
            for rc in pra.regular_constraints
        ]
        self.tables = [_move_table(nfa, source) for nfa, _ in self.nfas]
        # per NFA, what a step reads: final states, the component it reads
        # alone (else None), selector, its selection once its paths have
        # ended (the sink alone for one component), whether a call memoises
        # its destinations, which pays only where a next selection can
        # repeat, as it does when the NFA reads fewer components than the
        # plan has, and its move table
        self._steps = [
            (nfa.final, sel[0] if len(sel) == 1 else None, sel,
             SINK if len(sel) == 1 else (SINK,) * len(sel),
             len(set(sel)) < self.k, table)
            for (nfa, sel), table in zip(self.nfas, self.tables)]
        # per component, the indices of its single-component NFAs
        self._narrowers: List[List[int]] = [[] for _ in range(self.k)]
        for j, (_, sel) in enumerate(self.nfas):
            if len(sel) == 1:
                self._narrowers[sel[0]].append(j)

        # arithmetical constraints: (coeff, labelling, reader) terms per
        # row, and the rows' bounds
        self._arith = [
            [(t.coeff, t.labelling, self._reader(
                t.labelling, tuple(pidx[v] for v in t.path_vars)))
             for t in ac.terms]
            for ac in pra.arith_constraints
        ]
        self.bounds: Tuple[int, ...] = tuple(
            ac.bound for ac in pra.arith_constraints
        )
        self.monotone = monotone_rows(source, pra)

        # (labelling, reader), and the HAVING row that is the target alone
        # with coefficient 1, whose value a state's target then takes
        self.target = self._target_row = None
        if target is not None:
            name, path_sel = target
            for v in path_sel:
                if v not in pidx:
                    raise ValidationError(
                        f"unknown target path variable {v!r}")
            self.target = (name, self._reader(
                name, tuple(pidx[v] for v in path_sel)))
            alone = (ArithTerm(1, name, tuple(path_sel)),)
            self._target_row = next((r for r, ac in enumerate(
                pra.arith_constraints) if ac.terms == alone), None)

        self._reals = reals
        self._sinks = (SINK,) * self.k

    def layout(self, sign: int) -> Tuple[int, Optional[int]]:
        """(length, target column) of a weight vector under `sign`: the
        HAVING rows, then for a sign of 1 or -1 the sign-normalised
        target, and no target for 0.  A MIN target that is a HAVING row
        alone is that row's column and adds none, the two being one sum."""
        n = len(self._arith)
        if not sign:
            return n, None
        if sign == 1 and self._target_row is not None:
            return n, self._target_row
        return n + 1, n

    @property
    def magnitude(self) -> int:
        """The largest |coefficient| * finite bound over the HAVING terms
        and the target (coefficient 1), and 1.  A bound is at least 1,
        and 1 for a labelling the source does not store, whose magnitude
        is unknown up front.  Only a derived b1 reads it, so it is
        computed on that read and not kept: a `functools.cached_property`,
        which adds a key to the plan's `__dict__` after `__init__`, cost
        about 1.5 % of `automaton_extrema`'s ops/s under CPython 3.11."""
        labs = self.source.labellings
        terms = [(t.coeff, t.labelling)
                 for ac in self.pra.arith_constraints for t in ac.terms]
        if self.target is not None:
            terms.append((1, self.target[0]))
        return max([1] + [abs(c) * max(1, labs[name].finite_bound)
                          if name in labs else abs(c) for c, name in terms])

    def _reader(self, name: str, sel: Tuple[int, ...]):
        """`name` at the nodes `sel` picks from a node tuple; 0 when all
        are the sink, as a positionwise sum stops at its longest path.
        Only a stored labelling of the right arity is read directly, from
        its live entries.  No key with the sink is stored, so one
        component over a default of 0 is one lookup, unchecked."""
        source, sinks = self.source, (SINK,) * len(sel)
        lab = source.labellings.get(name)
        if lab is None or lab.arity != len(sel):
            # the source evaluates it, or raises for a wrong arity
            def read(nodes: Tuple[NodeId, ...]) -> ExtInt:
                key = tuple([nodes[c] for c in sel])
                return 0 if key == sinks else source.label_value(name, key)
            return read
        default, get = lab.default, lab.entries.get
        if len(sel) == 1 and default == 0:
            (c,) = sel
            return lambda nodes: get((nodes[c],), 0)

        def read_sel(nodes: Tuple[NodeId, ...]) -> ExtInt:
            key = tuple([nodes[c] for c in sel])
            return 0 if key == sinks else get(key, default)
        return read_sel

    def full_env(self, carried: Tuple[NodeId, ...],
                 env: Tuple[NodeId, ...]) -> Tuple[NodeId, ...]:
        """Every slot's value, from carried values and a state's env."""
        both = carried + env
        return tuple([both[i] for i in self._unsplit])

    def free_nodes(self, carried: Tuple[NodeId, ...],
                   env: Tuple[NodeId, ...]) -> Tuple[NodeId, ...]:
        """The free node variables' values, in MATCH order, from carried
        values and a state's env: they lead `env_vars`."""
        return self.full_env(carried, env)[:len(self.pra.match_nodes)]

    def _can_end(self, i: int, node: NodeId, env: Tuple[NodeId, ...]) -> bool:
        for s in self._tgt_slots[i]:
            if env[s] != node and env[s] != UNBOUND:
                return False
        return True

    def _bind(self, cur: Tuple[NodeId, ...], nxt: Tuple[NodeId, ...],
              env: Tuple[NodeId, ...]) -> Optional[Tuple[NodeId, ...]]:
        """`env` after the step cur -> nxt: the lazy targets of every
        component that ends in it take the node it ends at; None when
        two components end at different nodes in the same step."""
        for i, slots in self._binds:
            u = cur[i]
            if u == SINK or nxt[i] != SINK:
                continue
            for s in slots:
                if env[s] == UNBOUND:
                    env = env[:s] + (u,) + env[s + 1:]
                elif env[s] != u:
                    return None
        return env


class AnswerGraph:
    """Implicit product of a graph, constraint NFAs and a position counter:
    a `Plan` bound to values.

    `source` is a Graph or an ontology-extended view; `bound_paths` binds
    free path variables to concrete input paths, `bound_nodes` binds free
    node variables (as when a nested query is evaluated under an outer
    instantiation), and `target` names a labelling aggregated over some
    path variables for extremum queries.  `plans` is a dict of plans on
    `source` with the same step targets, which the build reads and adds to.
    """

    def __init__(self, source, pra: PraQuery,
                 bound_paths: Optional[Mapping[str, Sequence[NodeId]]] = None,
                 bound_nodes: Optional[Mapping[str, NodeId]] = None,
                 target: Optional[Tuple[str, Tuple[str, ...]]] = None,
                 plans: Optional[Dict[tuple, Plan]] = None):
        bound_paths = dict(bound_paths or {})
        bound_nodes = dict(bound_nodes or {})
        plans = {} if plans is None else plans
        # the plan keeps pra alive, so pra's id names it while it is kept
        key = (id(pra), tuple(bound_paths), tuple(bound_nodes), target)
        plan = plans.get(key)
        if plan is None:
            plan = plans[key] = Plan(source, pra, bound_paths, bound_nodes,
                                     target)
        self.plan = plan

        self.bound: List[Optional[Tuple[NodeId, ...]]] = [
            tuple(bound_paths[v]) if v in bound_paths else None
            for v in plan.path_vars
        ]
        if any(SINK in p for p in self.bound if p):
            raise ValidationError("input paths range over real nodes only")
        self.N = max((len(p) for p in self.bound if p is not None), default=0)
        self.start_pos = 1 if self.N >= 1 else OMEGA
        self._domains = list(plan.domains)
        for s, v in plan.bound_slots:
            self._domains[s] = (bound_nodes[v],)

    # -- start and target states -----------------------------------------

    def start_states(self):
        """(state, carried values) per value of every slot, in slot order,
        and choice of first nodes."""
        plan = self.plan
        initials = (0,) * len(plan.nfas)
        # the selections of NFAs whose state 0 is not final: a start state
        # where one of them has all its components on the sink is dead
        ended = [sel for final, _, sel, _, _, _ in plan._steps
                 if 0 not in final]
        for full in itertools.product(*self._domains):
            env = tuple([full[s] for s in plan.read_slots])
            choices: List[Tuple[NodeId, ...]] = []
            for i in range(plan.k):
                p, srcs = self.bound[i], plan._src_slots[i]
                if p is not None:
                    # a path constraint needs a first and last node
                    if srcs and not (p and all(full[s] == p[0] for s in srcs)
                                     and plan._can_end(i, p[-1], env)):
                        break
                    choices.append((path_index(p, 1),))
                elif srcs:
                    starts = {full[s] for s in srcs}
                    if len(starts) != 1:
                        break
                    choices.append(tuple(starts))
                else:
                    choices.append(plan._reals + (SINK,))
            else:
                carried = tuple([full[s] for s in plan.carried_slots])
                for nodes in itertools.product(*choices):
                    if not any(all(nodes[c] == SINK for c in sel)
                               for sel in ended):
                        yield (AGState(initials, self.start_pos, nodes, env),
                               carried)

    def is_target(self, st: AGState) -> bool:
        return st.pos == OMEGA and st.nodes == self.plan._sinks and all(
            st.nfa_states[j] in nfa.final
            for j, (nfa, _) in enumerate(self.plan.nfas))

    # -- transitions --------------------------------------------------------

    def successors(self, st: AGState) -> List[AGState]:
        plan = self.plan
        cur_nodes, nfa_states = st.nodes, st.nfa_states
        # per NFA: its state alone once its paths have ended, else None;
        # the component it reads alone, selector, ended selection, the
        # current node of its first component and its current selection,
        # its state's live and closing rows, and its destinations per next
        # selection, memoised for this call where one can repeat, else None
        nfa_steps = []
        for (final, one, sel, end, memoise, table), state in zip(
                plan._steps, nfa_states):
            u = cur_nodes[sel[0]]
            cur = (u,) if one is not None \
                else tuple([cur_nodes[c] for c in sel])
            if (u if one is not None else cur) == end:
                # its paths have all ended and stay on the sink: it keeps
                # a final state, and from any other, which only a state
                # handed in from outside can hold, there is no successor
                if state not in final:
                    return []
                nfa_steps.append(((state,),) + (None,) * 8)
                continue
            live, closing, _ = table[state]
            nfa_steps.append((None, one, sel, end, u, cur, live, closing,
                              {} if memoise else None))

        nxt_pos = st.pos + 1 if st.pos != OMEGA and st.pos < self.N \
            else OMEGA
        choices: List[Sequence[NodeId]] = []
        for i in range(plan.k):
            p, u = self.bound[i], cur_nodes[i]
            if p is not None:
                choices.append(
                    (SINK,) if nxt_pos == OMEGA else (path_index(p, nxt_pos),)
                )
            elif u == SINK:
                choices.append((SINK,))
            else:
                # real next nodes that can pass a letter into a live state
                # of each single-component NFA on i (candidate narrowing),
                # in increasing order: one lookup's are read as they are
                narrowed = None
                for j in plan._narrowers[i]:
                    lookups = plan.tables[j][nfa_states[j]][2]
                    if lookups is None:
                        continue  # some letter admits every real node
                    if len(lookups) == 1:
                        cands, order = lookups[0].get(u, NO_TARGETS)
                    else:
                        cands = set().union(*[t.get(u, NO_TARGETS)[0]
                                              for t in lookups])
                        order = tuple(sorted(cands))
                    narrowed = order if narrowed is None \
                        else tuple([v for v in narrowed if v in cands])
                reals = plan._reals if narrowed is None else narrowed
                choices.append((SINK,) + reals if plan._can_end(i, u, st.env)
                               else reals)

        # the states come in (nodes, nfa_states) order, none repeated, by
        # construction (module docstring); pos is the same for all, and
        # env follows from nodes
        out: List[AGState] = []
        source, binds, new = plan.source, plan._binds, tuple.__new__
        env0 = st.env
        for nodes in itertools.product(*choices):
            env = plan._bind(cur_nodes, nodes, env0) if binds else env0
            if env is None:
                continue
            per_nfa = []
            for kept, one, sel, end, u, cur, live, closing, memo in \
                    nfa_steps:
                if kept is not None:
                    per_nfa.append(kept)
                    continue
                nxt = nodes[one] if one is not None \
                    else tuple([nodes[c] for c in sel])
                dsts = None if memo is None else memo.get(nxt)
                if dsts is None:
                    # the move that ends the NFA's paths enters only a
                    # final state, any other only a live one; a stored
                    # step letter holds where its index says
                    v = nxt if one is not None else nxt[0]
                    dsts = []
                    for letter, dst, exact in closing if nxt == end \
                            else live:
                        if v in exact.get(u, NO_TARGETS)[0] \
                                if exact is not None \
                                else eval_node_constraint(
                                    source, letter, cur,
                                    nxt if one is None else (nxt,)):
                            dsts.append(dst)
                    if memo is not None:
                        memo[nxt] = dsts
                if not dsts:
                    break
                per_nfa.append(dsts)
            else:
                if len(per_nfa) == 1:
                    # no product over one NFA's destinations: about 3 %
                    # of route_fixed's ops/s
                    for s in per_nfa[0]:
                        out.append(new(AGState, ((s,), nxt_pos, nodes, env)))
                else:
                    for combo in itertools.product(*per_nfa):
                        out.append(new(AGState, (combo, nxt_pos, nodes, env)))
        return out

    # -- weights --------------------------------------------------------------

    def weight(self, st: AGState, sign: int = 0) -> Tuple[ExtInt, ...]:
        """Per-constraint contribution of this state's node tuple, then,
        for a sign of 1 or -1, the target's value times the sign.  For
        MIN (sign 1) with a HAVING row that is the target alone, that row
        is the target's column and none is added (`Plan.layout`).

        Plain ints add and multiply as ints; any other value takes the
        extended-integer rules, so opposite infinities raise and a huge
        int next to an infinity never meets float arithmetic.  Each term
        is read once: a MAX target equal to a one-term row negates its
        value.
        """
        plan, nodes = self.plan, st.nodes
        out = []
        for terms in plan._arith:
            if len(terms) == 1:
                coeff, _, read = terms[0]
                v = read(nodes)
                out.append(coeff * v if type(v) is int else ext_mul(coeff, v))
                continue
            total: ExtInt = 0
            for coeff, _, read in terms:
                v = read(nodes)
                if type(v) is int and type(total) is int:
                    total += coeff * v
                else:
                    total = ext_add(total, ext_mul(coeff, v))
            out.append(total)
        if len(out) < plan.layout(sign)[0]:
            row = plan._target_row
            t = plan.target[1](nodes) if row is None else out[row]
            out.append(t if sign == 1 else ext_mul(-1, t))
        return tuple(out)

    def extremum_weight(self, st: AGState) -> ExtInt:
        return self.plan.target[1](st.nodes)

    # -- decoding ----------------------------------------------------------------

    def decode(self, states: Sequence[AGState], carried: Tuple[NodeId, ...]):
        """Truncate each component at its first sink; report the env of
        the last state under the carried values the chain started with,
        where every lazy target of a complete path has been bound."""
        paths: Dict[str, Tuple[NodeId, ...]] = {}
        for i, var in enumerate(self.plan.path_vars):
            nodes: List[NodeId] = []
            for st in states:
                if st.nodes[i] == SINK:
                    break
                nodes.append(st.nodes[i])
            paths[var] = tuple(nodes)
        env = dict(zip(self.plan.env_vars, self.plan.full_env(
            carried, states[-1].env))) if states else {}
        return env, paths

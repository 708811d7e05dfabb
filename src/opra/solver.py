"""Bounded search over answer graphs.

Emptiness, extremum and answer-set queries all reduce to reachability
over configurations (product state, context, accumulated weight
vector), explored by one breadth-first search.  The context is the
carried values of the start (`Plan.carried_slots`), which no step reads
and so stay as they started, and the tracked path prefixes.  The search
yields only its answers: each admitted configuration that is a target
within every bound, with its depth, in generation order.  It expands a
level only once the previous one has been consumed, so a caller stops
it at any answer.  The prefixes are only tracked when enumerating
answers; otherwise they stay empty.  The search applies two sound
prunings:

  * dominance: a configuration is dropped when an already-seen
    configuration with the same product state has componentwise smaller
    or equal accumulated weights (after sign normalization everything is
    minimized).  No step, target test or weight reads the context, so
    both configurations have the same completions; the kept one reaches
    each of them at no greater depth, with no greater weights and
    earlier in generation order, so reachability of satisfying
    completions, the first target, minimal values and the lazy values
    of an answer table are all preserved.  Enumeration reports each
    answer's context, so its per-context search keys on (state,
    context): equal contexts decode the same completions to the same
    answers, and the set of answers within a length bound is preserved;
  * monotonicity: when every possible per-state contribution to a
    constraint component is nonnegative, configurations already above
    that component's bound can never come back and are dropped.

One rule reads every answer off the search (`_fold`).  Over the
answers the search yields within depth b2, the answer is the first one,
replaced by each strictly better one within b1; a better one beyond b1
makes it unbounded, reported as the matching infinity with no witness;
no target at all gives the empty-set convention (+inf for MIN, -inf
for MAX).  Emptiness is the rule with b1 = b2 and no target value, so it
stops at its first target; an extremum stops once it is unbounded.  The
default bounds grow with a capped product-size estimate and with the
magnitude the plan states (`Plan.magnitude`; the plan paragraph of the
`answer_graph` module docstring lists what a plan states), and are
overridable.

Emptiness is complete for instances whose witnesses fit under b2;
extrema are not, since a better path beyond b1 is read as unbounded
even where no cycle can lower the target.  On a 6-node path
a -> ... -> f with `E` on each edge and `time` 1 on each node, MIN
`time` from "a" to "f" reads -inf at bounds (2, 10) and (3, 10), and 6
at (6, 12) or with derived bounds (ROADMAP items 14 and 16).

Derived bounds run into the thousands or to their cap, too far to walk
an improving cycle up to them, so when neither bound is pinned the
extremum search also recognises the cycle itself (Karp-Miller
acceleration in the direction where satisfaction is monotone).  With
accumulated vectors sign-normalised so the target is minimised:

  * pump: a newly admitted c2 at state st with vector a' and an
    ancestor c1 at st with vector a, both finite, a' <= a componentwise
    and a' < a on the target, closes a cycle that keeps every constraint
    component no larger and lowers the target.  If a search from c1 over
    the constraint components finds a completion d within b2 - depth(c1)
    whose target is not +inf, the extremum is unbounded: a + k(a' - a) + d
    <= a + d meets every bound for every k, and the search ends there by
    raising `_Unbounded`, which `_fold` reads as the matching infinity.
    The ancestor chain is only walked when a' replaces a stored vector
    of st with a higher target, so searches that do not pump pay nothing
    for it;
  * dead key: when that search finds nothing, a's constraint part
    is recorded for st, and a later configuration there whose
    constraint part is >= it is not admitted: breadth-first order puts
    it at depth >= depth(c1), so it has no completion within b2 either.

Pinned bounds keep the answer rule alone.

`answer_table` answers emptiness or an extremum for every value tuple
of a query's free lazy targets (`Plan.free_lazy`) with one search, as
an ontology view asks for a nested term at many tuples.  It runs the
search to its end and applies the answer rule per tuple of the lazy
values a target configuration was bound with; a query without a free
lazy target has one tuple, (), whose search stops at its one answer.
Lazy targets are read by nothing but the step that binds them, so each
tuple's configurations are admitted as in its own search.  Where the
stopping rule is a property of the whole search it gives no table: an
extremum under derived bounds (pumping), and emptiness under derived
bounds with a non-monotone HAVING row, whose frontier need not die out.

`enumerate_answers` reports every answer's context.  Where it tracks
no free path and no HAVING row weighs a state (`Plan.free_paths` is
empty and `Plan.layout(0)[0]` is 0), an answer depends only on a
target state and the carried values of a start that reaches it.  Then
one multi-source search (`_Search.reach`; Then et al., *The more the
merrier*, VLDB 2014) numbers the starts' distinct carried tuples and
carries, per state, an int whose set bits are the contexts that have
reached it.  A step gives each successor the bits it has not seen, and
a level maps each state to the bits that first reach it there, so a
state is expanded once per level however many free sources reach it.
The answers are decoded at the end from the target states' bits, one
`Plan.free_nodes` per bit.  Any other enumeration runs the per-context
search, one configuration per (state, context), with tracked prefixes
and rows as above.  Both count one enqueued configuration per new
(state, context) pair, the new bits' popcount in the multi-source
search, and check the visited budget against that count before each
expansion, so the budget bounds the same pairs either way.

A search memoises successors with their weight vectors and target
flags on the state, which holds all that `successors` reads, so a state
met at another weight, at another depth, or under other carried values
such as another free source, reuses them as they are, and each state
is tested as a target once.  The memo belongs to the search object and
dies with it; the multi-source search reads the same memo.

A candidate is a successor with its context and summed vector.  It is
tested against the monotone rows and the dominance store, keyed by the
product state alone outside enumeration, before it becomes a
configuration, as resource-constrained shortest-path codes test a label
before they make it (Irnich & Desaulniers, *Shortest path problems with
resource constraints*, 2005).  For a one-component vector the sum, the
row and the probe are inline, one lookup and one compare, so a dropped
candidate builds no tuple and makes no call.  A longer vector is built
and tested as a configuration.  `_admit` applies the rules again and
stores what it admits, so an admitted one-component candidate costs two
probes.  An override of `_admit` (pump, dead key, +inf target) calls the
base one and adds only rejections with no side effect, so a candidate
dropped early is one it would reject, and the drop changes nothing it
does.  The store is shaped by the length of the search's weight vectors
(`_Dominance`): one minimum per key for one, a staircase decided by one
bisect for two, and a list otherwise.  A MIN target that is a HAVING row
alone is read from that row, with no column of its own (`Plan.layout`):
the vectors (t, t) and (t', t') it would give compare as t and t' do, so
dominance outcomes are the same with one component fewer.  Weights read
nodes only, so a search weighs each node tuple once.  A configuration
carries the one it was generated from, so a witness and a pump's
ancestors are read back along that chain, and no map from configurations
is kept.
"""

from __future__ import annotations

import logging
from bisect import bisect_right
from dataclasses import dataclass, field
from operator import itemgetter, le
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .answer_graph import AGState, AnswerGraph, monotone_rows
from .errors import ResourceExceededError, ValidationError, check_int
from .extint import NEG_INF, POS_INF, ExtInt, ext_add, ext_mul, is_finite
from .graph import SINK, NodeId
from .query import PraQuery
from .validate import check_extremum_mode

logger = logging.getLogger(__name__)

DEFAULT_BUDGET = 1_000_000
_BOUND_CAP = 10 ** 7
_STATE_CAP = 10_000  # cap on the product-size estimate in derived bounds

_Prefixes = Tuple[Tuple[NodeId, ...], ...]
_Vec = Tuple[ExtInt, ...]
# a start's carried values (`Plan.carried_slots`) and the tracked prefixes
_Context = Tuple[Tuple[NodeId, ...], _Prefixes]
# (state, context, acc, parent): the configuration it was generated
# from, None for a start configuration
_Config = Tuple[AGState, _Context, _Vec, Optional[tuple]]
# the stored vectors an admitted configuration replaced, None if refused
_Admitted = Optional[Sequence[_Vec]]


@dataclass
class SolveConfig:
    """Search limits.  A pinned bound is an int (`derive_bounds` checks
    0 < b1 < b2), and the budget an int >= 1; anything else raises
    `ValidationError` here."""
    b1: Optional[int] = None          # short-path bound (phase 1)
    b2: Optional[int] = None          # witness bound (phase 2), b1 < b2
    visited_budget: int = DEFAULT_BUDGET

    def __post_init__(self):
        for name, v in (("b1", self.b1), ("b2", self.b2)):
            if v is not None:
                check_int(f"bound {name}", v)
        check_int("visited budget", self.visited_budget, 1)


@dataclass
class SolveStats:
    """What a search did.  `enqueued` counts the admitted (state,
    context) pairs, start configurations included; the multi-source
    search (`_Search.reach`) adds the popcount of each state's new
    context bits.  `expanded` counts expansions: one per configuration
    of an expanded level in `levels`, one per state and level in
    `reach`."""
    expanded: int = 0
    enqueued: int = 0


@dataclass
class EmptinessResult:
    empty: bool
    env: Optional[Dict[str, NodeId]] = None
    paths: Optional[Dict[str, Tuple[NodeId, ...]]] = None
    stats: SolveStats = field(default_factory=SolveStats)


@dataclass
class ExtremumResult:
    value: ExtInt
    env: Optional[Dict[str, NodeId]] = None
    witness: Optional[Dict[str, Tuple[NodeId, ...]]] = None
    stats: SolveStats = field(default_factory=SolveStats)


def derive_bounds(ag: AnswerGraph, cfg: SolveConfig) -> Tuple[int, int]:
    """Default search bounds, shaped like the short-witness bounds for
    fixed-dimension integer-weighted reachability: polynomial in a capped
    product-size estimate, exponential in the constraint dimension.  A
    pinned b2 alone caps the derived b1 at b2 // 2."""
    b1 = cfg.b1
    if b1 is None:
        plan = ag.plan
        size = (len(plan.source.real_nodes) + 1) ** plan.k * (ag.N + 2)
        for nfa, _ in plan.nfas:
            size *= len(nfa.moves)
        size = min(size, _STATE_CAP)
        d = len(plan.bounds) + 1
        b1 = min(size * (2 * d * plan.magnitude * size + 1) ** d, _BOUND_CAP)
        if cfg.b2 is not None:
            b1 = min(b1, cfg.b2 // 2)  # as b2 = 2 * b1 when b2 is derived
    b2 = cfg.b2 if cfg.b2 is not None else 2 * b1
    if not 0 < b1 < b2:
        raise ValidationError("bounds must satisfy 0 < b1 < b2")
    return b1, b2


class _Dominance:
    """Antichains of componentwise-minimal weight vectors, one per key:
    the product state, or (state, context) when enumerating answers.
    A search's vectors all have one length, `Plan.layout`'s: its HAVING
    rows, then the sign-normalised target, which has no column of its own
    where it is a MIN target read from a row.  The store is shaped by
    that length, chosen once per search, so an admit compares few
    vectors:

      * 1: one minimum per key, one lookup and one compare (every admit
        of the route workloads and `automaton_extrema`, half of
        `route_fixed`'s only once its MIN target is read from its row).
        `_Search.levels` makes the same lookup and compare inline to
        drop a candidate before it is built;
      * 2: a staircase, sorted on the first component with the second
        strictly descending (Kung, Luccio & Preparata, JACM 1975).  The
        stored vector with the largest first component <= acc's has the
        least second among them, so one bisect decides dominance, and
        those acc replaces are one run from the same index on;
      * 0, 3 and more: a list, scanned whole.  With no component a key
        holds one (), which dominates every later ().
    """

    def __init__(self, dim: int):
        self.store: Dict[object, object] = {}
        self.admit = {1: self._admit_min, 2: self._admit_stair}.get(
            dim, self._admit_list)

    def vectors(self, key) -> List[_Vec]:
        """The vectors stored for key."""
        got = self.store.get(key)
        if got is None:
            return []
        return [got] if type(got) is tuple else list(got)

    # each admit: None when a stored vector of key is <= acc; otherwise
    # store acc and return the stored vectors it replaced, those >= acc

    def _admit_min(self, key, acc: _Vec) -> _Admitted:
        store = self.store
        old = store.get(key)
        if old is None:
            store[key] = acc
            return ()
        if old[0] <= acc[0]:
            return None
        store[key] = acc
        return (old,)

    def _admit_stair(self, key, acc: _Vec) -> _Admitted:
        new = [acc]
        stair = self.store.setdefault(key, new)
        if stair is new:
            return ()
        # lexicographic order is the order on the first component, as no
        # two stored vectors share it: past i the first component is
        # >= acc's, and before it < acc's, or equal with a second <= acc's
        i = bisect_right(stair, acc)
        y = acc[1]
        if i and stair[i - 1][1] <= y:
            return None
        j, n = i, len(stair)
        while j < n and stair[j][1] >= y:
            j += 1
        replaced = stair[i:j]
        stair[i:j] = new
        return replaced

    def _admit_list(self, key, acc: _Vec) -> _Admitted:
        new = [acc]
        vecs = self.store.setdefault(key, new)
        if vecs is new:
            return ()
        kept, replaced = [], []
        for v in vecs:
            if _le(v, acc):
                return None
            (replaced if _le(acc, v) else kept).append(v)
        kept.append(acc)
        vecs[:] = kept
        return replaced


def _le(u: Sequence[ExtInt], v: Sequence[ExtInt]) -> bool:
    """u <= v componentwise over the shorter of the two: compared with
    the bounds or with a vector of constraint components, a target column
    after the constraint components is left out."""
    return all(map(le, u, v))


class _Search:
    """Breadth-first search over configurations (state, context, acc,
    parent).

    The context is (carried, prefixes): the carried values its start
    came with, and per tracked path component the nodes it has walked so
    far (bound components report their whole input path), () when
    nothing is tracked.  `tracked` is None for a search that reports no
    context, whose dominance key (`dom_key`) is the state alone; one
    that tracks components, even none, reports contexts and keys on
    (state, context).  `parent` is the configuration it was generated
    from, None at a start.  `weight_vec` keeps each node tuple's vector
    for the search's lifetime; a read that raises keeps nothing, and
    raises again when repeated.
    """

    def __init__(self, ag: AnswerGraph, cfg: SolveConfig, sign: int = 0,
                 tracked: Optional[Sequence[int]] = None,
                 stats: Optional[SolveStats] = None):
        self.ag = ag
        self.bounds = ag.plan.bounds
        self.cfg = cfg
        # 1 minimises the target, -1 maximises it, 0: no target column
        self.sign = sign
        self.tracked = tuple(tracked or ())
        self.by_state = tracked is None
        self.dom_key = itemgetter(0 if self.by_state else slice(2))
        self.stats = SolveStats() if stats is None else stats
        self.dim, self.target_col = ag.plan.layout(sign)
        self.dom = _Dominance(self.dim)
        self.monotone = ag.plan.monotone
        self.weights: Dict[Tuple[NodeId, ...], _Vec] = {}
        # per state, its successors with their weight vectors and target flags
        self.memo: Dict[AGState, List[Tuple[AGState, _Vec, bool]]] = {}

    def weight_vec(self, st: AGState) -> _Vec:
        w = self.weights.get(st.nodes)
        if w is None:
            w = self.weights[st.nodes] = self.ag.weight(st, self.sign)
        return w

    def _expand(self, st: AGState):
        """st's successors with their weight vectors and target flags,
        each read when the search reaches it; memoised once all are,
        never partial."""
        out, is_target = [], self.ag.is_target
        for succ in self.ag.successors(st):
            out.append((succ, self.weight_vec(succ), is_target(succ)))
            yield out[-1]
        self.memo[st] = out

    def prefixes(self, st: AGState, prev: _Prefixes) -> _Prefixes:
        out = []
        for slot, i in enumerate(self.tracked):
            if self.ag.bound[i] is not None:
                out.append(self.ag.bound[i])
            elif st.nodes[i] != SINK:
                out.append(prev[slot] + (st.nodes[i],))
            else:
                out.append(prev[slot])
        return tuple(out)

    def _admit(self, key: _Config) -> _Admitted:
        """The vectors key replaced in the dominance store, or None when
        it is not admitted: it is above the bound of a monotone row, or
        dominated.  `levels` drops a one-component candidate that these
        rules reject before it calls this; an override must call it and
        add only rejections that have no side effect."""
        acc, bounds = key[2], self.bounds
        for i in self.monotone:
            if acc[i] > bounds[i]:
                return None
        replaced = self.dom.admit(self.dom_key(key), acc)
        if replaced is not None:
            self.stats.enqueued += 1
        return replaced

    def levels(self, max_depth: int,
               _starts: Optional[Iterable[_Config]] = None):
        """Yield (depth, config) for each admitted configuration that is a
        target within every bound, as it is admitted, in generation
        order, up to depth max_depth.  A level is expanded only once the
        previous one has been consumed, so a caller that stops at an
        answer builds nothing after it.  `_starts` replaces the answer
        graph's start configurations, which are tested as targets here;
        a successor's flag comes from the memo.  Each expanded state is
        logged at DEBUG on `opra.solver`.
        """
        tracked, stats, memo = self.tracked, self.stats, self.memo
        admit, budget = self._admit, self.cfg.visited_budget
        bounds, is_target = self.bounds, self.ag.is_target
        by_state = self.by_state
        # a one-component candidate is tested against its monotone row,
        # if any, and the stored minimum of its key before it is built
        store = self.dom.store if self.dim == 1 else None
        cap = bounds[0] if self.monotone else POS_INF
        trace = logger.isEnabledFor(logging.DEBUG)
        if _starts is None:
            empty = tuple(() for _ in tracked)
            _starts = ((st, (carried, self.prefixes(st, empty)),
                        self.weight_vec(st), None)
                       for st, carried in self.ag.start_states())
        level = []
        for key in _starts:
            if admit(key) is not None:
                level.append(key)
                if is_target(key[0]) and _le(key[2], bounds):
                    yield 0, key
        depth = 0
        while level and depth < max_depth:
            nxt = []
            for conf in level:
                st, ctx, acc, _ = conf
                stats.expanded += 1
                if stats.enqueued > budget:
                    raise ResourceExceededError(
                        f"visited budget {budget} exceeded",
                        expanded=stats.expanded,
                    )
                if trace:
                    logger.debug("expand depth=%d pos=%d nodes=%s nfa=%s",
                                 depth, st.pos, st.nodes, st.nfa_states)
                if store is not None:
                    x = acc[0]
                moves = memo.get(st)
                for succ, w, target in \
                        self._expand(st) if moves is None else moves:
                    ctx2 = (ctx[0], self.prefixes(succ, ctx[1])) \
                        if tracked else ctx
                    if store is None:
                        acc2 = tuple([
                            a + b if type(a) is int and type(b) is int
                            else ext_add(a, b)
                            for a, b in zip(acc, w)
                        ])
                    else:
                        y = w[0]
                        s = x + y if type(x) is int and type(y) is int \
                            else ext_add(x, y)
                        if s > cap:
                            continue
                        old = store.get(succ if by_state else (succ, ctx2))
                        if old is not None and old[0] <= s:
                            continue
                        acc2 = (s,)
                    key = (succ, ctx2, acc2, conf)
                    if admit(key) is not None:
                        nxt.append(key)
                        if target and _le(acc2, bounds):
                            yield depth + 1, key
            depth += 1
            level = nxt

    def reach(self, starts: Dict[AGState, int],
              max_depth: int) -> Dict[AGState, int]:
        """The multi-source search of the module docstring, for a search
        that tracks no prefix and has no weight column.  `starts` maps
        each start state to the bits of its contexts; the result maps
        each state reached within max_depth steps to the bits of the
        contexts that reach it.  It admits the (state, context) pairs
        `levels` would admit, at the same depths, and counts them and
        checks the budget as `levels` does.  Successors come from the
        memo, and each expanded state is logged as there.
        """
        stats, memo = self.stats, self.memo
        budget = self.cfg.visited_budget
        trace = logger.isEnabledFor(logging.DEBUG)
        seen, level, depth = dict(starts), starts, 0
        stats.enqueued += sum([bits.bit_count() for bits in seen.values()])
        while level and depth < max_depth:
            nxt: Dict[AGState, int] = {}
            for st, bits in level.items():
                stats.expanded += 1
                if stats.enqueued > budget:
                    raise ResourceExceededError(
                        f"visited budget {budget} exceeded",
                        expanded=stats.expanded,
                    )
                if trace:
                    logger.debug("expand depth=%d pos=%d nodes=%s nfa=%s",
                                 depth, st.pos, st.nodes, st.nfa_states)
                moves = memo.get(st)
                for succ, _, _ in self._expand(st) if moves is None \
                        else moves:
                    old = seen.get(succ, 0)
                    new = bits & ~old
                    if new:
                        seen[succ] = old | new
                        nxt[succ] = nxt.get(succ, 0) | new
                        stats.enqueued += new.bit_count()
            depth += 1
            level = nxt
        return seen

    def reconstruct(self, key: _Config):
        carried, chain = key[1][0], []
        while key is not None:
            chain.append(key[0])
            key = key[3]
        chain.reverse()
        return self.ag.decode(chain, carried)


class _Unbounded(Exception):
    """A pump search has proved its extremum unbounded."""


def _fold(search: _Search, b1: int, b2: int, slots: Sequence[int] = (),
          starts: Optional[Iterable[_Config]] = None
          ) -> Dict[Tuple[NodeId, ...], Tuple[ExtInt, Optional[_Config]]]:
    """The answer rule of the module docstring.  Per tuple of the env at
    `slots` (the key () without slots), over the answers the search
    yields within depth b2: (value, configuration) of the first one, then
    of each strictly better one within b1, or (-inf, None) for a better
    one beyond b1.  A value is the sign-normalised target, or 0 without a
    target column.  {(): (-inf, None)} when the search raises
    `_Unbounded` (a pump).  `starts` replaces the answer graph's start
    configurations.  Without slots the search stops once its one answer
    is decided: at the first target without a target column, at -inf
    otherwise."""
    col = search.target_col
    out: Dict[Tuple[NodeId, ...], Tuple[ExtInt, Optional[_Config]]] = {}
    try:
        for depth, key in search.levels(b2, starts):
            at = tuple([key[0].env[s] for s in slots]) if slots else ()
            value = 0 if col is None else key[2][col]
            old = out.get(at)
            if old is None or value < old[0]:
                out[at] = (NEG_INF, None) if depth > b1 else (value, key)
                if not slots and (col is None or depth > b1):
                    break
    except _Unbounded:
        return {(): (NEG_INF, None)}
    return out


class _Completion(_Search):
    """Search from a pumped prefix, started on its constraint components,
    for a completion that meets them.  A state whose target term is +inf
    after sign normalisation is not entered: a path through it has value
    +inf however often the cycle is pumped.  It has no target column."""

    def __init__(self, ag: AnswerGraph, cfg: SolveConfig, pump_sign: int,
                 stats: SolveStats):
        super().__init__(ag, cfg, stats=stats)
        self.pump_sign = pump_sign

    def _admit(self, key: _Config) -> _Admitted:
        target = self.ag.extremum_weight(key[0])
        if ext_mul(self.pump_sign, target) == POS_INF:
            return None
        return super()._admit(key)


class _PumpSearch(_Search):
    """The extremum search under derived bounds: the pump and dead-key
    rules of the module docstring on top of dominance.  It ends itself
    once `_pumps` proves a pump, raising `_Unbounded` out of `levels`.
    A dead key is a dominance key (`dom_key`), the state alone."""

    def __init__(self, ag: AnswerGraph, cfg: SolveConfig, sign: int,
                 b2: int):
        super().__init__(ag, cfg, sign)
        self.b2 = b2
        self.dead: Dict[object, List[_Vec]] = {}

    def _dead(self, key: _Config) -> bool:
        return any(_le(d, key[2])
                   for d in self.dead.get(self.dom_key(key), ()))

    def _admit(self, key: _Config) -> _Admitted:
        if self._dead(key):
            return None
        replaced = super()._admit(key)
        # acc replaced a stored vector with a higher target
        col = self.target_col
        if replaced and any(key[2][col] < v[col] for v in replaced) \
                and self._pumps(key):
            raise _Unbounded
        return replaced

    def _pumps(self, c2: _Config) -> bool:
        """Does an ancestor c1 of c2 close a pumpable cycle with a
        completion?  Each c1 searched from without one becomes a dead
        key."""
        st, _, a2, key = c2
        col, n = self.target_col, len(self.bounds)
        # an infinite component stays infinite along a path, so a finite
        # a2 has finite ancestors
        if not all(is_finite(x) for x in a2):
            return False
        chain = []
        while key is not None:
            chain.append(key)
            key = key[3]
        for i, c1 in enumerate(chain):
            st1, ctx, a1, _ = c1
            # an ancestor a dead key covers is not searched from again
            if st1 != st or not a2[col] < a1[col] \
                    or not _le(a2, a1) or self._dead(c1):
                continue
            start = (st, ctx, a1[:n], None)
            left = self.b2 - (len(chain) - 1 - i)
            comp = _Completion(self.ag, self.cfg, self.sign, self.stats)
            if _fold(comp, left, left, starts=[start]):
                return True
            self.dead.setdefault(self.dom_key(start), []).append(start[2])
        return False


def check_empty(ag: AnswerGraph,
                cfg: Optional[SolveConfig] = None) -> EmptinessResult:
    """Is there a start-to-target product path meeting every arithmetical
    bound?  Complete for instances whose minimal witness fits under b2.

    The search stops at the first admitted target that meets the bounds,
    as it is generated: the same witness a scan of its whole level would
    find first, without building the rest of that level."""
    cfg = cfg or SolveConfig()
    _, b2 = derive_bounds(ag, cfg)
    search = _Search(ag, cfg)
    _, key = _fold(search, b2, b2).get((), (0, None))
    env, paths = (None, None) if key is None else search.reconstruct(key)
    return EmptinessResult(key is None, env, paths, search.stats)


MIN = "min"
MAX = "max"


def _sign(ag: AnswerGraph, mode: str) -> int:
    """1 for MIN, -1 for MAX; `ValidationError` for another mode or an
    answer graph without a target."""
    if ag.plan.target is None:
        raise ValidationError(
            "answer graph was built without a target labelling")
    check_extremum_mode(mode)
    return 1 if mode == MIN else -1


def extremum(ag: AnswerGraph, mode: str,
             cfg: Optional[SolveConfig] = None) -> ExtremumResult:
    """Minimum (or maximum) of the target aggregate over satisfying paths,
    by the answer rule of the module docstring (`_fold`): -inf (MIN)
    or +inf (MAX) for an unbounded one, with no witness, and the
    empty-set convention where no path satisfies the query.

    When neither bound is pinned, a cycle that lowers the sign-normalised
    target and raises no constraint component, followed by a completion
    that meets the bounds within b2, gives -inf (MIN) or +inf (MAX) at
    once, with no witness: pumping the cycle k times keeps every bound
    and lowers the target by k times the cycle's gain.  A prefix whose
    cycle has no completion is a dead key: no later configuration with
    its state and at least its constraint components is explored.
    """
    sign = _sign(ag, mode)
    cfg = cfg or SolveConfig()
    b1, b2 = derive_bounds(ag, cfg)
    if cfg.b1 is None and cfg.b2 is None:
        search = _PumpSearch(ag, cfg, sign, b2)
    else:
        search = _Search(ag, cfg, sign)
    value, key = _fold(search, b1, b2).get((), (POS_INF, None))
    env, paths = (None, None) if key is None else search.reconstruct(key)
    return ExtremumResult(ext_mul(sign, value), env, paths, search.stats)


@dataclass
class AnswerTable:
    """Answers per value tuple of the variables `key_vars`, a query's free
    lazy targets in MATCH order (`Plan.free_lazy`, `answer_graph` module
    docstring); a tuple with no satisfying path is not in `values` and
    reads `default`."""
    key_vars: Tuple[str, ...]
    values: Dict[Tuple[NodeId, ...], ExtInt]
    default: ExtInt
    stats: SolveStats


def table_applies(source, pra: PraQuery, mode: Optional[str],
                  cfg: SolveConfig) -> bool:
    """Does `answer_table` give a table for pra on source?  Not under
    derived bounds for an extremum, whose pump rule is per search, nor
    for emptiness with a non-monotone HAVING row, whose frontier need
    not die out.  Decided from the query, so no plan is built for it."""
    return cfg.b1 is not None or cfg.b2 is not None or mode is None and \
        len(monotone_rows(source, pra)) == len(pra.arith_constraints)


def answer_table(ag: AnswerGraph, mode: Optional[str] = None,
                 cfg: Optional[SolveConfig] = None) -> Optional[AnswerTable]:
    """Emptiness as 1 or 0 (mode None), or the `mode` extremum, for every
    value tuple of the query's free lazy targets at once: one search,
    run to its end, with those targets bound where their paths end.  A
    query without one has the one tuple (), and its search stops where
    `check_empty`'s or `extremum`'s does.

    Each tuple's answer is the one `check_empty` or `extremum` gives with
    the tuple bound, by the rule of `_fold`; a tuple with no satisfying
    path reads 0 or the empty-set value.  The plan states the tuples'
    variables and their env positions (`Plan.free_lazy` and
    `Plan.free_lazy_at`, in the plan paragraph of the `answer_graph`
    module docstring).  None where one search cannot stand for the
    per-tuple ones (`table_applies`).  Arguments are checked as
    `extremum` checks them.
    """
    sign = 0 if mode is None else _sign(ag, mode)
    cfg = cfg or SolveConfig()
    plan = ag.plan
    # `table_applies`, with the monotone rows the plan states
    if not (cfg.b1 is not None or cfg.b2 is not None or mode is None
            and len(plan.monotone) == len(plan.bounds)):
        return None
    b1, b2 = derive_bounds(ag, cfg)
    search = _Search(ag, cfg, sign)
    found = _fold(search, b1 if mode else b2, b2, plan.free_lazy_at)
    values = {k: 1 if mode is None else ext_mul(sign, v)
              for k, (v, _) in found.items()}
    default = 0 if mode is None else ext_mul(sign, POS_INF)
    return AnswerTable(plan.free_lazy, values, default, search.stats)


def enumerate_answers(ag: AnswerGraph, max_len: int,
                      cfg: Optional[SolveConfig] = None):
    """All decoded answers whose product paths have at most max_len steps.

    An answer is (free-node assignment, free-path tuple), both in MATCH
    order, as the plan lays them out (`Plan.free_nodes`,
    `Plan.free_paths`).  Where no free path is tracked and no HAVING row
    weighs a state, one multi-source search (`_Search.reach`) carries
    the set of contexts that reaches each state as the bits of an int,
    so a state is expanded once per level however many free sources
    reach it, and the answers are decoded from the target states' bits.
    Otherwise the search carries each free path's prefix in its
    configurations and keys dominance on (state, context), so dominance
    and monotone pruning apply as for emptiness without losing an
    answer: configurations with the same state and context have the
    same completions and decode to the same answers.  Either way the
    stats count one enqueued configuration per (state, context) pair
    admitted, and the visited budget bounds that count.  A max_len that
    is not an int >= 0 raises `ValidationError`.
    """
    check_int("max_len", max_len, 0)
    cfg = cfg or SolveConfig()
    plan = ag.plan
    search = _Search(ag, cfg, tracked=plan.free_paths)
    if plan.free_paths or plan.layout(0)[0]:
        answers = {(plan.free_nodes(carried, st.env), pre)
                   for _, (st, (carried, pre), _, _)
                   in search.levels(max_len)}
        return answers, search.stats
    contexts: Dict[Tuple[NodeId, ...], int] = {}
    starts: Dict[AGState, int] = {}
    for st, carried in ag.start_states():
        bit = 1 << contexts.setdefault(carried, len(contexts))
        starts[st] = starts.get(st, 0) | bit
    carried_at = list(contexts)
    answers = set()
    for st, bits in search.reach(starts, max_len).items():
        if ag.is_target(st):
            while bits:
                low = bits & -bits
                bits ^= low
                answers.add((plan.free_nodes(
                    carried_at[low.bit_length() - 1], st.env), ()))
    return answers, search.stats

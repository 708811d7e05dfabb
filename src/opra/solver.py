"""Bounded search over answer graphs.

Emptiness, extremum and answer-set queries all reduce to reachability
over configurations (product state, tracked path prefixes, accumulated
weight vector), explored by one breadth-first search.  The search
yields each configuration with its depth as it is admitted, in
generation order, and expands a level only once the previous one has
been consumed, so a caller stops it at any configuration: emptiness at
the first admitted target that meets every bound, an extremum at the
first configuration beyond b1 that beats the best short one.  The
prefixes are only tracked when enumerating answers; otherwise they stay
empty.  The search applies two sound prunings:

  * dominance: a configuration is dropped when an already-seen
    configuration with the same product state and the same prefixes has
    componentwise smaller or equal accumulated weights (after sign
    normalization everything is minimized).  Both configurations have the
    same completions, which decode to the same answers; the kept one
    reaches each of them at no greater depth and with no greater
    weights, so reachability of satisfying completions, minimal values
    and the set of answers within a length bound are all preserved;
  * monotonicity: when every possible per-state contribution to a
    constraint component is nonnegative, configurations already above
    that component's bound can never come back and are dropped.

Extrema follow a two-bound rule: take the best value over product paths
of length at most b1; if any path with length in (b1, b2] beats it, the
extremum is unbounded (reported as the matching infinity), and if no
path of length at most b2 satisfies the constraints at all, the result
is the empty-set convention (+inf for MIN, -inf for MAX).  The default
bounds grow with a capped product-size estimate and are overridable.
Emptiness is complete for instances whose witnesses fit under b2;
extrema are not, since a better path beyond b1 is read as unbounded even
where no cycle can lower the target.  On a 6-node path a -> ... -> f
with `E` on each edge and `time` 1 on each node, MIN `time` from "a" to
"f" reads -inf at bounds (2, 10) and (3, 10), and 6 at (6, 12) or with
derived bounds (ROADMAP item 12).

Derived bounds run into the thousands or to their cap, too far to walk
an improving cycle up to them, so when neither bound is pinned the
extremum search also recognises the cycle itself (Karp-Miller
acceleration in the direction where satisfaction is monotone).  With
accumulated vectors sign-normalised so the target is minimised:

  * pump: a newly admitted c2 = (st, pre, a') with an ancestor
    c1 = (st, pre, a), both finite, a' <= a componentwise and a' < a on
    the target, closes a cycle that keeps every constraint component no
    larger and lowers the target.  If a search from c1 over the
    constraint components finds a completion d within b2 - depth(c1)
    whose target is not +inf, the extremum is unbounded: a + k(a' - a) + d
    <= a + d meets every bound for every k.  The ancestor chain is only
    walked when a' replaces a stored vector of (st, pre) with a higher
    target, so searches that do not pump pay nothing for it;
  * dead key: when that search finds nothing, a's constraint part
    is recorded for (st, pre), and a later configuration there whose
    constraint part is >= it is not admitted: breadth-first order puts
    it at depth >= depth(c1), so it has no completion within b2 either.

Pinned bounds keep the two-bound rule alone.

A search memoises successors with their weight vectors on what
`successors` reads: the NFA states, pos, nodes and the env at the answer
graph's `read_slots` (the state itself when that is None), so a state
met at another weight, or for another free source, reuses them.  Under
another env each successor's env is rebuilt by `Plan._bind`; weights
read nodes only.  The order, (nodes, nfa_states), does not involve the
env, so generation order, dominance outcomes and witnesses stay the
same.  The memo belongs to the search object and dies with it.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from operator import le
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .answer_graph import AGState, AnswerGraph
from .errors import ResourceExceededError
from .extint import NEG_INF, POS_INF, ExtInt, ext_add, ext_mul, is_finite
from .graph import SINK, NodeId

logger = logging.getLogger(__name__)

DEFAULT_BUDGET = 1_000_000
_BOUND_CAP = 10 ** 7
_STATE_CAP = 10_000  # cap on the product-size estimate in derived bounds

_Prefixes = Tuple[Tuple[NodeId, ...], ...]
_Vec = Tuple[ExtInt, ...]
_Config = Tuple[AGState, _Prefixes, _Vec]
# the stored vectors an admitted configuration replaced, None if refused
_Admitted = Optional[Sequence[_Vec]]


@dataclass
class SolveConfig:
    b1: Optional[int] = None          # short-path bound (phase 1)
    b2: Optional[int] = None          # witness bound (phase 2), b1 < b2
    visited_budget: int = DEFAULT_BUDGET


@dataclass
class SolveStats:
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
        n_nodes = len(plan.source.real_nodes) + 1
        size = n_nodes ** plan.k * (ag.N + 2)
        for nfa, _ in plan.nfas:
            size *= len(nfa.moves)
        size = min(size, _STATE_CAP)
        w = 1
        for terms in plan._arith:
            for coeff, name, _ in terms:
                bound = max(1, _finite_bound(plan.source, name))
                w = max(w, abs(coeff) * bound)
        if plan.target is not None:
            w = max(w, max(1, _finite_bound(plan.source, plan.target[0])))
        d = len(plan.bounds) + 1
        b1 = min(size * (2 * d * w * size + 1) ** d, _BOUND_CAP)
        if cfg.b2 is not None:
            b1 = min(b1, cfg.b2 // 2)  # as b2 = 2 * b1 when b2 is derived
    b2 = cfg.b2 if cfg.b2 is not None else 2 * b1
    if not 0 < b1 < b2:
        raise ValueError("bounds must satisfy 0 < b1 < b2")
    return b1, b2


def _finite_bound(source, name: str) -> int:
    lab = source.labellings.get(name)
    if lab is None:
        return 1  # on-demand labelling: magnitude unknown up front
    return lab.finite_bound()


def _value_range(source, name: str) -> Tuple[ExtInt, ExtInt]:
    lab = source.labellings.get(name)
    if lab is None:
        return NEG_INF, POS_INF
    values = (lab.default, *lab.entries.values())
    return min(values), max(values)


def _monotone_components(ag: AnswerGraph) -> List[int]:
    """The components whose per-state contribution is provably >= 0:
    every term's least contribution is finite and >= 0 (all-sink
    positions contribute 0, so 0 is always possible)."""
    def least(coeff: int, name: str) -> ExtInt:
        lo, hi = _value_range(ag.plan.source, name)
        return ext_mul(coeff, lo if coeff >= 0 else hi)

    out = []
    for i, terms in enumerate(ag.plan._arith):
        lows = (least(coeff, name) for coeff, name, _ in terms)
        if all(is_finite(lo) and lo >= 0 for lo in lows):
            out.append(i)
    return out


class _Dominance:
    """Antichains of componentwise-minimal weight vectors, one per
    (state, prefixes) pair."""

    def __init__(self):
        self.store: Dict[Tuple[AGState, _Prefixes], List[_Vec]] = {}

    def admit(self, state: Tuple[AGState, _Prefixes],
              acc: _Vec) -> _Admitted:
        """None when a stored vector of state is <= acc.  Otherwise store
        acc and return the stored vectors it replaced, those >= acc."""
        vecs = self.store.get(state)
        if vecs is None:
            self.store[state] = [acc]
            return ()
        kept, replaced = [], []
        for v in vecs:
            if _le(v, acc):
                return None
            (replaced if _le(acc, v) else kept).append(v)
        kept.append(acc)
        self.store[state] = kept
        return replaced


def _le(u: Sequence[ExtInt], v: Sequence[ExtInt]) -> bool:
    """u <= v componentwise over the shorter of the two: compared with
    the bounds or with a vector of constraint components, a target column
    after the constraint components is left out."""
    return all(map(le, u, v))


class _Search:
    """Breadth-first search over configurations (state, prefixes, acc).

    `prefixes` holds, per tracked path component, the nodes it has
    walked so far (bound components report their whole input path); it
    stays () when nothing is tracked.  Dominance compares configurations
    with the same state and the same prefixes.
    """

    unbounded = False  # set by a search that recognises an unbounded value

    def __init__(self, ag: AnswerGraph, cfg: SolveConfig,
                 with_target: bool = False, sign: int = 1,
                 tracked: Sequence[int] = (),
                 stats: Optional[SolveStats] = None):
        self.ag = ag
        self.bounds = ag.plan.bounds
        self.cfg = cfg
        self.with_target = with_target
        self.sign = sign  # -1 turns a maximised target into a minimised one
        self.tracked = tuple(tracked)
        self.stats = SolveStats() if stats is None else stats
        self.dom = _Dominance()
        self.parent: Dict[_Config, Optional[_Config]] = {}
        self.monotone = _monotone_components(ag)
        # (nfa_states, pos, nodes, env at ag.read_slots), or the state:
        # (env computed under, [(successor, weight vector)])
        self.memo: Dict[tuple, Tuple[tuple, List[Tuple[AGState, _Vec]]]] = {}

    def weight_vec(self, st: AGState) -> _Vec:
        w = self.ag.weight(st)
        if self.with_target:
            t = self.ag.extremum_weight(st)
            w = w + (t if self.sign == 1 else ext_mul(-1, t),)
        return w

    def _expand(self, st: AGState, mkey: tuple):
        """st's successors with their weight vectors, each weighed when the
        search reaches it; memoised at mkey once all are, never partial."""
        out = []
        for succ in self.ag.successors(st):
            out.append((succ, self.weight_vec(succ)))
            yield out[-1]
        self.memo[mkey] = (st.env, out)

    def _shared(self, st: AGState, read: Tuple[int, ...]):
        """st's successors with their weight vectors, memoised at the key
        projected on `read`; under another env each one's is rebuilt."""
        mkey = st[:3] + (tuple([st.env[s] for s in read]),)
        hit = self.memo.get(mkey)
        if hit is None:
            return self._expand(st, mkey)
        if hit[0] == st.env:
            return hit[1]
        bind = self.ag.plan._bind
        return [(AGState(*s[:3], bind(st.nodes, s.nodes, st.env)), w)
                for s, w in hit[1]]

    def prune_monotone(self, acc: _Vec) -> bool:
        for i in self.monotone:
            if acc[i] > self.bounds[i]:
                return True
        return False

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

    def meets(self, key: _Config) -> bool:
        """Is the configuration a target within every bound?"""
        return self.ag.is_target(key[0]) and _le(key[2], self.bounds)

    def _admit(self, key: _Config, parent: Optional[_Config]) -> _Admitted:
        """The vectors key replaced in the dominance store, or None when
        it is not admitted."""
        st, pre, acc = key
        if self.prune_monotone(acc):
            return None
        replaced = self.dom.admit((st, pre), acc)
        if replaced is not None:
            self.parent[key] = parent
            self.stats.enqueued += 1
        return replaced

    def levels(self, max_depth: int,
               _starts: Optional[Iterable[_Config]] = None):
        """Yield (depth, config) for each configuration as it is admitted,
        in generation order, up to depth max_depth.  A level is expanded
        only once the previous one has been consumed, so a caller that
        stops at a configuration builds nothing after it.  `_starts`
        replaces the answer graph's start configurations.  Each expanded
        state is logged at DEBUG on `opra.solver`.
        """
        tracked, stats, memo = self.tracked, self.stats, self.memo
        read = self.ag.read_slots
        admit, budget = self._admit, self.cfg.visited_budget
        trace = logger.isEnabledFor(logging.DEBUG)
        if _starts is None:
            empty = tuple(() for _ in tracked)
            _starts = ((st, self.prefixes(st, empty), self.weight_vec(st))
                       for st in self.ag.start_states())
        level = []
        for key in _starts:
            if admit(key, None) is not None:
                level.append(key)
                yield 0, key
        depth = 0
        while level and depth < max_depth:
            nxt = []
            for conf in level:
                st, pre, acc = conf
                stats.expanded += 1
                if stats.enqueued > budget:
                    raise ResourceExceededError(
                        f"visited budget {budget} exceeded",
                        expanded=stats.expanded,
                    )
                if trace:
                    logger.debug("expand depth=%d pos=%d nodes=%s nfa=%s",
                                 depth, st.pos, st.nodes, st.nfa_states)
                if read is None:
                    # the state is its own key: projecting every key as
                    # `_shared` does cost 4-7 % (four alternating 6 s
                    # pairs, seed 1, 2-core Xeon: route_fixed
                    # 151.7/151.3/150.5/151.7 -> 145.4/145.4/145.4/145.2
                    # ops/s, automaton_extrema 839.9/830.4/848.4/822.1 ->
                    # 776.3/782.8/776.3/778.0 ops/s)
                    hit = memo.get(st)
                    moves = self._expand(st, st) if hit is None else hit[1]
                else:
                    moves = self._shared(st, read)
                for succ, w in moves:
                    acc2 = tuple([
                        a + b if type(a) is int and type(b) is int
                        else ext_add(a, b)
                        for a, b in zip(acc, w)
                    ])
                    pre2 = self.prefixes(succ, pre) if tracked else ()
                    key = (succ, pre2, acc2)
                    if admit(key, conf) is not None:
                        nxt.append(key)
                        yield depth + 1, key
            depth += 1
            level = nxt

    def reconstruct(self, key: _Config):
        chain = []
        while key is not None:
            chain.append(key[0])
            key = self.parent[key]
        chain.reverse()
        return self.ag.decode(chain)


def _first_target(search: _Search, max_depth: int,
                  starts: Optional[Iterable[_Config]] = None
                  ) -> Optional[_Config]:
    """The first admitted target that meets every bound within max_depth,
    in generation order, or None."""
    for _, key in search.levels(max_depth, starts):
        if search.meets(key):
            return key
    return None


class _Completion(_Search):
    """Search from a pumped prefix for a completion that meets the
    constraint components.  A state whose target term is +inf after sign
    normalisation is not entered: a path through it has value +inf
    however often the cycle is pumped."""

    def _admit(self, key: _Config, parent: Optional[_Config]) -> _Admitted:
        if ext_mul(self.sign, self.ag.extremum_weight(key[0])) == POS_INF:
            return None
        return super()._admit(key, parent)


class _PumpSearch(_Search):
    """The extremum search under derived bounds: the pump and dead-key
    rules of the module docstring on top of dominance."""

    def __init__(self, ag: AnswerGraph, cfg: SolveConfig, sign: int,
                 b2: int):
        super().__init__(ag, cfg, with_target=True, sign=sign)
        self.b2 = b2
        self.dead: Dict[Tuple[AGState, _Prefixes], List[_Vec]] = {}

    def _dead(self, key: _Config) -> bool:
        st, pre, acc = key
        return any(_le(d, acc) for d in self.dead.get((st, pre), ()))

    def _admit(self, key: _Config, parent: Optional[_Config]) -> _Admitted:
        if self._dead(key):
            return None
        replaced = super()._admit(key, parent)
        # acc replaced a stored vector with a higher target
        if replaced and any(key[2][-1] < v[-1] for v in replaced):
            self.unbounded = self._pumps(key)
        return replaced

    def _pumps(self, c2: _Config) -> bool:
        """Does an ancestor c1 of c2 close a pumpable cycle with a
        completion?  Each c1 searched from without one becomes a dead
        key."""
        st, pre, a2 = c2
        # an infinite component stays infinite along a path, so a finite
        # a2 has finite ancestors
        if not all(is_finite(x) for x in a2):
            return False
        chain = []
        key = self.parent[c2]
        while key is not None:
            chain.append(key)
            key = self.parent[key]
        for i, c1 in enumerate(chain):
            st1, pre1, a1 = c1
            # an ancestor a dead key covers is not searched from again
            if st1 != st or pre1 != pre or not a2[-1] < a1[-1] \
                    or not _le(a2, a1) or self._dead(c1):
                continue
            start = (st, pre, a1[:-1])
            depth = len(chain) - 1 - i
            comp = _Completion(self.ag, self.cfg, sign=self.sign,
                               stats=self.stats)
            if _first_target(comp, self.b2 - depth, [start]) is not None:
                return True
            self.dead.setdefault((st, pre), []).append(start[2])
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
    hit = _first_target(search, b2)
    if hit is None:
        return EmptinessResult(True, stats=search.stats)
    env, paths = search.reconstruct(hit)
    return EmptinessResult(False, env, paths, search.stats)


MIN = "min"
MAX = "max"


def extremum(ag: AnswerGraph, mode: str,
             cfg: Optional[SolveConfig] = None) -> ExtremumResult:
    """Minimum (or maximum) of the target aggregate over satisfying paths.

    Phase 1 takes the best value over paths of length <= b1; any strictly
    better path with length in (b1, b2] makes the result -inf (MIN) or
    +inf (MAX), as soon as the first one is admitted; no satisfying path
    at all gives the empty-set convention.

    When neither bound is pinned, a cycle that lowers the sign-normalised
    target and raises no constraint component, followed by a completion
    that meets the bounds within b2, gives -inf (MIN) or +inf (MAX) at
    once, with no witness: pumping the cycle k times keeps every bound
    and lowers the target by k times the cycle's gain.  A prefix whose
    cycle has no completion is a dead key: no later configuration with
    its state and at least its constraint components is explored.
    """
    if ag.plan.target is None:
        raise ValueError("answer graph was built without a target labelling")
    if mode not in (MIN, MAX):
        raise ValueError("mode must be 'min' or 'max'")
    cfg = cfg or SolveConfig()
    b1, b2 = derive_bounds(ag, cfg)
    sign = 1 if mode == MIN else -1
    if cfg.b1 is None and cfg.b2 is None:
        search = _PumpSearch(ag, cfg, sign, b2)
    else:
        search = _Search(ag, cfg, with_target=True, sign=sign)

    best: Optional[ExtInt] = None
    best_key = None
    for depth, key in search.levels(b2):
        value = key[2][-1]
        better = search.meets(key) and (best is None or value < best)
        if search.unbounded or better and depth > b1:
            # a pumpable cycle, or a longer path that beats every short one
            return ExtremumResult(ext_mul(sign, NEG_INF), stats=search.stats)
        if better:
            best, best_key = value, key
    if best is None:
        return ExtremumResult(ext_mul(sign, POS_INF), stats=search.stats)
    env, paths = search.reconstruct(best_key)
    return ExtremumResult(ext_mul(sign, best), env, paths, search.stats)


def enumerate_answers(ag: AnswerGraph, max_len: int,
                      cfg: Optional[SolveConfig] = None):
    """All decoded answers whose product paths have at most max_len steps.

    An answer is (free-node assignment, free-path tuple).  The search
    carries each free path's prefix in its configurations, so dominance
    and monotone pruning apply as for emptiness without losing an answer:
    configurations with the same state and prefixes have the same
    completions and decode to the same answers.
    """
    cfg = cfg or SolveConfig()
    plan = ag.plan
    n_free_nodes = len(plan.pra.match_nodes)
    tracked = [i for i, v in enumerate(plan.path_vars)
               if v in plan.pra.match_paths]
    search = _Search(ag, cfg, tracked=tracked)
    answers = set()
    for _, key in search.levels(max_len):
        if search.meets(key):
            answers.add((key[0].env[:n_free_nodes], key[1]))
    return answers, search.stats

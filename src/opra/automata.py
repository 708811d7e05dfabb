"""Node-constraint NFAs for regular constraints.

Constraints compile via the Thompson construction followed by epsilon
elimination.  Letters stay symbolic (NodeConstraint values) and are
evaluated lazily against node tuples, since the alphabet of possible
constraints is unbounded.  After compilation every final state carries a
self-loop on the special letter BOTTOM, which is true exactly when all
of the constraint's current nodes are the sink, i.e. when every
constrained path has already terminated.  A simulation step offers
BOTTOM moves only in that situation and real letters only otherwise, so
runs read exactly the word induced by the paths and then idle on BOTTOM.
A state with at least one real-letter move is *live*; the others can
only idle on BOTTOM, so a run may enter one only on its last real letter.

`compile_regex` also builds each `Nfa`'s move table `moves`, indexed by
state: the state's BOTTOM destinations, and its real-letter moves as
(letter, destination, destination is live) in transition order.  A step
reads one entry per current state instead of scanning the transitions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Sequence, Tuple

from .extint import ext_compare
from .graph import SINK, NodeId, path_index
from .query import (
    Concat, Epsilon, Letter, NodeConstraint, Regex, Star, Union_,
)


class _Bottom:
    __slots__ = ()

    def __repr__(self):
        return "BOTTOM"


BOTTOM = _Bottom()


def eval_node_constraint(source, letter, cur: Sequence[NodeId],
                         nxt: Sequence[NodeId]) -> bool:
    """Evaluate a letter on the current/next node tuples of the k paths."""
    if letter is BOTTOM:
        return all(c == SINK for c in cur)
    return ext_compare(letter.op, letter.lhs.read(source, cur, nxt),
                       letter.rhs.read(source, cur, nxt))


@dataclass
class Nfa:
    n_states: int
    transitions: Tuple[Tuple[int, object, int], ...]  # (src, letter, dst)
    initial: FrozenSet[int]
    final: FrozenSet[int]
    live: FrozenSet[int]  # states with at least one real-letter move
    moves: Tuple[tuple, ...]  # per state: BOTTOM dsts, (letter, dst, live)

    def dump(self) -> str:
        """Line-based text form: one line per state flag and transition."""
        lines = [f"INITIAL {i}" for i in sorted(self.initial)]
        lines += [f"FINAL {f}" for f in sorted(self.final)]
        for src, letter, dst in self.transitions:
            text = "BOT" if letter is BOTTOM else letter.text()
            lines.append(f"{src} {text} {dst}")
        return "\n".join(lines)


class _Builder:
    def __init__(self):
        self.n = 0
        self.eps: List[Tuple[int, int]] = []
        self.edges: List[Tuple[int, NodeConstraint, int]] = []

    def state(self) -> int:
        self.n += 1
        return self.n - 1

    def build(self, r: Regex) -> Tuple[int, int]:
        if isinstance(r, Epsilon):
            i, f = self.state(), self.state()
            self.eps.append((i, f))
            return i, f
        if isinstance(r, Letter):
            i, f = self.state(), self.state()
            self.edges.append((i, r.constraint, f))
            return i, f
        if isinstance(r, Concat):
            i1, f1 = self.build(r.left)
            i2, f2 = self.build(r.right)
            self.eps.append((f1, i2))
            return i1, f2
        if isinstance(r, Union_):
            i, f = self.state(), self.state()
            i1, f1 = self.build(r.left)
            i2, f2 = self.build(r.right)
            self.eps += [(i, i1), (i, i2), (f1, f), (f2, f)]
            return i, f
        if isinstance(r, Star):
            i, f = self.state(), self.state()
            i1, f1 = self.build(r.body)
            self.eps += [(i, i1), (i, f), (f1, i1), (f1, f)]
            return i, f
        raise TypeError(f"not a regex: {r!r}")


def compile_regex(regex: Regex) -> Nfa:
    """Thompson construction, epsilon elimination, BOTTOM extension."""
    b = _Builder()
    init, final = b.build(regex)

    eps_out: Dict[int, List[int]] = {}
    for s, t in b.eps:
        eps_out.setdefault(s, []).append(t)

    def closure(s: int) -> FrozenSet[int]:
        seen = {s}
        stack = [s]
        while stack:
            u = stack.pop()
            for v in eps_out.get(u, ()):
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        return frozenset(seen)

    closures = [closure(s) for s in range(b.n)]
    raw_out: Dict[int, List[Tuple[NodeConstraint, int]]] = {}
    for s, letter, t in b.edges:
        raw_out.setdefault(s, []).append((letter, t))

    # keep only states reachable from the initial state

    reach = {init}
    stack = [init]
    out: Dict[int, List[Tuple[NodeConstraint, int]]] = {}
    while stack:
        s = stack.pop()
        moves: List[Tuple[NodeConstraint, int]] = []
        for c in sorted(closures[s]):
            moves.extend(raw_out.get(c, ()))
        out[s] = moves
        for _, t in moves:
            if t not in reach:
                reach.add(t)
                stack.append(t)

    order = sorted(reach)
    renumber = {old: new for new, old in enumerate(order)}
    finals = frozenset(renumber[s] for s in order if final in closures[s])
    moves = tuple(
        ((new,) if new in finals else (),  # the BOTTOM self-loop
         tuple((letter, renumber[t], bool(out[t])) for letter, t in out[old]))
        for new, old in enumerate(order))
    transitions = [(src, letter, dst) for src, (_, real) in enumerate(moves)
                   for letter, dst, _ in real]
    transitions += [(f, BOTTOM, f) for f in sorted(finals)]
    return Nfa(
        n_states=len(order),
        transitions=tuple(transitions),
        initial=frozenset({renumber[init]}),
        final=finals,
        live=frozenset(s for s, (_, real) in enumerate(moves) if real),
        moves=moves,
    )


def step(source, nfa: Nfa, states: Iterable[int], cur: Sequence[NodeId],
         nxt: Sequence[NodeId]) -> FrozenSet[int]:
    """One simulation step over all states, read from `nfa.moves`.

    Once every constrained path has terminated (all current nodes are the
    sink) only BOTTOM moves are offered; before that, only real letters.
    """
    terminated = all(c == SINK for c in cur)
    out = set()
    for s in states:
        bottom, real = nfa.moves[s]
        if terminated:
            out.update(bottom)
        else:
            out.update(dst for letter, dst, _ in real
                       if eval_node_constraint(source, letter, cur, nxt))
    return frozenset(out)


def match_paths(source, nfa: Nfa, paths: Sequence[Sequence[NodeId]]) -> bool:
    """Direct acceptance check of the word induced by a path tuple.

    Builds the letters (p_1[i], p_1[i+1], ..., p_k[i], p_k[i+1]) for i up
    to the longest path's length and simulates the NFA on exactly those.
    Used for differential testing only: the oracle calls `step` as it
    extends each path prefix.  `AnswerGraph.successors` reads the same
    `Nfa.moves` through its plan's move table, with its live-state filter,
    and decides a stored step letter by index membership instead of
    evaluating it.
    """
    s = max((len(p) for p in paths), default=0)
    states: FrozenSet[int] = nfa.initial
    for i in range(1, s + 1):
        cur = tuple(path_index(p, i) for p in paths)
        nxt = tuple(path_index(p, i + 1) for p in paths)
        states = step(source, nfa, states, cur, nxt)
        if not states:
            return False
    return bool(states & nfa.final)

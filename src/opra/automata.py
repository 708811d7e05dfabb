"""Node-constraint NFAs for regular constraints.

A constraint compiles to its position (Glushkov) automaton: the initial
state 0 plus one state per letter occurrence, with no epsilon moves,
which is the NFA of linear size that the paper's NL bound uses.
Letters stay symbolic (NodeConstraint values) and are evaluated lazily
against node tuples, since the alphabet of possible constraints is
unbounded.  The paper pads the induced word with a terminal letter ⊥,
read once every constrained path has ended; here ⊥ is a rule, not a
letter: a run whose paths have all ended keeps its state if that state
is final and dies otherwise, and a run reads real letters only before
that.  So runs read exactly the word induced by the paths and then
idle.  A state with at least one real-letter move is *live*; the
others can only idle, so a run may enter one only on its last real
letter.

An `Nfa` is its final states and its move table, `moves`, indexed by
state: the state's real-letter moves as (letter, destination,
destination is live) in increasing destination order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, List, Optional, Sequence, Set, Tuple

from .extint import ext_compare
from .graph import SINK, NodeId, path_index
from .query import (
    Concat, Epsilon, Letter, NodeConstraint, Regex, Star, Union_,
)


def eval_node_constraint(source, letter, cur: Sequence[NodeId],
                         nxt: Sequence[NodeId]) -> bool:
    """Evaluate a letter on the current/next node tuples of the k paths."""
    return ext_compare(letter.op, letter.lhs.read(source, cur, nxt),
                       letter.rhs.read(source, cur, nxt))


@dataclass
class Nfa:
    """State 0 is initial; `moves[s]` holds s's (letter, dst, live)."""
    final: FrozenSet[int]
    moves: Tuple[tuple, ...]

    def dump(self) -> str:
        """Line-based text form: the state flags, each real-letter move in
        move-table order, then each final state's ⊥ self-loop."""
        lines = ["INITIAL 0"] + [f"FINAL {f}" for f in sorted(self.final)]
        lines += [f"{src} {letter.text()} {dst}"
                  for src, real in enumerate(self.moves)
                  for letter, dst, _ in real]
        lines += [f"{f} BOT {f}" for f in sorted(self.final)]
        return "\n".join(lines)


def compile_regex(regex: Regex) -> Nfa:
    """Position automaton of `regex`.

    One pass computes, for every subexpression, whether it accepts the
    empty word and its first and last positions, and fills each
    position's follow set.  State 0 is initial and state p is the p-th
    letter occurrence from the left.  p moves to q on q's letter when q is
    in follow(p), in increasing q; the final states are the last
    positions, plus 0 when the empty word is accepted.
    """
    letters: List[Optional[NodeConstraint]] = [None]  # state p's letter
    follow: List[Set[int]] = [set()]

    def walk(r: Regex) -> Tuple[bool, List[int], List[int]]:
        if isinstance(r, Epsilon):
            return True, [], []
        if isinstance(r, Letter):
            letters.append(r.constraint)
            follow.append(set())
            return False, [len(letters) - 1], [len(letters) - 1]
        if isinstance(r, Star):
            _, first, last = walk(r.body)
            for p in last:
                follow[p].update(first)
            return True, first, last
        if not isinstance(r, (Concat, Union_)):
            raise TypeError(f"not a regex: {r!r}")
        empty1, first1, last1 = walk(r.left)
        empty2, first2, last2 = walk(r.right)
        if isinstance(r, Union_):
            return empty1 or empty2, first1 + first2, last1 + last2
        for p in last1:
            follow[p].update(first2)
        return (empty1 and empty2, first1 + first2 if empty1 else first1,
                last1 + last2 if empty2 else last2)

    empty, first, last = walk(regex)
    follow[0].update(first)
    finals = frozenset(last + [0] if empty else last)
    return Nfa(finals, tuple(
        tuple((letters[q], q, bool(follow[q])) for q in sorted(follow[s]))
        for s in range(len(letters))))


def step(source, nfa: Nfa, states: FrozenSet[int], cur: Sequence[NodeId],
         nxt: Sequence[NodeId]) -> FrozenSet[int]:
    """One simulation step over all states, read from `nfa.moves`.

    Once every constrained path has terminated (all current nodes are the
    sink) the ⊥ rule keeps exactly the final states; before that, the
    states move on real letters.
    """
    if all(c == SINK for c in cur):
        return states & nfa.final
    return frozenset(dst for s in states for letter, dst, _ in nfa.moves[s]
                     if eval_node_constraint(source, letter, cur, nxt))


def match_paths(source, nfa: Nfa, paths: Sequence[Sequence[NodeId]]) -> bool:
    """Direct acceptance check of the word induced by a path tuple.

    Builds the letters (p_1[i], p_1[i+1], ..., p_k[i], p_k[i+1]) for i up
    to the longest path's length and simulates the NFA on exactly those.
    Tests compare it with `oracle.match_paths_language`, the inductive
    regex semantics.  Only that comparison can see a fault in the
    construction, since the oracle itself compiles with `compile_regex`
    and calls `step` as it extends each path prefix.
    `AnswerGraph.successors` reads the same `Nfa.moves` through its plan's
    move table, with its live-state filter, and decides a stored step
    letter by index membership instead of evaluating it.
    """
    s = max((len(p) for p in paths), default=0)
    states: FrozenSet[int] = frozenset({0})
    for i in range(1, s + 1):
        cur = tuple(path_index(p, i) for p in paths)
        nxt = tuple(path_index(p, i + 1) for p in paths)
        states = step(source, nfa, states, cur, nxt)
        if not states:
            return False
    return bool(states & nfa.final)

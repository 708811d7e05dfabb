"""Labelled-graph data model.

A graph is a finite node set plus named labelling functions from node
tuples to extended integers.  Node names are interned to dense ints;
index 0 is the distinguished sink node used to pad paths past their end,
so every path has a total (1-based) index.  Labellings are stored
sparsely with an explicit default, which makes lookup total; tuples that
mention the sink are never stored and therefore evaluate to the default.

Stored graphs and their labellings are immutable after load and safe to
share across concurrent evaluations.  A `View` is a Graph too: it adds
labelling definitions to a base graph and looks them up on demand, with
one memo per view.  Its two kinds differ only in how a definition's
term evaluates: the engine's `ontology.ExtendedGraph`, which also keeps
the plans of its nested queries, and the oracle's `oracle.OracleView`.
Their caches hold what the graph, the ontology and the evaluation
settings fix, and live as long as the view.

The one derived structure of a stored graph is a labelling's index, for
any arity: per value and tuple of positions, the keys of that value
grouped by their nodes at those positions, kept with the per-node
projections (`targets`) that `step_targets` reads to bound the next
nodes of a step letter, each a set for membership beside the same nodes
in increasing order, sorted once.  Each is computed from the immutable
entries on first use and never changes afterwards; two evaluations that
race to build one build the same index, so sharing stays safe.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import (
    Dict, FrozenSet, Iterable, Mapping, Optional, Sequence, Tuple,
)

from .errors import (
    ArityMismatchError,
    DuplicateEntryError,
    GraphLoadError,
    NameCollisionError,
    UnknownLabellingError,
    UnknownNodeError,
)
from .extint import ExtInt, ext_sum, from_json, is_finite, to_json

SINK = 0
SINK_NAME = "<sink>"

NodeId = int
# a node's targets: a set for membership, and its nodes in increasing order
NodeTargets = Tuple[FrozenSet[NodeId], Tuple[NodeId, ...]]
NO_TARGETS: NodeTargets = (frozenset(), ())
Path = Tuple[NodeId, ...]


@dataclass(frozen=True)
class Labelling:
    """A total function from node tuples of fixed arity to extended ints."""

    name: str
    arity: int
    default: ExtInt = 0
    entries: Mapping[Tuple[NodeId, ...], ExtInt] = field(default_factory=dict)

    def value(self, key: Tuple[NodeId, ...]) -> ExtInt:
        return self.entries.get(key, self.default)

    def index(self, value: ExtInt, by: Tuple[int, ...]
              ) -> Mapping[Tuple[NodeId, ...], Tuple[Tuple[NodeId, ...], ...]]:
        """Keys of the entries of `value`, grouped by their nodes at the
        0-based positions `by`, each group in key order.

        For a value other than the default, group g holds exactly the
        keys t with t at `by` equal to g and value(t) == value.
        """
        groups = self._indexes.get((value, by))
        if groups is None:
            if any(not 0 <= p < self.arity for p in by):
                raise ArityMismatchError(
                    f"labelling {self.name!r} has arity {self.arity}, "
                    f"no positions {by}")
            lists: Dict[Tuple[NodeId, ...], list] = {}
            for key in sorted(k for k, v in self.entries.items() if v == value):
                lists.setdefault(tuple([key[p] for p in by]), []).append(key)
            groups = {g: tuple(keys) for g, keys in lists.items()}
            self._indexes[value, by] = groups
        return groups

    @cached_property
    def _indexes(self) -> Dict[tuple, Mapping]:
        return {}  # (value, by) -> index, (value, by, at) -> targets

    def targets(self, value: ExtInt, by: Tuple[int, ...],
                at: int) -> Mapping[NodeId, NodeTargets]:
        """Per node u, the nodes at position `at` of the entries of
        `value` that hold u at each of the positions `by` (at least one),
        as a set and as a tuple in increasing order.  Read from `index`
        and kept with it."""
        targets = self._indexes.get((value, by, at))
        if targets is None:
            if not 0 <= at < self.arity:
                raise ArityMismatchError(
                    f"labelling {self.name!r} has arity {self.arity}, "
                    f"no position {at}")
            targets = {}
            for g, keys in self.index(value, by).items():
                if g.count(g[0]) == len(g):
                    nodes = frozenset([key[at] for key in keys])
                    targets[g[0]] = (nodes, tuple(sorted(nodes)))
            self._indexes[value, by, at] = targets
        return targets

    @cached_property
    def value_range(self) -> Tuple[ExtInt, ExtInt]:
        """The least and the greatest value this labelling can take."""
        values = (self.default, *self.entries.values())
        return min(values), max(values)

    @cached_property
    def finite_bound(self) -> int:
        """Largest absolute finite value this labelling can take, or 0."""
        return max([abs(v) for v in (self.default, *self.entries.values())
                    if is_finite(v)], default=0)


class Graph:
    """Immutable labelled graph with interned node ids (0 is the sink)."""

    def __init__(self, node_names: Sequence[str], labellings: Iterable[Labelling]):
        if SINK_NAME in node_names:
            raise NameCollisionError(
                f"node name {SINK_NAME!r} is reserved for the sink")
        self.node_names: Tuple[str, ...] = (SINK_NAME, *node_names)
        self._index: Dict[str, int] = {}
        for i, n in enumerate(self.node_names):
            if n in self._index:
                raise NameCollisionError(f"duplicate node name {n!r}")
            self._index[n] = i
        self.labellings: Dict[str, Labelling] = {}
        for lab in labellings:
            if lab.name in self.labellings:
                raise NameCollisionError(f"duplicate labelling name {lab.name!r}")
            self.labellings[lab.name] = lab

    # -- nodes ----------------------------------------------------------

    @property
    def real_nodes(self) -> range:
        """Ids of all nodes except the sink."""
        return range(1, len(self.node_names))

    def node_id(self, name: str) -> NodeId:
        try:
            return self._index[name]
        except KeyError:
            raise UnknownNodeError(f"unknown node {name!r}") from None

    def node_name(self, nid: NodeId) -> str:
        return self.node_names[nid]

    # -- labellings -----------------------------------------------------

    def has_labelling(self, name: str) -> bool:
        return name in self.labellings

    def arity(self, name: str) -> int:
        lab = self.labellings.get(name)
        if lab is None:
            raise UnknownLabellingError(f"unknown labelling {name!r}")
        return lab.arity

    def label_value(self, name: str, key: Tuple[NodeId, ...]) -> ExtInt:
        lab = self.labellings.get(name)
        if lab is None:
            raise UnknownLabellingError(f"unknown labelling {name!r}")
        if len(key) != lab.arity:
            raise ArityMismatchError(
                f"labelling {name!r} has arity {lab.arity}, got {len(key)} nodes"
            )
        return lab.value(key)

    def step_targets(self, name: str, value: ExtInt, reverse: bool = False
                     ) -> Optional[Mapping[NodeId, NodeTargets]]:
        """Next-node candidates of the step letter `name(@1, @1') = value`,
        or `name(@1', @1) = value` when `reverse`: per real node u, a set
        holding every real w where the letter holds on the step u -> w,
        with its nodes in increasing order (a u it does not map has
        none, `NO_TARGETS`), or None when no index bounds the letter.  A
        stored labelling answers for any value but its default, and its
        set is exact: it holds w exactly where the letter holds.  An
        ontology view's sets for defined letters are supersets."""
        cur, nxt = (1, 0) if reverse else (0, 1)
        return step_candidates(self.labellings.get(name), value, (0, 1),
                               cur, nxt)


class View(Graph):
    """A graph with on-demand labellings: it shares its base graph's
    nodes and stored labellings, by reference, and adds labelling
    definitions (name, params, term).  A stored name reads as in the
    base; a defined one evaluates its term, by `term_value`, under the
    instantiation mapping its parameters to the node tuple, once per
    (labelling, tuple) for the view's lifetime.  Tuples that mention the
    sink read 0, so that padded positions stay value-neutral."""

    def __init__(self, base: Graph, entries: Iterable = ()):
        self.base = base
        self.node_names = base.node_names
        self._index = base._index
        self.labellings = base.labellings
        # the definitions label_value reads, in first-definition order
        self._by_name = {e.name: e for e in entries}
        self._memo: Dict[Tuple[str, Tuple[NodeId, ...]], ExtInt] = {}

    def term_value(self, term, eta: Mapping[str, NodeId]) -> ExtInt:
        """Value of a definition's term under `eta`; each view evaluates
        terms its own way."""
        raise NotImplementedError

    def has_labelling(self, name: str) -> bool:
        return name in self.labellings or name in self._by_name

    def _entry(self, name: str):
        entry = self._by_name.get(name)
        if entry is None:
            raise UnknownLabellingError(f"unknown labelling {name!r}")
        return entry

    def arity(self, name: str) -> int:
        if name in self.labellings:
            return super().arity(name)
        return len(self._entry(name).params)

    def label_value(self, name: str, key: Tuple[NodeId, ...]) -> ExtInt:
        if name in self.labellings:
            return super().label_value(name, key)
        entry = self._entry(name)
        if len(key) != len(entry.params):
            raise ArityMismatchError(
                f"labelling {name!r} has arity {len(entry.params)}, "
                f"got {len(key)} nodes"
            )
        if SINK in key:
            return 0
        memo_key = (name, key)
        cached = self._memo.get(memo_key)
        if cached is not None:
            return cached
        value = self.term_value(entry.term, dict(zip(entry.params, key)))
        self._memo[memo_key] = value
        return value


def step_candidates(lab: Optional[Labelling], value: ExtInt,
                    args: Sequence[object], cur: object, nxt: object
                    ) -> Optional[Mapping[NodeId, NodeTargets]]:
    """Per node u, the nodes w such that `lab` applied to `args` has an
    entry of `value` that reads u wherever `args` holds `cur` and w where
    it first holds `nxt`, whatever it reads elsewhere, as
    `Labelling.targets` gives them.  None when no stored `lab` of that
    arity bounds the step: `value` is its default, or `args` lacks `cur`
    or `nxt`."""
    if lab is None or lab.arity != len(args) or value == lab.default \
            or cur not in args or nxt not in args:
        return None
    by = tuple(i for i, a in enumerate(args) if a == cur)
    return lab.targets(value, by, args.index(nxt))


def path_index(path: Sequence[NodeId], i: int) -> NodeId:
    """1-based indexing with sink padding past the end of the path."""
    if i < 1:
        raise ValueError("path positions are 1-based")
    return path[i - 1] if i <= len(path) else SINK


def aggregate(source, name: str, paths: Sequence[Sequence[NodeId]]) -> ExtInt:
    """Sum a labelling positionwise along a tuple of paths.

    Position i contributes the labelling applied to (p_1[i], ..., p_k[i]);
    the sum runs to the longest path's length, so shorter paths contribute
    sink-padded tuples.  All paths empty gives the empty sum, 0.

    `source` is anything with arity()/label_value(), i.e. a Graph or an
    ontology-extended view of one.
    """
    if source.arity(name) != len(paths):
        raise ArityMismatchError(
            f"labelling {name!r} has arity {source.arity(name)}, "
            f"got {len(paths)} paths"
        )
    s = max((len(p) for p in paths), default=0)
    return ext_sum(
        source.label_value(name, tuple(path_index(p, i) for p in paths))
        for i in range(1, s + 1)
    )


# -- JSON format --------------------------------------------------------------
#
# {"nodes": ["S", "T", ...],                      sink implicit, never listed
#  "labellings": {"time": {"arity": 1,
#                          "default": 0,          optional, int | "+inf" | "-inf"
#                          "entries": [["S", 10], ...]}}}
#
# Each entry is exactly `arity` node names followed by one value.  Duplicate
# tuples are a load error.

def graph_from_dict(data: dict) -> Graph:
    if not isinstance(data, dict) or "nodes" not in data:
        raise GraphLoadError("graph file must be an object with a 'nodes' array")
    names = data["nodes"]
    if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
        raise GraphLoadError("'nodes' must be an array of strings")
    index = {n: i + 1 for i, n in enumerate(names)}
    if len(index) != len(names):
        raise NameCollisionError("duplicate node name in 'nodes'")

    specs = data.get("labellings") or {}
    if not isinstance(specs, dict):
        raise GraphLoadError("'labellings' must be an object")
    labellings = []
    for lname, spec in specs.items():
        if not isinstance(spec, dict):
            raise GraphLoadError(f"labelling {lname!r} must be an object")
        arity = spec.get("arity")
        if isinstance(arity, bool) or not isinstance(arity, int) or arity < 1:
            raise GraphLoadError(f"labelling {lname!r}: arity must be a positive int")
        rows = spec.get("entries", [])
        if not isinstance(rows, list):
            raise GraphLoadError(
                f"labelling {lname!r}: 'entries' must be an array")
        shape = f"labelling {lname!r}: entry needs {arity} nodes and one value"
        entries: Dict[Tuple[int, ...], ExtInt] = {}
        try:
            default = from_json(spec.get("default", 0))
            for row in rows:
                if not isinstance(row, list) or len(row) != arity + 1:
                    raise GraphLoadError(shape)
                try:
                    key = tuple(index[n] for n in row[:arity])
                except KeyError as e:
                    raise UnknownNodeError(
                        f"labelling {lname!r}: unknown node {e.args[0]!r}"
                    ) from None
                except TypeError:  # an unhashable node name, such as a list
                    raise GraphLoadError(shape) from None
                if key in entries:
                    raise DuplicateEntryError(
                        f"labelling {lname!r}: duplicate entry for {row[:arity]}"
                    )
                entries[key] = from_json(row[arity])
        except ValueError as e:  # from from_json: no int, '+inf' or '-inf'
            raise GraphLoadError(f"labelling {lname!r}: {e}") from None
        labellings.append(Labelling(lname, arity, default, entries))

    return Graph(names, labellings)


def graph_to_dict(g: Graph) -> dict:
    labellings = {}
    for lab in g.labellings.values():
        entries = [
            [*(g.node_name(n) for n in key), to_json(v)]
            for key, v in sorted(lab.entries.items())
        ]
        labellings[lab.name] = {
            "arity": lab.arity,
            "default": to_json(lab.default),
            "entries": entries,
        }
    return {"nodes": list(g.node_names[1:]), "labellings": labellings}


def load_graph(path: str) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return graph_from_dict(json.load(fh))

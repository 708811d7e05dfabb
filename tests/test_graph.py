import json
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from opra.errors import (
    ArityMismatchError, DuplicateEntryError, GraphLoadError,
    NameCollisionError, UnknownLabellingError, UnknownNodeError,
)
from opra.extint import NEG_INF, POS_INF
from opra.graph import (
    SINK, Graph, Labelling, aggregate, graph_from_dict, graph_to_dict,
    path_index,
)


def test_path_index_padding(fig2, node):
    p = (node("S"), node("T"), node("P"))
    assert path_index(p, 2) == node("T")
    assert path_index(p, 7) == SINK
    assert path_index((), 1) == SINK
    with pytest.raises(ValueError):
        path_index(p, 0)


@given(st.lists(st.integers(1, 9), max_size=6), st.integers(1, 20))
def test_path_index_total(nodes, i):
    p = tuple(nodes)
    if i <= len(p):
        assert path_index(p, i) == p[i - 1]
    else:
        assert path_index(p, i) == SINK


def test_label_values(fig2, node):
    assert fig2.label_value("time", (node("P"),)) == 60
    assert fig2.label_value("time", (SINK,)) == 0
    assert fig2.label_value("E", (node("S"), node("T"))) == 1
    assert fig2.label_value("E", (node("S"), node("P"))) == 0
    with pytest.raises(UnknownLabellingError):
        fig2.label_value("speed", (node("S"),))
    with pytest.raises(ArityMismatchError):
        fig2.label_value("time", (node("S"), node("T")))


def sets(targets):
    """Each node's targets as a set, having checked that its ordered
    nodes are the set's in increasing order."""
    for nodes, order in targets.values():
        assert order == tuple(sorted(nodes))
    return {u: nodes for u, (nodes, _) in targets.items()}


def test_binary_index_targets(fig2, node):
    lab = Labelling("F", 2, 2, {(1, 2): 0, (1, 3): 0, (1, 4): 5, (2, 1): 0})
    assert "_indexes" not in vars(lab)  # built on first use only
    assert sets(lab.targets(0, (0,), 1)) == {1: {2, 3}, 2: {1}}
    assert sets(lab.targets(5, (0,), 1)) == {1: {4}}
    assert sets(lab.targets(0, (1,), 0)) == {1: {2}, 2: {1}, 3: {1}}
    assert lab.targets(2, (0,), 1) == {}  # the default is never stored
    assert lab.targets(0, (0,), 1) is lab.targets(0, (0,), 1)
    assert {(0, (0,)), (5, (0,)), (0, (1,)), (2, (0,))} \
        <= set(vars(lab)["_indexes"])
    edges = fig2.labellings["E"]
    assert sets(edges.targets(1, (0,), 1))[node("S")] \
        == {node("T"), node("W")}
    assert sets(fig2.step_targets("E", 1, reverse=True))[node("T")] \
        == {node("S")}
    assert fig2.step_targets("E", 0) is None  # E's default
    assert fig2.step_targets("time", 10) is None  # not binary
    with pytest.raises(ArityMismatchError):
        fig2.labellings["time"].targets(10, (0,), 1)


def test_index_groups_keys_of_any_arity():
    lab = Labelling("S", 3, 0, {(1, 2, 3): 1, (1, 1, 3): 1, (2, 2, 2): 1,
                                (1, 3, 3): 7, (3, 1, 1): 1})
    assert lab.index(1, (0, 2)) == {(1, 3): ((1, 1, 3), (1, 2, 3)),
                                    (2, 2): ((2, 2, 2),),
                                    (3, 1): ((3, 1, 1),)}
    assert lab.index(1, ()) == {(): ((1, 1, 3), (1, 2, 3), (2, 2, 2),
                                     (3, 1, 1))}
    assert lab.index(1, (0, 2)) is lab.index(1, (0, 2))
    # u at both positions 1 and 2: (2, 2, 2) and (3, 1, 1), not (1, 2, 3)
    assert sets(lab.targets(1, (1, 2), 0)) == {2: {2}, 1: {3}}
    with pytest.raises(ArityMismatchError):
        lab.index(1, (3,))


def test_aggregate_route_times(fig2, node):
    route = [node(n) for n in ("S", "T", "P")]
    assert aggregate(fig2, "time", [route]) == 80
    assert aggregate(fig2, "attr", [()]) == 0
    long_route = [node(n) for n in ("S", "T", "P", "B", "S", "T", "P")]
    assert aggregate(fig2, "attr", [long_route]) == 148
    assert aggregate(fig2, "time", [long_route]) == 175


def test_aggregate_positionwise_identity(fig2, node):
    # recompute the definition by hand over a two-path tuple
    rng = random.Random(7)
    reals = list(fig2.real_nodes)
    for _ in range(50):
        p = tuple(rng.choice(reals) for _ in range(rng.randint(0, 5)))
        q = tuple(rng.choice(reals) for _ in range(rng.randint(0, 5)))
        s = max(len(p), len(q))
        expected = sum(
            fig2.label_value("E", (path_index(p, i), path_index(q, i)))
            for i in range(1, s + 1)
        )
        assert aggregate(fig2, "E", [p, q]) == expected


def test_aggregate_sink_suffix_invariance(fig2, node):
    # padding positions are value-neutral under default-0 labellings
    p = tuple(node(n) for n in ("S", "T", "P"))
    assert aggregate(fig2, "time", [p]) == \
        aggregate(fig2, "time", [p + (SINK, SINK)])


def test_aggregate_arity_check(fig2, node):
    with pytest.raises(ArityMismatchError):
        aggregate(fig2, "E", [(node("S"),)])


def test_graph_json_round_trip(fig2):
    data = graph_to_dict(fig2)
    again = graph_from_dict(json.loads(json.dumps(data)))
    assert graph_to_dict(again) == data


def test_load_errors():
    base = {"nodes": ["a", "b"], "labellings": {}}
    dup = dict(base, labellings={
        "w": {"arity": 1, "entries": [["a", 1], ["a", 2]]}
    })
    with pytest.raises(DuplicateEntryError):
        graph_from_dict(dup)
    unknown = dict(base, labellings={
        "w": {"arity": 1, "entries": [["c", 1]]}
    })
    with pytest.raises(UnknownNodeError):
        graph_from_dict(unknown)
    with pytest.raises(NameCollisionError):
        graph_from_dict({"nodes": ["a", "a"]})
    with pytest.raises(NameCollisionError,
                       match="^node name '<sink>' is reserved for the sink$"):
        graph_from_dict({"nodes": ["a", "<sink>"]})
    inf = dict(base, labellings={
        "w": {"arity": 1, "default": "+inf", "entries": [["a", "-inf"]]}
    })
    g = graph_from_dict(inf)
    assert g.label_value("w", (g.node_id("a"),)) == NEG_INF
    assert g.label_value("w", (g.node_id("b"),)) == POS_INF


def test_graph_rejects_duplicate_names():
    with pytest.raises(NameCollisionError, match="^duplicate node name 'a'$"):
        Graph(["a", "b", "a"], [])
    w = Labelling("w", 1)
    with pytest.raises(NameCollisionError,
                       match="^duplicate labelling name 'w'$"):
        Graph(["a"], [w, Labelling("v", 1), w])


@pytest.mark.parametrize("data, message", [
    (["a"], "graph file must be an object with a 'nodes' array"),
    ({"labellings": {}}, "graph file must be an object with a 'nodes' array"),
    ({"nodes": "ab"}, "'nodes' must be an array of strings"),
    ({"nodes": ["a", 1]}, "'nodes' must be an array of strings"),
], ids=["array", "no-nodes", "string", "int-node"])
def test_malformed_graph_is_load_error(data, message):
    with pytest.raises(GraphLoadError) as err:
        graph_from_dict(data)
    assert type(err.value) is GraphLoadError and str(err.value) == message


@pytest.mark.parametrize("labellings", [
    {"w": 5},
    [1],
    {"w": {"arity": True}},
    {"w": {"arity": 1, "entries": [7]}},
    {"w": {"arity": 1, "entries": 5}},
    {"w": {"arity": 1, "entries": [[["a"], 1]]}},
    {"w": {"arity": 1, "default": [1]}},
    {"w": {"arity": 1, "entries": [["a", "x"]]}},
], ids=["spec", "labellings", "arity", "entry", "entries", "node",
        "default", "value"])
def test_malformed_labelling_is_load_error(labellings):
    with pytest.raises(GraphLoadError) as err:
        graph_from_dict({"nodes": ["a"], "labellings": labellings})
    assert type(err.value) is GraphLoadError

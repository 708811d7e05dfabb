import ast
import random
from pathlib import Path

import pytest

import opra.oracle
from opra.errors import EnumerationCapExceededError, ValidationError
from opra.extint import NEG_INF, POS_INF
from opra.oracle import (
    OracleConfig, brute_extremum, enumerate_answers, enumerate_satisfying,
)
from opra.parser import parse
from opra.validate import validate

from gensupport import rand_instance

ROUTE_ST = """
def route(p) = <E(@1, @1') = 1>* <T>
MATCH NODES (s, t), PATHS (pi)
SUCH THAT s -pi-> t
WHERE route(pi)
"""


def test_route_answers_contain_stp(fig2, node):
    vq = validate(parse(ROUTE_ST), fig2)
    answers = enumerate_answers(fig2, vq, OracleConfig(max_path_len=3))
    stp = tuple(node(n) for n in "STP")
    assert ((node("S"), node("P")), (stp,)) in answers


def test_query_text_answers_as_its_validated_query(fig2):
    # the oracle takes query text as the engine does
    cfg = OracleConfig(max_path_len=4)
    vq = validate(parse(ROUTE_ST), fig2)
    assert enumerate_answers(fig2, ROUTE_ST, cfg) \
        == enumerate_answers(fig2, vq, cfg)
    target = ("time", ("pi",))
    assert brute_extremum(fig2, ROUTE_ST, target, "min", cfg) \
        == brute_extremum(fig2, vq, target, "min", cfg)


def test_unsatisfiable_query_is_empty(fig2):
    text = "MATCH PATHS (p) WHERE <1 = 0>(p)"
    vq = validate(parse(text), fig2)
    assert enumerate_answers(fig2, vq, OracleConfig(max_path_len=3)) == set()


def test_unconstrained_node_variable_is_all_nodes(fig2):
    vq = validate(parse("MATCH NODES (x)"), fig2)
    answers = enumerate_answers(fig2, vq, OracleConfig(max_path_len=2))
    assert answers == {((v,), ()) for v in fig2.real_nodes}


def test_monotone_in_path_length(fig2):
    vq = validate(parse(ROUTE_ST), fig2)
    previous = set()
    for bound in (1, 2, 3, 4, 5):
        answers = enumerate_answers(fig2, vq, OracleConfig(max_path_len=bound))
        assert previous <= answers
        previous = answers


def test_brute_extremum_min_time(fig2):
    text = ('def route(p) = <E(@1, @1\') = 1>* <T>\n'
            'MATCH PATHS (pi) SUCH THAT "S" -pi-> "P" WHERE route(pi)')
    vq = validate(parse(text), fig2)
    assert brute_extremum(fig2, vq, ("time", ("pi",)), "min",
                          OracleConfig(max_path_len=8)) == 80
    # the bounded view of the unbounded maximum
    assert brute_extremum(fig2, vq, ("attr", ("pi",)), "max",
                          OracleConfig(max_path_len=8)) == 148


def test_brute_extremum_empty_conventions(fig2):
    text = 'MATCH PATHS (pi) SUCH THAT "S" -pi-> "P" WHERE <1 = 0>(pi)'
    vq = validate(parse(text), fig2)
    cfg = OracleConfig(max_path_len=4)
    assert brute_extremum(fig2, vq, ("time", ("pi",)), "min", cfg) == POS_INF
    assert brute_extremum(fig2, vq, ("time", ("pi",)), "max", cfg) == NEG_INF


def test_enumeration_cap(fig2):
    vq = validate(parse(ROUTE_ST), fig2)
    with pytest.raises(EnumerationCapExceededError):
        enumerate_answers(fig2, vq, OracleConfig(max_path_len=8, max_paths=10))


@pytest.mark.parametrize("limits", [
    {"max_path_len": -1}, {"max_path_len": 2.0}, {"max_path_len": True},
    {"max_paths": 0}, {"max_paths": "10"}, {"max_paths": False},
])
def test_invalid_limits_raise_validation_error(limits):
    with pytest.raises(ValidationError, match="must be an int >= "):
        OracleConfig(**limits)
    assert OracleConfig(max_path_len=0, max_paths=1).max_path_len == 0


def test_bound_paths_and_nodes(fig2, node):
    vq = validate(parse(ROUTE_ST), fig2)
    stp = tuple(node(n) for n in "STP")
    hits = list(enumerate_satisfying(
        fig2, vq.query.query, OracleConfig(max_path_len=4),
        bound_nodes={"s": node("S"), "t": node("P")},
        bound_paths={"pi": stp},
    ))
    assert len(hits) == 1
    env, paths = hits[0]
    assert paths["pi"] == stp and env["s"] == node("S")
    # a bound path that is not a route yields nothing
    assert not list(enumerate_satisfying(
        fig2, vq.query.query, OracleConfig(max_path_len=4),
        bound_paths={"pi": (node("S"), node("P"))},
    ))


def test_generator_instances_within_cap():
    rng = random.Random(1234)
    for _ in range(10):
        g, q = rand_instance(rng, max_len=6, joint_budget=20_000)
        vq = validate(q, g)
        enumerate_answers(g, vq, OracleConfig(max_path_len=6,
                                              max_paths=2_000_000))


def test_oracle_imports_no_engine_module():
    # the oracle is the independent side of every differential test: no
    # import of it, at module level or inside a function, may reach the
    # product engine
    pkg = Path(opra.oracle.__file__).parent
    reached, todo = set(), ["oracle"]
    while todo:
        mod = todo.pop()
        if mod in reached:
            continue
        reached.add(mod)
        tree = ast.parse((pkg / f"{mod}.py").read_text(encoding="utf-8"))
        for stmt in ast.walk(tree):
            if isinstance(stmt, ast.ImportFrom) and stmt.level == 1:
                if stmt.module:
                    todo.append(stmt.module.split(".")[0])
                else:
                    todo.extend(alias.name for alias in stmt.names)
    assert "graph" in reached  # the walk does follow imports
    assert not reached & {"answer_graph", "solver", "ontology", "engine"}

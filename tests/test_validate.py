import re
from dataclasses import replace

import pytest

from opra.corpus import QUERY_NAMES, query_text
from opra.engine import engine_answers
from opra.errors import (
    ArityMismatchError, DuplicateLabellingNameError,
    ForwardOntologyReferenceError, PositionVarOutOfRangeError,
    PositionVarOutsideRegexError, UnknownLabellingError, UnknownNodeError,
    UnknownVariableError, ValidationError,
)
from opra.oracle import OracleConfig, enumerate_answers
from opra.parser import parse
from opra.query import AggTerm, ApplyTerm, ConstAtom, ConstTerm
from opra.validate import validate

from gensupport import INVALID_QUERIES


def v(text, g):
    return validate(parse(text), g)


def test_corpus_queries_validate(fig2):
    for name in QUERY_NAMES:
        assert v(query_text(name), fig2) is not None


def test_validate_idempotent(fig2):
    vq = v(query_text("q_route"), fig2)
    assert validate(vq, fig2) is vq


def test_unknown_labelling(fig2):
    with pytest.raises(UnknownLabellingError):
        v("MATCH PATHS (p) HAVING speed[p] <= 3", fig2)
    with pytest.raises(UnknownLabellingError):
        v("MATCH PATHS (p) WHERE <speed(@1) = 1>(p)", fig2)


def test_position_var_out_of_range(fig2):
    with pytest.raises(PositionVarOutOfRangeError):
        v("MATCH PATHS (p) WHERE <time(@2) <= 3>(p)", fig2)


def test_position_var_outside_regex(fig2):
    with pytest.raises(PositionVarOutsideRegexError):
        v("MATCH PATHS (p) SUCH THAT @1 -p-> t", fig2)
    with pytest.raises(PositionVarOutsideRegexError):
        v("LET f(x) := time(@1) IN MATCH NODES (s)", fig2)


def test_arity_mismatch(fig2):
    with pytest.raises(ArityMismatchError):
        v("MATCH PATHS (p) WHERE <E(@1) = 1>(p)", fig2)
    with pytest.raises(ArityMismatchError):
        v("MATCH PATHS (p, q) HAVING E[p] <= 3", fig2)
    with pytest.raises(ArityMismatchError):
        v("LET f(x) := time(x, x) IN MATCH NODES (s)", fig2)


def test_forward_and_self_reference(fig2):
    ok = ("LET one(x) := time(x), two(x) := one(x) + 1 "
          "IN MATCH NODES (s)")
    assert v(ok, fig2)
    reversed_ = ("LET two(x) := one(x) + 1, one(x) := time(x) "
                 "IN MATCH NODES (s)")
    with pytest.raises(ForwardOntologyReferenceError):
        v(reversed_, fig2)
    with pytest.raises(ForwardOntologyReferenceError):
        v("LET f(x) := f(x) IN MATCH NODES (s)", fig2)


def test_name_collision_with_graph(fig2):
    with pytest.raises(DuplicateLabellingNameError):
        v("LET time(x) := 1 IN MATCH NODES (s)", fig2)


def test_unknown_node_literal(fig2):
    with pytest.raises(UnknownNodeError):
        v('MATCH PATHS (p) SUCH THAT "Z" -p-> "S"', fig2)


def test_unknown_term_variable(fig2):
    with pytest.raises(UnknownVariableError):
        v("LET f(x) := time(y) IN MATCH NODES (s)", fig2)


def test_variable_kind_conflict(fig2):
    with pytest.raises(ValidationError):
        v("MATCH NODES (s) SUCH THAT s -s-> s", fig2)


def test_collector_must_be_fresh(fig2):
    with pytest.raises(ValidationError):
        v("LET f(x) := agg Count x { 1 : E(x, x) } IN MATCH NODES (s)", fig2)


def test_indicator_rejects_free_paths(fig2):
    text = ("LET f(x) := [ MATCH NODES (x), PATHS (p) SUCH THAT x -p-> x ] "
            "IN MATCH NODES (s)")
    with pytest.raises(ValidationError):
        v(text, fig2)


def test_extremum_path_var_shape(fig2):
    bad = ("LET f(x) := min[time, p]{ MATCH NODES (x), PATHS (q) "
           "SUCH THAT x -q-> x } IN MATCH NODES (s)")
    with pytest.raises(ValidationError):
        v(bad, fig2)


def test_extremum_mode_must_be_min_or_max(fig2):
    q = parse("LET f(x) := min[time, p]{ MATCH NODES (x), PATHS (p) "
              "SUCH THAT x -p-> x } IN MATCH NODES (s)")
    validate(q, fig2)
    entry = q.ontology[0]
    mean = replace(entry, term=replace(entry.term, mode="mean"))
    with pytest.raises(ValidationError, match="unknown path extremum 'mean'"):
        validate(replace(q, ontology=(mean,)), fig2)


@pytest.mark.parametrize("text, error", INVALID_QUERIES)
def test_invalid_query_raises_its_error(fig2, text, error):
    with pytest.raises(ValidationError) as err:
        v(text, fig2)
    assert type(err.value) is error


def test_path_variable_only_in_having(fig2):
    # zz is an existential path that only HAVING names: any one-node path
    text = ("def route(p) = <E(@1, @1') = 1>* <T>\n"
            'MATCH NODES (s) SUCH THAT "S" -pi-> s WHERE route(pi) '
            "HAVING time[zz] <= 3")
    vq = v(text, fig2)
    got = engine_answers(fig2, vq, max_len=3)
    assert got == enumerate_answers(fig2, vq, OracleConfig(max_path_len=3))
    assert len(got) == 4


def _with_letter(q, **fields):
    """q with its first regular constraint's one letter changed."""
    rc = q.query.regular_constraints[0]
    letter = replace(rc.regex, constraint=replace(rc.regex.constraint,
                                                  **fields))
    return replace(q, query=replace(
        q.query, regular_constraints=(replace(rc, regex=letter),)))


def test_letter_comparison_outside_le_lt_eq_is_rejected(fig2):
    # the parser turns '>' round to '<'; a hand-built '>' would reach
    # the letter's evaluation and fail there untyped
    q = parse("MATCH PATHS (p) WHERE <time(@1) <= 3>(p)")
    with pytest.raises(ValidationError, match="letter comparison '>'"):
        validate(_with_letter(q, op=">"), fig2)


def _float_const(q):
    term = q.ontology[0].term
    return replace(q, ontology=(replace(q.ontology[0], term=replace(
        term, args=(ConstTerm(2.5),) + term.args[1:])),))


def _float_atom(q):
    return _with_letter(q, rhs=ConstAtom(2.5))


def _float_coeff(q):
    ac = q.query.arith_constraints[0]
    return replace(q, query=replace(q.query, arith_constraints=(replace(
        ac, terms=(replace(ac.terms[0], coeff=2.5),)),)))


def _float_bound(q):
    ac = q.query.arith_constraints[0]
    return replace(q, query=replace(q.query, arith_constraints=(
        replace(ac, bound=2.5),)))


@pytest.mark.parametrize("text, build, what", [
    # a float reads as an infinity: 2.5 + time(W) would be 2.5
    ("LET f(x) := 2 + time(x) IN MATCH NODES (s)", _float_const,
     "a term constant"),
    ("MATCH PATHS (p) WHERE <time(@1) <= 3>(p)", _float_atom,
     "a letter constant"),
    ("MATCH PATHS (p) HAVING 2 * time[p] <= 3", _float_coeff,
     "a HAVING coefficient"),
    ("MATCH PATHS (p) HAVING time[p] <= 3", _float_bound, "a HAVING bound"),
], ids=["term", "letter", "coefficient", "bound"])
def test_float_constant_is_rejected(fig2, text, build, what):
    with pytest.raises(ValidationError,
                       match=f"{what} must be an int, not 2.5"):
        validate(build(parse(text)), fig2)


@pytest.mark.parametrize("term, message", [
    (ApplyTerm("avg", (ConstTerm(1),)), "unknown function 'avg'"),
    (AggTerm("+", "z", ConstTerm(1), ConstTerm(1)),
     "'+' is not an aggregate function"),
], ids=["apply", "aggregate"])
def test_hand_built_function_outside_its_kind_is_rejected(fig2, term,
                                                          message):
    q = parse("LET f(x) := 1 IN MATCH NODES (s)")
    q = replace(q, ontology=(replace(q.ontology[0], term=term),))
    with pytest.raises(ValidationError, match=re.escape(message)):
        validate(q, fig2)

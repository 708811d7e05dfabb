import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opra.automata import compile_regex
from opra.corpus import QUERY_NAMES, query_text
from opra.errors import QuerySyntaxError, RecursionDepthExceededError
from opra.graph import SINK
from opra.ontology import eval_term, extend
from opra.oracle import (
    OracleConfig, OracleView, enumerate_answers, oracle_eval_term,
    regex_matches,
)
from opra.parser import MAX_TREE_DEPTH, parse
from opra.query import (
    AggTerm, ApplyTerm, ArithConstraint, ArithTerm, Concat, ConstAtom,
    ConstTerm, Epsilon, IndicatorTerm, LabelAtom, LabelTerm, Letter,
    NodeConstraint, NodeRef, OntologyEntry, OpraQuery, PathConstraint,
    PathExtremumTerm, PosVar, PraQuery, RegularConstraint, Star,
    TRUE_CONSTRAINT, Union_, VarEqTerm, star, to_text,
)
from opra.validate import validate

from gensupport import CHAIN_SHAPES, chain_query, load_perfbench

ROUTE = """
def route(p) = <E(@1, @1') = 1>* <T>
MATCH NODES (s, t), PATHS (pi)
SUCH THAT s -pi-> t
WHERE route(pi)
"""


def test_route_query_structure():
    q = parse(ROUTE)
    assert q.ontology == ()
    pra = q.query
    assert pra.match_nodes == ("s", "t")
    assert pra.match_paths == ("pi",)
    assert pra.path_constraints == (
        PathConstraint(NodeRef("s"), "pi", NodeRef("t")),
    )
    (rc,) = pra.regular_constraints
    assert rc.path_vars == ("pi",)
    assert isinstance(rc.regex, Concat)
    assert isinstance(rc.regex.left, Star)
    assert rc.regex.right == Letter(TRUE_CONSTRAINT)
    assert pra.arith_constraints == ()


def test_minimal_query():
    q = parse("MATCH NODES (s) SUCH THAT s -p-> s")
    assert q.query.match_nodes == ("s",)
    assert q.query.regular_constraints == ()


def test_syntax_error_position():
    with pytest.raises(QuerySyntaxError) as err:
        parse("MATCH NODES (s,")
    assert err.value.line == 1
    assert err.value.column >= 15


def test_empty_query_is_error():
    with pytest.raises(QuerySyntaxError):
        parse("   # nothing here\n")


def test_comparison_sugar_in_letters():
    q = parse("MATCH PATHS (p) WHERE <attr(@1) > 100>(p)")
    (rc,) = q.query.regular_constraints
    assert rc.regex == Letter(
        NodeConstraint(ConstAtom(100), "<", LabelAtom("attr", (PosVar(1),)))
    )
    q = parse("MATCH PATHS (p) WHERE <attr(@1) != 0>(p)")
    (rc,) = q.query.regular_constraints
    assert isinstance(rc.regex, Union_)


def test_having_normalization():
    q = parse(
        "MATCH PATHS (p) HAVING time[p] <= 360 AND attr[p] > 100"
    )
    a, b = q.query.arith_constraints
    assert a == ArithConstraint((ArithTerm(1, "time", ("p",)),), 360)
    assert b == ArithConstraint((ArithTerm(-1, "attr", ("p",)),), -101)


def test_having_equality_splits():
    q = parse("MATCH PATHS (p) HAVING attr[p] = 4")
    le, ge = q.query.arith_constraints
    assert le == ArithConstraint((ArithTerm(1, "attr", ("p",)),), 4)
    assert ge == ArithConstraint((ArithTerm(-1, "attr", ("p",)),), -4)


def test_having_linear_combination():
    q = parse("MATCH PATHS (p) HAVING attr[p] - 4 * time[p] >= 0")
    (ac,) = q.query.arith_constraints
    assert ac == ArithConstraint(
        (ArithTerm(-1, "attr", ("p",)), ArithTerm(4, "time", ("p",))), 0
    )


def test_having_term_desugars_to_auxiliary_labelling():
    q = parse(
        "MATCH NODES (s, t) SUCH THAT s -p-> t "
        "WHERE <E(@1, @1') = 1>* <T>(p) "
        "HAVING time[p] = min[time, r]{ MATCH NODES (s, t), PATHS (r) "
        "SUCH THAT s -r-> t WHERE <E(@1, @1') = 1>* <T>(r) }"
    )
    assert len(q.ontology) == 1
    entry = q.ontology[0]
    assert entry.params == ("s", "t")
    assert isinstance(entry.term, PathExtremumTerm)
    assert entry.term.mode == "min"
    # the auxiliary labelling is aggregated over fresh length-1 paths
    (ac1, ac2) = q.query.arith_constraints
    aux_terms = {t.labelling for t in ac1.terms} - {"time"}
    assert aux_terms == {entry.name}
    pinned = [pc for pc in q.query.path_constraints
              if pc.path_var.startswith("_len1_")]
    assert {(pc.source.name, pc.target.name) for pc in pinned} == \
        {("s", "s"), ("t", "t")}


def test_term_connective_desugaring():
    q = parse(
        "LET f(x, y) := E(x, y) && (agg Count z { attr(z) : E(x, z) } = 1) "
        "IN MATCH NODES (s)"
    )
    term = q.ontology[0].term
    assert isinstance(term, ApplyTerm) and term.func == "*"
    lhs, rhs = term.args
    assert lhs == LabelTerm("E", ("x", "y"))
    assert isinstance(rhs, ApplyTerm) and rhs.func == "*"  # = is two <=


def test_var_eq_and_implication():
    q = parse("LET r(x, y) := (x = y) => (attr(x) <= 3) IN MATCH NODES (s)")
    term = q.ontology[0].term
    assert isinstance(term, ApplyTerm) and term.func == "Max"
    neg, then = term.args
    assert neg == ApplyTerm("-", (ConstTerm(1), VarEqTerm("x", "y")))


def test_node_literals():
    q = parse('MATCH PATHS (p) SUCH THAT "S" -p-> "P"')
    (pc,) = q.query.path_constraints
    assert pc.source == NodeRef("S", literal=True)
    assert pc.target == NodeRef("P", literal=True)


def test_macro_arity_mismatch():
    with pytest.raises(QuerySyntaxError):
        parse("def r(p) = <T>\nMATCH PATHS (p, q) WHERE r(p, q)")


def test_bare_variable_as_value_rejected():
    with pytest.raises(QuerySyntaxError):
        parse("LET f(x) := x + 1 IN MATCH NODES (s)")


def test_corpus_queries_parse():
    for name in QUERY_NAMES:
        q = parse(query_text(name))
        assert isinstance(q, OpraQuery)


ROUTE_TAIL = "def r(p) = <T>\nMATCH PATHS (pi)\nSUCH THAT s -pi-> t\n"


@pytest.mark.parametrize("text, message", [
    # lexer errors
    ("MATCH PATHS (p) WHERE <w(@) = 1>(p)", "1:26: expected digits after '@'"),
    ('MATCH NODES (s) SUCH THAT "abc -p-> s',
     "1:27: unterminated string literal"),
    ('MATCH NODES (s) SUCH THAT "ab\nc" -p-> s',
     "1:27: unterminated string literal"),
    ("MATCH NODES (s) SUCH THAT s -p-> s $", "1:36: unexpected character '$'"),
    ("MATCH NODES (s) SUCH THAT s\t-p-> s & t",
     "1:36: unexpected character '&'"),
    ("MATCH PATHS (p) HAVING w[p] <= ½", "1:32: unexpected character '½'"),
    ("MATCH PATHS (p) HAVING w[p] <= ²", "1:32: unexpected character '²'"),
    # parser errors; the position is that of the next token
    ("LET f(x) := x IN MATCH NODES (s) SUCH THAT s -p-> s",
     "1:15: node variable 'x' used as a value"),
    ("LET f(x) := x + 1 IN MATCH NODES (s)",
     "1:19: node variable 'x' used as a value"),
    ("LET f(x) := 1 + x IN MATCH NODES (s)",
     "1:19: node variable 'x' used as a value"),
    ("LET f(x, y) := x = 1 IN MATCH NODES (s)",
     "1:22: node variable 'x' can only be compared with another variable"),
    ("LET f(x) := IN MATCH NODES (s) SUCH THAT s -p-> s",
     "1:13: expected a term"),
    ("def r(p) = <T>\ndef r(p) = <T>\nMATCH PATHS (p) WHERE r(p)",
     "2:6: macro 'r' defined twice"),
    (ROUTE_TAIL + "WHERE <T>(pi) AND <T><T>(pi) extra",
     "4:30: trailing input after query"),
    ("def r(p) = <T>\nMATCH PATHS (pi)\nWHERE <T>(pi) AND <T><T>(pi) extra",
     "3:30: trailing input after query"),
    ("MATCH PATHS (p) WHERE q(p)", "1:23: unknown regex macro 'q'"),
    ("MATCH PATHS (p) WHERE <E(@1, 2) = 1>(p)",
     "1:30: expected a position variable (@i or @i')"),
    ("MATCH PATHS (p) WHERE <w(@1) ~ 1>(p)", "1:30: unexpected character '~'"),
    ("MATCH PATHS (p) WHERE <w(@1) 1>(p)",
     "1:30: expected a comparison operator"),
    ("MATCH PATHS (p) HAVING 2 * 3 <= 1",
     "1:30: expected an aggregate or term after '*'"),
    ("MATCH PATHS (p) HAVING w[] <= 1",
     "1:26: aggregate needs at least one path variable"),
    ("MATCH PATHS (p) HAVING time[p] 3",
     "1:32: expected a comparison in HAVING"),
    ("MATCH PATHS (p) WHERE <T>()",
     "1:28: regular constraint needs at least one path variable"),
    ("MATCH PATHS (p) WHERE <time(@1) <= -x>(p)",
     "1:37: expected an integer after '-'"),
    ("MATCH PATHS (p) WHERE <T> + (p)",
     "1:30: expected a node constraint, '(', or 'eps'"),
    ("MATCH PATHS (p) WHERE <@1 <= 3>(p)",
     "1:24: expected an integer or a labelling application"),
    ("LET f(x) := agg f z { 1 : 1 } IN MATCH NODES (s)",
     "1:19: 'f' is not an aggregate function"),
    # a position variable is no node variable, and no value either
    ("LET f(x) := @1 + 1 IN MATCH NODES (s)",
     "1:20: node variable '@1' used as a value"),
    ("MATCH NODES (s) SUCH THAT s -p-> s AND", "1:39: expected node variable"),
    ("MATCH NODES (s,", "1:16: expected identifier"),
    # the column does not advance over a comment
    ("MATCH NODES (s, # c", "1:17: expected identifier"),
    ("MATCH NODES (s,\n# c", "2:1: expected identifier"),
    ("   # nothing\n", "2:1: empty query"),
    ("  # nothing", "1:3: empty query"),
])
def test_syntax_error_messages(text, message):
    with pytest.raises(QuerySyntaxError) as err:
        parse(text)
    assert str(err.value) == message


FRAGMENTS = (
    "def", "r(p)", "=", "<T>", "<E(@1, @1') = 1>", "*", "+", ".", "eps",
    "LET", "f(x)", ":=", "IN", "MATCH", "NODES", "PATHS", "(s, t)", "(pi)",
    "SUCH", "THAT", "s -pi-> t", "WHERE", "HAVING", "AND", "time[pi]",
    "<=", ">=", "!=", "<", ">", "&&", "||", "=>", "!", "-", "10", "@2'",
    '"S"', "min[time, pi]", "{", "}", "[", "]", "(", ")", ",", ":", "agg",
    "Max", "x", "²", "٣", "$", "é", "\t", "#", " ", "\n", '"', "@",
)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(FRAGMENTS), max_size=30).map("".join))
def test_parse_raises_only_syntax_errors(text):
    try:
        assert isinstance(parse(text), OpraQuery)
    except QuerySyntaxError:
        pass


def test_unicode_digits():
    having = "MATCH PATHS (p) WHERE <T>(p) HAVING w[p] <= "
    assert parse(having + "٣") == parse(having + "3")
    with pytest.raises(QuerySyntaxError) as err:
        parse(having + "²")
    assert str(err.value) == "1:45: unexpected character '²'"


# -- round-trip property ----------------------------------------------------------

IDENTS = st.sampled_from(["a", "b", "xs", "p0", "p1", "q2", "lab", "foo"])
LABELS = st.sampled_from(["E", "time", "attr", "w0", "w1"])
AGG_FUNCS = st.sampled_from(["Max", "Min", "Count", "Sum"])
BIN_FUNCS = st.sampled_from(["+", "-", "*", "<="])

pos_vars = st.builds(PosVar, st.integers(1, 3), st.booleans())
atoms = st.one_of(
    st.builds(ConstAtom, st.integers(-20, 20)),
    st.builds(LabelAtom, LABELS,
              st.lists(pos_vars, min_size=1, max_size=2).map(tuple)),
)
constraints = st.builds(NodeConstraint, atoms,
                        st.sampled_from(["<=", "<", "="]), atoms)

regexes = st.recursive(
    st.one_of(st.just(Epsilon()), st.builds(Letter, constraints)),
    lambda children: st.one_of(
        st.builds(Concat, children, children),
        st.builds(Union_, children, children),
        children.map(star),
    ),
    max_leaves=8,
)

node_refs = st.one_of(
    st.builds(NodeRef, IDENTS, st.just(False)),
    st.builds(NodeRef, st.sampled_from(["S", "P", "n0"]), st.just(True)),
)

path_constraints = st.builds(PathConstraint, node_refs, IDENTS, node_refs)
regular_constraints = st.builds(
    RegularConstraint, regexes,
    st.lists(IDENTS, min_size=1, max_size=2, unique=True).map(tuple),
)


@st.composite
def arith_constraints(draw):
    n = draw(st.integers(0, 2))
    seen = set()
    terms = []
    for _ in range(n):
        lab = draw(LABELS)
        vars_ = tuple(draw(st.lists(IDENTS, min_size=1, max_size=2,
                                    unique=True)))
        if (lab, vars_) in seen:
            continue
        seen.add((lab, vars_))
        terms.append(ArithTerm(draw(st.sampled_from([-3, -1, 1, 2])),
                               lab, vars_))
    return ArithConstraint(tuple(terms), draw(st.integers(-30, 30)))


pra_queries = st.builds(
    PraQuery,
    st.lists(IDENTS, max_size=2, unique=True).map(tuple),
    st.lists(st.sampled_from(["pp", "qq"]), max_size=1, unique=True).map(tuple),
    st.lists(path_constraints, max_size=2).map(tuple),
    st.lists(regular_constraints, max_size=2).map(tuple),
    st.lists(arith_constraints(), max_size=2).map(tuple),
)

inner_queries = st.builds(
    PraQuery,
    st.lists(IDENTS, max_size=2, unique=True).map(tuple),
    st.just(()),
    st.lists(path_constraints, max_size=1).map(tuple),
    st.lists(regular_constraints, max_size=1).map(tuple),
    st.just(()),
)


def _min_max_queries(pv):
    return st.builds(
        PraQuery,
        st.lists(IDENTS, max_size=1, unique=True).map(tuple),
        st.just((pv,)),
        st.just(()),
        st.lists(regular_constraints, max_size=1).map(tuple),
        st.just(()),
    )


terms = st.recursive(
    st.one_of(
        st.builds(ConstTerm, st.integers(-9, 9)),
        st.builds(LabelTerm, LABELS,
                  st.lists(IDENTS, min_size=1, max_size=2).map(tuple)),
        st.builds(VarEqTerm, IDENTS, IDENTS),
        st.builds(IndicatorTerm, inner_queries),
        st.builds(PathExtremumTerm, st.sampled_from(["min", "max"]), LABELS,
                  st.just("rr"), _min_max_queries("rr")),
    ),
    lambda children: st.one_of(
        st.builds(lambda f, a, b: ApplyTerm(f, (a, b)),
                  BIN_FUNCS, children, children),
        st.builds(lambda f, args: ApplyTerm(f, tuple(args)),
                  AGG_FUNCS, st.lists(children, max_size=3)),
        st.builds(AggTerm, AGG_FUNCS, st.just("zz"), children, children),
    ),
    max_leaves=6,
)

entries = st.builds(
    OntologyEntry, st.sampled_from(["f1", "f2", "g3"]),
    st.lists(IDENTS, min_size=1, max_size=2, unique=True).map(tuple),
    terms,
)


@st.composite
def opra_queries(draw):
    ents = draw(st.lists(entries, max_size=2))
    names = [e.name for e in ents]
    if len(set(names)) != len(names):
        ents = ents[:1]
    return OpraQuery(tuple(ents), draw(pra_queries))


@settings(max_examples=150, deadline=None)
@given(opra_queries())
def test_parse_print_round_trip(q):
    assert parse(to_text(q)) == q


@pytest.mark.parametrize("term, printed", [
    ("1 - 2 + 3", "(1 - 2 + 3)"),
    ("1 - (2 - 3)", "(1 - (2 - 3))"),
    ("1 * 2 * (3 + 4) - 5", "((1 * 2 * (3 + 4)) - 5)"),
    ("1 && 2 && 3", "(1 * 2 * 3)"),
    ("(1 <= 2) <= 3", "((1 <= 2) <= 3)"),
])
def test_left_operand_of_its_own_level_prints_bare(term, printed):
    # left-associative chains print flat, so they read back in a loop
    q = parse(f"LET f(x) := {term} IN MATCH NODES (s)")
    assert to_text(q).splitlines()[0] == f"LET f(x) := {printed}"
    assert parse(to_text(q)) == q


@pytest.mark.parametrize("term, printed", [
    ("1 || 2", "Max(1, 2)"),
    ("1 || 2 || 3", "(1 || 2 || 3)"),
    ("1 => 2", "Max((1 - 1), 2)"),
    ("1 => 2 => 3", "(1 => 2 => 3)"),
    ("!time(x)", "(1 - time(x))"),
    ("!!time(x)", "!!time(x)"),
    ("!-time(x)", "!-time(x)"),
    ("-(-(5))", "--(5)"),
    ("-(-(-5))", "--(-5)"),
])
def test_chain_prints_as_the_parser_reads_it(term, printed):
    # a link prints as an operator only where its operand continues the
    # chain, and a constant after a prefix keeps its parentheses
    q = parse(f"LET f(x) := {term} IN MATCH NODES (s)")
    assert to_text(q).splitlines()[0] == f"LET f(x) := {printed}"
    assert parse(to_text(q)) == q


@pytest.mark.parametrize("chain, n", [
    (lambda n: " || ".join(["time(x)"] * n), MAX_TREE_DEPTH),
    (lambda n: " => ".join(["time(x)"] * n), MAX_TREE_DEPTH - 1),
    (lambda n: "!" * n + "time(x)", MAX_TREE_DEPTH - 1),
    (lambda n: "-" * n + "time(x)", MAX_TREE_DEPTH - 1),
    (lambda n: ("!-" * n)[:n] + "time(x)", MAX_TREE_DEPTH - 1),
], ids=["or", "implies", "not", "minus", "mixed"])
def test_longest_accepted_chain_round_trips(chain, n):
    def text(k):
        return f"LET f(x) := {chain(k)} IN MATCH NODES (s)"

    with pytest.raises(QuerySyntaxError, match="query nested too deeply"):
        parse(text(n + 1))
    q = parse(text(n))
    assert parse(to_text(q)) == q


def test_corpus_and_benchmark_queries_round_trip():
    wl = load_perfbench("workloads")
    texts = [query_text(name) for name in QUERY_NAMES] + [
        wl.FIXED_QUERY.format(s=0, t=1, bound=wl.FIXED_BOUND),
        wl.FREE_QUERY.format(bound=wl.FREE_BOUND),
        wl.RUN_QUERY,
    ] + [wl.rpq_text(regex) for _, regex, _ in wl.RPQ_SHAPES]
    for text in texts:
        q = parse(text)
        assert parse(to_text(q)) == q, text


@settings(max_examples=60, deadline=None)
@given(regexes)
def test_regex_round_trip(r):
    text = f"MATCH PATHS (p) WHERE {_regex_app(r)}"
    q = parse(text)
    assert q.query.regular_constraints[0].regex == r


def _regex_app(r):
    from opra.query import regex_text

    return f"{regex_text(r)} (p)"


@pytest.mark.parametrize("text, at", [
    ("LET f(x) := " + "Max(" * 120 + "1" + ")" * 120 + " IN MATCH NODES (s)",
     "Max"),
    ("MATCH PATHS (p) WHERE " + "(" * 300 + "<T>" + ")" * 300 + "(p)", "("),
], ids=["term", "regex"])
def test_deep_nesting_is_syntax_error(text, at):
    with pytest.raises(QuerySyntaxError) as err:
        parse(text)
    assert str(err.value).endswith(": query nested too deeply")
    assert text[err.value.column - 1:].startswith(at)


@pytest.mark.parametrize("shape", CHAIN_SHAPES)
def test_long_chain_is_syntax_error(shape):
    # loops build these chains, so the parser's own recursion never
    # grows; the tree's depth is what the limit bounds
    text = chain_query(shape, 2000)
    with pytest.raises(QuerySyntaxError) as err:
        parse(text)
    assert str(err.value).endswith(": query nested too deeply")
    # the error points just past the operand that makes the tree too deep
    before = text[:err.value.column - 1]
    operand = "<T>" if shape in ("concat", "union") else "1"
    assert before.count(operand) == MAX_TREE_DEPTH + 1


@pytest.mark.parametrize("build", [
    lambda n: "MATCH PATHS (p) WHERE (" + " ".join(["<T>"] * n) + ")* (p)",
    lambda n: "LET f(x) := " + "!" * n + "1 IN MATCH NODES (s)",
    lambda n: "LET f(x) := " + " => ".join(["1"] * n) + " IN MATCH NODES (s)",
    # the nested query's clauses are read inside the term's chain
    lambda n: "LET f(x) := " + "1 + " * (n - 10)
    + "[MATCH NODES (x) SUCH THAT x -p-> x WHERE <T>(p)]" + " + 1" * 10
    + " IN MATCH NODES (s)",
], ids=["star", "not", "implies", "nested-query"])
def test_depth_limit_counts_every_operator(build):
    # at n = MAX_TREE_DEPTH - 1 each builds a tree exactly at the limit
    parse(build(MAX_TREE_DEPTH - 1))
    with pytest.raises(QuerySyntaxError, match="query nested too deeply"):
        parse(build(MAX_TREE_DEPTH))


@pytest.mark.parametrize("shape", CHAIN_SHAPES)
def test_chain_at_depth_limit_runs_every_stage(fig2, shape):
    q = parse(chain_query(shape, MAX_TREE_DEPTH))
    assert parse(to_text(q)) == q
    if shape in ("concat", "union"):
        regex = q.query.regular_constraints[0].regex
        nfa = compile_regex(regex)
        assert len(nfa.moves) == MAX_TREE_DEPTH + 1
        validate(q, fig2)
        word = [((1,), (SINK,))]  # one path of one node
        assert regex_matches(fig2, regex, word) == (shape == "union")
        answers = enumerate_answers(fig2, q, OracleConfig(max_path_len=2))
        assert bool(answers) == (shape == "union")
        return
    with pytest.raises(RecursionDepthExceededError):
        validate(q, fig2)
    term = q.ontology[0].term
    expected = MAX_TREE_DEPTH if shape == "+" else 1
    assert eval_term(extend(fig2), term, {"x": 1}) == expected
    view = OracleView(fig2, (), OracleConfig())
    assert oracle_eval_term(view, term, {"x": 1}) == expected

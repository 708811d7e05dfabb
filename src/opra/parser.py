"""Lexer and recursive-descent parser for query files.

A query file is UTF-8 text: optional `def` regex macros, an optional
LET ontology, and one MATCH query.

    def route(p) = <E(@1, @1') = 1>* <T>
    LET t_walk(x) := (type(x) = 4) * time(x) IN
    MATCH NODES (s, t)
    SUCH THAT s -pi-> t
    WHERE route(pi)
    HAVING t_walk[pi] <= 10

Lexical rules: a token is an operator, an identifier (a letter or `_`,
then letters, digits and `_`; the reserved ones are keywords), an
integer (a run of decimal digits), a position variable `@i` or `@i'`,
or a double-quoted node name on one line.  Spaces, tabs, carriage
returns and newlines separate tokens, and `#` starts a comment that runs
to the end of the line.

A regex or term may be at most `MAX_TREE_DEPTH` deep, however its
operators build it, and nesting that the recursive descent itself cannot
follow is rejected too; both fail as "query nested too deeply".

The parser reduces all sugar to the core AST in query.py:

  * `>=`, `>`, `!=` in node constraints become the core {<=, <, =}
    (inequality becomes a union of two letters); `<T>` becomes `<0 = 0>`.
  * boolean connectives and comparisons in terms become fundamental-
    function applications over the 0/1 arithmetization.
  * general terms inside HAVING clauses become auxiliary labellings
    applied to fresh length-1 paths, leaving only linear constraints
    behind.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from types import MappingProxyType
from typing import Dict, List, Optional, Tuple

from .errors import QuerySyntaxError
from .query import (
    AGGREGATE_FUNCS, EPSILON, PATH_EXTREMA, TRUE_CONSTRAINT,
    AggTerm, ApplyTerm, ArithConstraint, ArithTerm, ConstAtom, ConstTerm,
    Concat, IndicatorTerm, LabelAtom, LabelTerm, Letter, NodeConstraint,
    NodeRef, OntologyEntry, OpraQuery, PathConstraint, PathExtremumTerm,
    PosVar, PraQuery, Regex, RegularConstraint, Star, star, Term, Union_,
    VarEqTerm, term_free_vars,
)

KEYWORDS = frozenset({
    "LET", "IN", "MATCH", "NODES", "PATHS", "SUCH", "THAT", "WHERE",
    "HAVING", "AND", "def", "min", "max", "agg", "eps",
})

# `\d` is a decimal digit (what int() accepts) and `\w` a character for
# which isalnum() holds, or `_`.  A word that starts with a non-decimal
# digit such as '²' is rejected at that character; `bad` takes every other
# character that starts no token, such as an '@' without digits or an
# unclosed '"'.
_TOKEN = re.compile(r"""
    (?P<nl>\n) | [ \t\r]+ | (?P<comment>\#[^\n]*)
  | (?P<op>:= | -> | <= | >= | != | && | \|\| | => | [()\[\]{}<>,:=*+\-.!])
  | (?P<posvar>@\d+'?) | (?P<string>"[^"\n]*") | (?P<int>\d+) | (?P<word>\w+)
  | (?P<bad>.)
""", re.VERBOSE | re.DOTALL)

# the deepest regex or term tree a query may hold: the printer, validation,
# NFA compilation and both term evaluators recurse a few frames per level,
# so a tree this deep stays well inside Python's default recursion limit
MAX_TREE_DEPTH = 200

_BAD_START = MappingProxyType({"@": "expected digits after '@'",
                               '"': "unterminated string literal"})


@dataclass(frozen=True)
class Token:
    kind: str  # ident, int, string, posvar, op, kw, eof
    value: object
    line: int
    col: int


def tokenize(text: str) -> List[Token]:
    tokens: List[Token] = []
    line, line_start = 1, 0
    m = None
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind is None or kind == "comment":
            continue
        value, col = m.group(), m.start() - line_start + 1
        if kind == "nl":
            line, line_start = line + 1, m.end()
        elif kind == "op":
            tokens.append(Token("op", value, line, col))
        elif kind == "word" and (value[0].isalpha() or value[0] == "_"):
            kind = "kw" if value in KEYWORDS else "ident"
            tokens.append(Token(kind, value, line, col))
        elif kind == "int":
            tokens.append(Token("int", int(value), line, col))
        elif kind == "posvar":
            pv = PosVar(int(value[1:].rstrip("'")), value.endswith("'"))
            tokens.append(Token("posvar", pv, line, col))
        elif kind == "string":
            tokens.append(Token("string", value[1:-1], line, col))
        else:
            message = _BAD_START.get(value[0],
                                     f"unexpected character {value[0]!r}")
            raise QuerySyntaxError(message, line, col)
    # the column does not advance over a comment, so input that ends in
    # one ends at its '#'
    end = m.start() if m is not None and m.lastgroup == "comment" \
        else len(text)
    tokens.append(Token("eof", None, line, end - line_start + 1))
    return tokens


class _VarRef:
    """Parser-internal marker for a bare node-variable reference."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name


# left-associative binary term operators, loosest first, each mapped to
# the fundamental function it applies; the comparisons (None) sit between
# '&&' and '+' and do not associate
_TERM_LEVELS = (
    {"||": "Max"}, {"&&": "*"}, None, {"+": "+", "-": "-"}, {"*": "*"},
)
_ADDITIVE = 3
_TERM_COMPARISONS = ("<=", "<", "=", "!=", ">=", ">")


def _negate(t: Term) -> Term:
    return ApplyTerm("-", (ConstTerm(1), t))


def _subtrees(node) -> tuple:
    """The regexes or terms a regex or term is built from; a nested
    query's trees are bounded on their own."""
    kind = type(node)
    if kind is ApplyTerm:
        return node.args
    if kind is Concat or kind is Union_:
        return (node.left, node.right)
    if kind is Star:
        return (node.body,)
    if kind is AggTerm:
        return (node.value, node.filter)
    return ()


class Parser:
    def __init__(self, text: str):
        self.tokens = tokenize(text)
        self.pos = 0
        self.macros: Dict[str, Tuple[int, Regex]] = {}
        self._aux_n = 0
        # ontology entries in definition order; an auxiliary entry that a
        # HAVING term synthesizes precedes the entry whose term holds it
        self._entries: List[OntologyEntry] = []
        # id -> (tree, depth) of each composite regex or term measured; the
        # tree is kept so that its id names no other object while parsing
        self._depths: Dict[int, Tuple[object, int]] = {}

    # -- token plumbing ---------------------------------------------------

    def peek(self, ahead: int = 0) -> Token:
        if not ahead:  # the position never passes the final eof token
            return self.tokens[self.pos]
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def error(self, msg: str, tok: Optional[Token] = None):
        tok = tok or self.peek()
        raise QuerySyntaxError(msg, tok.line, tok.col)

    def at_op(self, value: str) -> bool:
        t = self.peek()
        return t.kind == "op" and t.value == value

    def at_kw(self, value: str) -> bool:
        t = self.peek()
        return t.kind == "kw" and t.value == value

    def accept(self, value: str) -> bool:
        """Consume the next token if it is this operator or keyword."""
        t = self.peek()
        if t.value == value and t.kind in ("op", "kw"):
            self.pos += 1
            return True
        return False

    def _ahead(self, kind: str, *values) -> bool:
        """Whether the token after the next has this kind and a value
        among `values`."""
        t = self.peek(1)
        return t.kind == kind and t.value in values

    def _take_op(self, ops) -> Optional[str]:
        """Consume and return the next token if it is an operator in ops."""
        t = self.peek()
        if t.kind == "op" and t.value in ops:
            self.pos += 1
            return t.value
        return None

    def expect_op(self, value: str) -> Token:
        if not self.at_op(value):
            self.error(f"expected {value!r}")
        return self.next()

    def expect_kw(self, value: str) -> Token:
        if not self.at_kw(value):
            self.error(f"expected keyword {value}")
        return self.next()

    def expect_ident(self, what: str = "identifier") -> str:
        t = self.peek()
        if t.kind != "ident":
            self.error(f"expected {what}")
        return self.next().value

    def sep_list(self, item, separator: str = ","):
        """`item (separator item)*`; the separator is an operator or a
        keyword."""
        items = [item()]
        while self.accept(separator):
            items.append(item())
        return items

    def _bounded(self, tree):
        """`tree`, unless it is deeper than MAX_TREE_DEPTH.  Each
        operator that can nest without starting a new term (the binary
        operators, star, comparisons, `!`, unary `-` and `=>`) passes its
        tree here as it builds it, and so does each whole term, so a tree
        fails where it grows too deep, however it was built."""
        if self._depth(tree) > MAX_TREE_DEPTH:
            self.error("query nested too deeply")
        return tree

    def _depth(self, tree) -> int:
        """Depth of a regex or term; a leaf is 1 deep, and a composite's
        depth is kept, so each is measured once."""
        kept = self._depths.get(id(tree))
        if kept is None:
            parts = _subtrees(tree)
            if not parts:
                return 1
            kept = self._depths[id(tree)] = (
                tree, 1 + max(map(self._depth, parts)))
        return kept[1]

    def enclosed(self, open_: str, item, close: str):
        self.expect_op(open_)
        inner = item()
        self.expect_op(close)
        return inner

    # -- entry point ------------------------------------------------------

    def parse_file(self) -> OpraQuery:
        if self.peek().kind == "eof":
            self.error("empty query")
        while self.at_kw("def"):
            self.parse_def()
        if self.accept("LET"):
            self.sep_list(self.parse_let_entry)
            self.expect_kw("IN")
        query = self.parse_pra()
        if self.peek().kind != "eof":
            self.error("trailing input after query")
        return OpraQuery(tuple(self._entries), query)

    def parse_def(self) -> None:
        self.expect_kw("def")
        name = self.expect_ident("macro name")
        if name in self.macros:
            self.error(f"macro {name!r} defined twice")
        params = self.enclosed("(", self.parse_ident_list, ")")
        self.expect_op("=")
        self.macros[name] = (len(params), self.parse_regex())

    def parse_let_entry(self) -> None:
        name = self.expect_ident("labelling name")
        params = self.enclosed("(", self.parse_ident_list, ")")
        self.expect_op(":=")
        term = self.parse_term()
        self._entries.append(OntologyEntry(name, tuple(params), term))

    def parse_ident_list(self) -> List[str]:
        """Comma-separated identifiers, possibly none."""
        if self.peek().kind != "ident":
            return []
        return self.sep_list(self.expect_ident)

    # -- PRA queries ------------------------------------------------------

    def parse_pra(self) -> PraQuery:
        self.expect_kw("MATCH")
        free = {"NODES": (), "PATHS": ()}
        if not (self.at_kw("NODES") or self.at_kw("PATHS")):
            self.error("expected NODES or PATHS after MATCH")
        while True:
            kw = self.next().value
            free[kw] = tuple(self.enclosed("(", self.parse_ident_list, ")"))
            if not (self.at_op(",") and self._ahead("kw", "NODES", "PATHS")):
                break
            self.next()

        path_constraints: List[PathConstraint] = []
        regular_constraints: List[RegularConstraint] = []
        arith: List[ArithConstraint] = []
        if self.accept("SUCH"):
            self.expect_kw("THAT")
            path_constraints = self.sep_list(self.parse_path_constraint, "AND")
        if self.accept("WHERE"):
            regular_constraints = self.sep_list(
                self.parse_regular_application, "AND")
        if self.accept("HAVING"):
            for comparison in self.sep_list(
                    lambda: self.parse_having_comparison(
                        path_constraints, regular_constraints), "AND"):
                arith.extend(comparison)
        return PraQuery(
            free["NODES"], free["PATHS"],
            tuple(path_constraints), tuple(regular_constraints), tuple(arith),
        )

    def _parse_node_var(self) -> str:
        # a position variable is kept so that validation can reject it
        # with the dedicated error
        if self.peek().kind == "posvar":
            return self.next().value.text()
        return self.expect_ident("node variable")

    def parse_node_ref(self) -> NodeRef:
        if self.peek().kind == "string":
            return NodeRef(self.next().value, literal=True)
        return NodeRef(self._parse_node_var())

    def parse_path_constraint(self) -> PathConstraint:
        source = self.parse_node_ref()
        self.expect_op("-")
        path_var = self.expect_ident("path variable")
        self.expect_op("->")
        target = self.parse_node_ref()
        return PathConstraint(source, path_var, target)

    # -- regular constraints ----------------------------------------------

    def parse_regular_application(self) -> RegularConstraint:
        t = self.peek()
        if t.kind == "ident" and self._ahead("op", "("):
            name = self.next().value
            if name not in self.macros:
                self.error(f"unknown regex macro {name!r}", t)
            arity, body = self.macros[name]
            args = self.enclosed("(", self.parse_ident_list, ")")
            if len(args) != arity:
                self.error(
                    f"macro {name!r} takes {arity} path(s), got {len(args)}", t
                )
            return RegularConstraint(body, tuple(args))
        regex = self.parse_regex()
        args = self.enclosed("(", self.parse_ident_list, ")")
        if not args:
            self.error("regular constraint needs at least one path variable")
        return RegularConstraint(regex, tuple(args))

    def _starts_regex_primary(self) -> bool:
        if self.at_kw("eps") or self.at_op("<"):
            return True
        # '(' starts a grouped regex only if a regex follows; otherwise
        # it is the path-variable list of an application
        return self.at_op("(") and (
            self._ahead("kw", "eps") or self._ahead("op", "<", "("))

    def parse_regex(self) -> Regex:
        left = self.parse_concat()
        while self.accept("+"):
            left = self._bounded(Union_(left, self.parse_concat()))
        return left

    def parse_concat(self) -> Regex:
        left = self.parse_postfix()
        while self.accept(".") or self._starts_regex_primary():
            left = self._bounded(Concat(left, self.parse_postfix()))
        return left

    def parse_postfix(self) -> Regex:
        r = self.parse_regex_primary()
        while self.accept("*"):
            r = self._bounded(star(r))
        return r

    def parse_regex_primary(self) -> Regex:
        if self.accept("eps"):
            return EPSILON
        if self.accept("("):
            r = self.parse_regex()
            self.expect_op(")")
            return r
        if self.at_op("<"):
            return self.parse_letter()
        self.error("expected a node constraint, '(', or 'eps'")

    def parse_letter(self) -> Regex:
        self.expect_op("<")
        t = self.peek()
        if t.kind == "ident" and t.value == "T" and self._ahead("op", ">"):
            self.pos += 2
            return Letter(TRUE_CONSTRAINT)
        lhs = self.parse_nc_atom()
        op = self._take_op(("<=", "<", "=", ">=", ">", "!="))
        if op is None:
            self.error("expected a comparison operator")
        rhs = self.parse_nc_atom()
        self.expect_op(">")
        if op == ">=":
            lhs, rhs, op = rhs, lhs, "<="
        elif op == ">":
            lhs, rhs, op = rhs, lhs, "<"
        if op == "!=":
            return Union_(
                Letter(NodeConstraint(lhs, "<", rhs)),
                Letter(NodeConstraint(rhs, "<", lhs)),
            )
        return Letter(NodeConstraint(lhs, op, rhs))

    def _expect_posvar(self) -> PosVar:
        if self.peek().kind != "posvar":
            self.error("expected a position variable (@i or @i')")
        return self.next().value

    def parse_nc_atom(self):
        t = self.peek()
        if t.kind == "int":
            return ConstAtom(self.next().value)
        if self.accept("-"):
            if self.peek().kind != "int":
                self.error("expected an integer after '-'")
            return ConstAtom(-self.next().value)
        if t.kind == "ident":
            name = self.next().value
            self.expect_op("(")
            args = self.sep_list(self._expect_posvar)
            self.expect_op(")")
            return LabelAtom(name, tuple(args))
        self.error("expected an integer or a labelling application")

    # -- HAVING clauses -----------------------------------------------------

    def parse_having_comparison(
        self,
        path_constraints: List[PathConstraint],
        regular_constraints: List[RegularConstraint],
    ) -> List[ArithConstraint]:
        lhs = self.parse_having_expr()
        op = self._take_op(("<=", "<", "=", ">=", ">"))
        if op is None:
            self.error("expected a comparison in HAVING")
        rhs = self.parse_having_expr()

        def materialize(side):
            # turn each general term item into an auxiliary labelling
            # applied to length-1 paths pinned to the term's node variables
            items, const = side
            out = []
            for coeff, kind, payload in items:
                if kind == "agg":
                    name, vars_ = payload
                    out.append((coeff, name, vars_))
                else:
                    term = payload
                    out.append(
                        (coeff, *self._auxiliary_for_term(
                            term, path_constraints, regular_constraints))
                    )
            return out, const

        # normalized form: sum(lhs) - sum(rhs) <= rhs_const - lhs_const
        l_items, l_const = materialize(lhs)
        r_items, r_const = materialize(rhs)

        def combine(pos_items, neg_items, bound):
            coeffs: Dict[Tuple[str, Tuple[str, ...]], int] = {}
            for coeff, name, vars_ in pos_items:
                coeffs[(name, vars_)] = coeffs.get((name, vars_), 0) + coeff
            for coeff, name, vars_ in neg_items:
                coeffs[(name, vars_)] = coeffs.get((name, vars_), 0) - coeff
            terms = tuple(
                ArithTerm(c, name, vars_)
                for (name, vars_), c in coeffs.items() if c != 0
            )
            return ArithConstraint(terms, bound)

        out: List[ArithConstraint] = []
        if op in ("<=", "<", "="):
            bound = r_const - l_const - (1 if op == "<" else 0)
            out.append(combine(l_items, r_items, bound))
        if op in (">=", ">", "="):
            bound = l_const - r_const - (1 if op == ">" else 0)
            out.append(combine(r_items, l_items, bound))
        return out

    def parse_having_expr(self):
        """Linear expression: list of (coeff, kind, payload) plus a constant."""
        items: List[tuple] = []
        const = 0
        sign = -1 if self.accept("-") else 1
        while True:
            c, item = self.parse_having_item(sign)
            if item is None:
                const += c
            else:
                items.append(item)
            op = self._take_op(("+", "-"))
            if op is None:
                return items, const
            sign = 1 if op == "+" else -1

    def parse_having_item(self, sign: int):
        t = self.peek()
        if t.kind == "int":
            value = self.next().value
            if not self.accept("*"):
                return sign * value, None
            coeff, item = self.parse_having_item(sign * value)
            if item is None:
                self.error("expected an aggregate or term after '*'")
            return coeff, item
        if t.kind == "ident" and self._ahead("op", "["):
            name = self.next().value
            self.expect_op("[")
            vars_ = self.parse_ident_list()
            if not vars_:
                self.error("aggregate needs at least one path variable")
            self.expect_op("]")
            return 0, (sign, "agg", (name, tuple(vars_)))
        # comparisons bind at the HAVING level, so terms here parse at the
        # additive level; parenthesize to use a full term
        term = self._bounded(self._as_value(self._parse_binary(_ADDITIVE)))
        return 0, (sign, "term", term)

    def _auxiliary_for_term(self, term, path_constraints, regular_constraints):
        """Define `_auxN := term` and aggregate it over fresh length-1 paths."""
        params = term_free_vars(term)
        if not params:
            # variable-free term: give it one unused existential parameter
            params = (f"_any{self._aux_n}",)
        name = f"_aux{self._aux_n}"
        self._aux_n += 1
        self._entries.append(OntologyEntry(name, params, term))
        aux_paths = []
        for v in params:
            pv = f"_len1_{v}"
            aux_paths.append(pv)
            if any(pc.path_var == pv for pc in path_constraints):
                continue
            path_constraints.append(
                PathConstraint(NodeRef(v), pv, NodeRef(v))
            )
            regular_constraints.append(
                RegularConstraint(Letter(TRUE_CONSTRAINT), (pv,))
            )
        return name, tuple(aux_paths)

    # -- terms ---------------------------------------------------------------

    def parse_term(self) -> Term:
        return self._bounded(self._as_value(self._parse_term_impl()))

    def _parse_term_impl(self):
        left = self._parse_binary(0)
        if self.accept("=>"):
            right = self._parse_term_impl()
            left = self._as_value(left)
            return self._bounded(
                ApplyTerm("Max", (_negate(left), self._as_value(right))))
        return left

    def _parse_binary(self, level: int):
        """The operators of `_TERM_LEVELS[level:]`, then a unary term."""
        if level == len(_TERM_LEVELS):
            return self._parse_term_unary()
        left = self._parse_binary(level + 1)
        ops = _TERM_LEVELS[level]
        if ops is None:
            op = self._take_op(_TERM_COMPARISONS)
            if op is None:
                return left
            return self._bounded(
                self._comparison(op, left, self._parse_binary(level + 1)))
        while (op := self._take_op(ops)) is not None:
            right = self._parse_binary(level + 1)
            left = self._bounded(ApplyTerm(ops[op], (
                self._as_value(left), self._as_value(right))))
        return left

    def _comparison(self, op: str, left, right) -> Term:
        if op in ("=", "!="):
            if isinstance(left, _VarRef) and isinstance(right, _VarRef):
                eq: Term = VarEqTerm(left.name, right.name)
            elif isinstance(left, _VarRef) or isinstance(right, _VarRef):
                ref = left if isinstance(left, _VarRef) else right
                self.error(
                    f"node variable {ref.name!r} can only be compared "
                    "with another variable"
                )
            else:
                eq = ApplyTerm("*", (
                    ApplyTerm("<=", (left, right)),
                    ApplyTerm("<=", (right, left)),
                ))
            return _negate(eq) if op == "!=" else eq
        left = self._as_value(left)
        right = self._as_value(right)
        if op == "<=":
            return ApplyTerm("<=", (left, right))
        if op == ">=":
            return ApplyTerm("<=", (right, left))
        if op == "<":
            return _negate(ApplyTerm("<=", (right, left)))
        return _negate(ApplyTerm("<=", (left, right)))

    def _as_value(self, t):
        if isinstance(t, _VarRef):
            self.error(f"node variable {t.name!r} used as a value")
        return t

    def _parse_term_unary(self):
        t = self.peek()
        if self.accept("!"):
            return self._bounded(
                _negate(self._as_value(self._parse_term_unary())))
        if self.accept("-"):
            if self.peek().kind == "int":
                return ConstTerm(-self.next().value)
            body = self._as_value(self._parse_term_unary())
            return self._bounded(ApplyTerm("-", (ConstTerm(0), body)))
        if t.kind == "int":
            return ConstTerm(self.next().value)
        if t.kind == "posvar":
            return _VarRef(self.next().value.text())
        if self.accept("("):
            inner = self._parse_term_impl()
            self.expect_op(")")
            return inner
        if self.at_op("["):
            return IndicatorTerm(self.enclosed("[", self.parse_pra, "]"))
        if t.kind == "kw" and t.value in PATH_EXTREMA:
            mode = self.next().value
            self.expect_op("[")
            labelling = self.expect_ident("labelling name")
            self.expect_op(",")
            path_var = self.expect_ident("path variable")
            self.expect_op("]")
            return PathExtremumTerm(mode, labelling, path_var,
                                    self.enclosed("{", self.parse_pra, "}"))
        if self.accept("agg"):
            func = self.expect_ident("aggregate function")
            if func not in AGGREGATE_FUNCS:
                self.error(f"{func!r} is not an aggregate function")
            collector = self.expect_ident("collector variable")
            self.expect_op("{")
            value = self.parse_term()
            self.expect_op(":")
            filt = self.parse_term()
            self.expect_op("}")
            return AggTerm(func, collector, value, filt)
        if t.kind == "ident":
            name = self.next().value
            if not self.accept("("):
                return _VarRef(name)
            if name in AGGREGATE_FUNCS:
                args = [] if self.at_op(")") else self.sep_list(self.parse_term)
                self.expect_op(")")
                return ApplyTerm(name, tuple(args))
            vars_ = self.sep_list(self._parse_node_var)
            self.expect_op(")")
            return LabelTerm(name, tuple(vars_))
        self.error("expected a term")


def parse(text: str) -> OpraQuery:
    """Parse a query file into the core AST; raises QuerySyntaxError."""
    parser = Parser(text)
    try:
        return parser.parse_file()
    except RecursionError:
        parser.error("query nested too deeply")

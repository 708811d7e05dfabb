"""Query AST and pretty-printer.

The AST is the core (desugared) form: comparison sugar, boolean
connectives and general terms inside HAVING clauses are reduced by the
parser, so everything downstream sees only the constructs below.

The printer emits canonical text that reparses to an equal AST
(parse . print == identity on ASTs).  A chain prints the way the
parser reads it, in a loop or one frame per link, so a term the parser
accepts prints as text it can read back.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple, Union

# -- node constraints (the letter alphabet of regular constraints) -------------

@dataclass(frozen=True)
class PosVar:
    """@i / @i' — the current or next node of the i-th constrained path."""

    index: int
    primed: bool = False

    def text(self) -> str:
        return f"@{self.index}'" if self.primed else f"@{self.index}"


@dataclass(frozen=True)
class ConstAtom:
    value: int

    def text(self) -> str:
        return str(self.value)

    def read(self, source, cur, nxt) -> int:
        return self.value


@dataclass(frozen=True)
class LabelAtom:
    labelling: str
    args: Tuple[PosVar, ...]

    def text(self) -> str:
        return f"{self.labelling}({', '.join(a.text() for a in self.args)})"

    def read(self, source, cur, nxt):  # at the nodes its arguments name
        return source.label_value(self.labelling, tuple([
            nxt[pv.index - 1] if pv.primed else cur[pv.index - 1]
            for pv in self.args
        ]))


Atom = Union[ConstAtom, LabelAtom]


@dataclass(frozen=True)
class NodeConstraint:
    """lhs ~ rhs with ~ in {<=, <, =}; the always-true letter is 0 = 0."""

    lhs: Atom
    op: str
    rhs: Atom

    def text(self) -> str:
        return f"<{self.lhs.text()} {self.op} {self.rhs.text()}>"


TRUE_CONSTRAINT = NodeConstraint(ConstAtom(0), "=", ConstAtom(0))


# -- regular expressions over node constraints ---------------------------------

@dataclass(frozen=True)
class Letter:
    constraint: NodeConstraint


@dataclass(frozen=True)
class Concat:
    left: "Regex"
    right: "Regex"


@dataclass(frozen=True)
class Union_:
    left: "Regex"
    right: "Regex"


@dataclass(frozen=True)
class Star:
    body: "Regex"


@dataclass(frozen=True)
class Epsilon:
    pass


Regex = Union[Letter, Concat, Union_, Star, Epsilon]

EPSILON = Epsilon()


def star(body: Regex) -> Regex:
    """Star with the normalizations: (eps)* = eps, (r*)* = r*."""
    if isinstance(body, Epsilon):
        return EPSILON
    if isinstance(body, Star):
        return body
    return Star(body)


def regex_text(r: Regex) -> str:
    # parenthesization keeps reparsing an exact inverse: the parser is
    # left-associative, so right-nested concats/unions need parens
    if isinstance(r, Epsilon):
        return "eps"
    if isinstance(r, Letter):
        return r.constraint.text()
    if isinstance(r, Star):
        body = regex_text(r.body)
        if isinstance(r.body, (Concat, Union_)):
            body = f"({body})"
        return body + "*"
    if isinstance(r, Concat):
        left = regex_text(r.left)
        if isinstance(r.left, Union_):
            left = f"({left})"
        right = regex_text(r.right)
        if isinstance(r.right, (Union_, Concat)):
            right = f"({right})"
        return f"{left} {right}"
    right = regex_text(r.right)
    if isinstance(r.right, Union_):
        right = f"({right})"
    return f"{regex_text(r.left)} + {right}"


# -- constraints ----------------------------------------------------------------

@dataclass(frozen=True)
class NodeRef:
    """A path-constraint endpoint: a node variable or a quoted node literal."""

    name: str
    literal: bool = False

    def text(self) -> str:
        return f'"{self.name}"' if self.literal else self.name


@dataclass(frozen=True)
class PathConstraint:
    source: NodeRef
    path_var: str
    target: NodeRef

    def text(self) -> str:
        return f"{self.source.text()} -{self.path_var}-> {self.target.text()}"


@dataclass(frozen=True)
class RegularConstraint:
    regex: Regex
    path_vars: Tuple[str, ...]

    def text(self) -> str:
        return f"{regex_text(self.regex)} ({', '.join(self.path_vars)})"


@dataclass(frozen=True)
class ArithTerm:
    coeff: int
    labelling: str
    path_vars: Tuple[str, ...]

    def text(self) -> str:
        atom = f"{self.labelling}[{', '.join(self.path_vars)}]"
        if self.coeff == 1:
            return atom
        if self.coeff == -1:
            return f"-{atom}"
        return f"{self.coeff} * {atom}"


@dataclass(frozen=True)
class ArithConstraint:
    """Normalized linear constraint: sum of coeff * labelling[paths] <= bound."""

    terms: Tuple[ArithTerm, ...]
    bound: int

    def text(self) -> str:
        if not self.terms:
            return f"0 <= {self.bound}"
        parts = [self.terms[0].text()]
        for t in self.terms[1:]:
            if t.coeff < 0:
                flipped = ArithTerm(-t.coeff, t.labelling, t.path_vars)
                parts.append(f"- {flipped.text()}")
            else:
                parts.append(f"+ {t.text()}")
        return f"{' '.join(parts)} <= {self.bound}"


@dataclass(frozen=True)
class PraQuery:
    match_nodes: Tuple[str, ...] = ()
    match_paths: Tuple[str, ...] = ()
    path_constraints: Tuple[PathConstraint, ...] = ()
    regular_constraints: Tuple[RegularConstraint, ...] = ()
    arith_constraints: Tuple[ArithConstraint, ...] = ()

    def text(self, indent: str = "") -> str:
        lines = [
            f"{indent}MATCH NODES ({', '.join(self.match_nodes)}), "
            f"PATHS ({', '.join(self.match_paths)})"
        ]
        if self.path_constraints:
            lines.append(
                f"{indent}SUCH THAT "
                + " AND ".join(c.text() for c in self.path_constraints)
            )
        if self.regular_constraints:
            lines.append(
                f"{indent}WHERE "
                + " AND ".join(c.text() for c in self.regular_constraints)
            )
        if self.arith_constraints:
            lines.append(
                f"{indent}HAVING "
                + " AND ".join(c.text() for c in self.arith_constraints)
            )
        return "\n".join(lines)


# -- terms (the seven core constructors) ----------------------------------------

@dataclass(frozen=True)
class ConstTerm:
    value: int


@dataclass(frozen=True)
class LabelTerm:
    labelling: str
    args: Tuple[str, ...]


@dataclass(frozen=True)
class IndicatorTerm:
    """[Q] — 1 if the query holds with its free node vars bound, else 0."""

    query: PraQuery


@dataclass(frozen=True)
class PathExtremumTerm:
    """mode[L, p]{Q} — the least (mode "min") or greatest (mode "max")
    L-aggregate over the paths p of the answers to Q."""

    mode: str
    labelling: str
    path_var: str
    query: PraQuery


@dataclass(frozen=True)
class VarEqTerm:
    left: str
    right: str


@dataclass(frozen=True)
class ApplyTerm:
    func: str  # Max | Min | Count | Sum | + | - | * | <=
    args: Tuple["Term", ...]


@dataclass(frozen=True)
class AggTerm:
    """agg f x { value(x) : filter(x, ...) } — f over value at every node
    passing the filter (filter truth is the exact value 1)."""

    func: str
    collector: str
    value: "Term"
    filter: "Term"


Term = Union[
    ConstTerm, LabelTerm, IndicatorTerm, PathExtremumTerm, VarEqTerm,
    ApplyTerm, AggTerm,
]

BINARY_FUNCS = ("+", "-", "*", "<=")
AGGREGATE_FUNCS = ("Max", "Min", "Count", "Sum")
PATH_EXTREMA = ("min", "max")


def term_text(t: Term) -> str:
    if isinstance(t, ConstTerm):
        return str(t.value)
    if isinstance(t, LabelTerm):
        return f"{t.labelling}({', '.join(t.args)})"
    if isinstance(t, IndicatorTerm):
        return f"[ {t.query.text()} ]"
    if isinstance(t, PathExtremumTerm):
        return (f"{t.mode}[{t.labelling}, {t.path_var}]"
                f"{{ {t.query.text()} }}")
    if isinstance(t, VarEqTerm):
        return f"({t.left} = {t.right})"
    if isinstance(t, ApplyTerm):
        chain = _chain_text(t)
        if chain is not None:
            return chain
        if t.func in BINARY_FUNCS and len(t.args) == 2:
            return f"({_binary_text(t)})"
        return f"{t.func}({', '.join(term_text(x) for x in t.args)})"
    if isinstance(t, AggTerm):
        return (
            f"agg {t.func} {t.collector} "
            f"{{ {term_text(t.value)} : {term_text(t.filter)} }}"
        )
    raise TypeError(f"not a term: {t!r}")


# the printed binary operators that share a left-associative parser level
_CHAINED = (("+", "-"), ("*",))


def _binary_text(t: ApplyTerm) -> str:
    # the parser's `+ -` and `*` are left-associative, so a left operand at
    # its parent's level needs no parentheses; a long chain then reads back
    # in a loop, not in one nested parenthesis per operand
    left, right = t.args
    if isinstance(left, ApplyTerm) and len(left.args) == 2 and any(
            t.func in ops and left.func in ops for ops in _CHAINED):
        a = _binary_text(left)
    else:
        a = term_text(left)
    return f"{a} {t.func} {term_text(right)}"


def _pair(t: Term, func: str) -> bool:
    return isinstance(t, ApplyTerm) and t.func == func and len(t.args) == 2


def _prefix(t: Term) -> Optional[str]:
    """`!` where t is 1 - x and `-` where t is 0 - x: the prefix that
    reads as t."""
    if _pair(t, "-") and isinstance(t.args[0], ConstTerm) \
            and t.args[0].value in (0, 1):
        return "-!"[t.args[0].value]
    return None


def _implied(t: Term) -> Optional[Term]:
    """a where t is Max(1 - a, b), the tree that `a => b` reads as."""
    if _pair(t, "Max") and _prefix(t.args[0]) == "!":
        return t.args[0].args[1]
    return None


def _chain_text(t: ApplyTerm) -> Optional[str]:
    """t as the chain the parser reads it from, where its operand continues
    the chain: a left-nested two-argument Max as `a || b || c`, a
    right-nested Max(1 - a, ...) as `a => b => c`, and nested 1 - x and
    0 - x as a run of `!` and `-`, such as `!!x` or `-!x`; None
    elsewhere.  The parser reads a chain in a loop or in one frame per
    link, but a call or parenthesis per level in about ten frames."""
    if _pair(t, "Max") and _pair(t.args[0], "Max"):
        operands = []
        while _pair(t, "Max"):
            operands.append(t.args[1])
            t = t.args[0]
        operands.append(t)
        return f"({' || '.join(map(term_text, reversed(operands)))})"
    if _implied(t) is not None and _implied(t.args[1]) is not None:
        operands = []
        while (a := _implied(t)) is not None:
            operands.append(a)
            t = t.args[1]
        operands.append(t)
        return f"({' => '.join(map(term_text, operands))})"
    if _prefix(t) is None or _prefix(t.args[1]) is None:
        return None
    ops = ""
    while (op := _prefix(t)) is not None:
        ops, t = ops + op, t.args[1]
    # `-` before a digit would read as a negative constant
    return ops + (f"({t.value})" if isinstance(t, ConstTerm) else term_text(t))


def term_free_vars(t: Term) -> Tuple[str, ...]:
    """Free node variables of a term, in first-appearance order."""
    seen: list[str] = []

    def add(name: str) -> None:
        if name not in seen:
            seen.append(name)

    def walk(t: Term, bound: frozenset) -> None:
        if isinstance(t, LabelTerm):
            for a in t.args:
                if a not in bound:
                    add(a)
        elif isinstance(t, (IndicatorTerm, PathExtremumTerm)):
            for v in t.query.match_nodes:
                if v not in bound:
                    add(v)
        elif isinstance(t, VarEqTerm):
            for v in (t.left, t.right):
                if v not in bound:
                    add(v)
        elif isinstance(t, ApplyTerm):
            for a in t.args:
                walk(a, bound)
        elif isinstance(t, AggTerm):
            walk(t.value, bound | {t.collector})
            walk(t.filter, bound | {t.collector})

    walk(t, frozenset())
    return tuple(seen)


# -- top level -------------------------------------------------------------------

@dataclass(frozen=True)
class OntologyEntry:
    name: str
    params: Tuple[str, ...]
    term: Term

    def text(self) -> str:
        return f"{self.name}({', '.join(self.params)}) := {term_text(self.term)}"


@dataclass(frozen=True)
class OpraQuery:
    ontology: Tuple[OntologyEntry, ...] = ()
    query: PraQuery = field(default_factory=PraQuery)

    def text(self) -> str:
        if not self.ontology:
            return self.query.text()
        lets = ",\n    ".join(e.text() for e in self.ontology)
        return f"LET {lets}\nIN\n{self.query.text()}"


def to_text(q: OpraQuery) -> str:
    """Canonical textual form; reparses to an equal AST."""
    return q.text()

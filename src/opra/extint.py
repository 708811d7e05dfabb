"""Extended integers: plain ints plus the two infinities.

Finite values are always Python ints; the infinities are the float
singletons ``float('inf')`` / ``float('-inf')``, which order correctly
against ints.  Addition of opposite infinities is a hard error rather
than a value, so modelling mistakes surface instead of propagating.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence, Union

from .errors import IndeterminateSumError, UnknownLabellingError

ExtInt = Union[int, float]

POS_INF: ExtInt = math.inf
NEG_INF: ExtInt = -math.inf


def is_finite(v: ExtInt) -> bool:
    return not isinstance(v, float)


def ext_add(a: ExtInt, b: ExtInt) -> ExtInt:
    if is_finite(a) and is_finite(b):
        return a + b
    if a == POS_INF and b == NEG_INF or a == NEG_INF and b == POS_INF:
        raise IndeterminateSumError("POS_INF + NEG_INF has no value")
    return a if not is_finite(a) else b


def ext_sum(values: Iterable[ExtInt]) -> ExtInt:
    total: ExtInt = 0
    for v in values:
        total = ext_add(total, v)
    return total


def ext_mul(a: ExtInt, b: ExtInt) -> ExtInt:
    """Product; zero absorbs even against infinities."""
    if is_finite(a) and is_finite(b):
        return a * b
    if a == 0 or b == 0:
        return 0
    return POS_INF if (a > 0) == (b > 0) else NEG_INF


def eval_fundamental(func: str, args: Sequence[ExtInt]) -> ExtInt:
    """Apply a fundamental function.

    Aggregates take any number of arguments (empty input yields the
    lattice identity); the binary functions return 0 unless applied to
    exactly two arguments, and <= returns 1 or 0.
    """
    if func == "Max":
        return max(args) if args else NEG_INF
    if func == "Min":
        return min(args) if args else POS_INF
    if func == "Count":
        return len(args)
    if func == "Sum":
        return ext_sum(args)
    if func in ("+", "-", "*", "<="):
        if len(args) != 2:
            return 0
        a, b = args
        if func == "+":
            return ext_add(a, b)
        if func == "-":
            return ext_add(a, ext_mul(-1, b))
        if func == "*":
            return ext_mul(a, b)
        return 1 if a <= b else 0
    raise UnknownLabellingError(f"unknown fundamental function {func!r}")


def ext_compare(op: str, a: ExtInt, b: ExtInt) -> bool:
    if op == "<=":
        return a <= b
    if op == "<":
        return a < b
    if op == "=":
        return a == b
    raise ValueError(f"unknown comparison operator {op!r}")


def to_json(v: ExtInt):
    if v == POS_INF:
        return "+inf"
    if v == NEG_INF:
        return "-inf"
    return v


def from_json(raw) -> ExtInt:
    if raw == "+inf":
        return POS_INF
    if raw == "-inf":
        return NEG_INF
    if isinstance(raw, bool) or not isinstance(raw, int):
        raise ValueError(f"expected integer, '+inf' or '-inf', got {raw!r}")
    return raw

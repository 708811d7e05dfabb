import pytest
from hypothesis import given
from hypothesis import strategies as st

from opra.errors import IndeterminateSumError
from opra.extint import (
    NEG_INF, POS_INF, ext_add, ext_compare, ext_mul, ext_sum,
    from_json, is_finite, to_json,
)


def test_total_order():
    assert NEG_INF < -10 ** 19 < 0 < 10 ** 19 < POS_INF
    assert not NEG_INF < NEG_INF
    assert POS_INF == POS_INF


def test_addition_rules():
    assert ext_add(2, 3) == 5
    assert ext_add(POS_INF, 5) == POS_INF
    assert ext_add(NEG_INF, NEG_INF) == NEG_INF
    with pytest.raises(IndeterminateSumError):
        ext_add(POS_INF, NEG_INF)
    with pytest.raises(IndeterminateSumError):
        ext_sum([1, POS_INF, -2, NEG_INF])


def test_scaling():
    assert ext_mul(0, POS_INF) == 0
    assert ext_mul(-2, POS_INF) == NEG_INF
    assert ext_mul(3, -4) == -12
    assert ext_mul(POS_INF, NEG_INF) == NEG_INF
    assert ext_mul(0, NEG_INF) == 0


def test_compare_ops():
    assert ext_compare("<=", 3, 3)
    assert not ext_compare("<", 3, 3)
    assert ext_compare("=", NEG_INF, NEG_INF)
    assert ext_compare("<", NEG_INF, -10 ** 30)


def test_json_round_trip():
    for v in (0, -7, 10 ** 15, POS_INF, NEG_INF):
        assert from_json(to_json(v)) == v
    with pytest.raises(ValueError):
        from_json("oops")
    with pytest.raises(ValueError):
        from_json(True)


@given(st.integers(), st.integers())
def test_finite_addition_matches_int(a, b):
    assert ext_add(a, b) == a + b
    assert is_finite(ext_add(a, b))

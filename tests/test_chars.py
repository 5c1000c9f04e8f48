from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lfac.chars import Character
from lfac.scalar import Scalar

a = Scalar.symbol("a")
v = Scalar.v_power(1)
unr = Character.unramified
ram = Character.ramified


def test_trivial():
    t = Character.trivial()
    assert t.is_trivial and t.is_unramified
    assert t * t == t
    assert t.inverse() == t


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([(), (("eta", 1),), (("eta", -1), ("xi", 2))]),
       st.integers(-3, 3), st.sampled_from([1, 2, -1]))
def test_trivial_shortcut_matches_full_product(tag, k, e):
    chi = Character(tag, a ** e * v ** k)
    # an equal trivial character that is not the shared instance
    for triv in (Character.trivial(), Character((), Scalar.from_rational(1))):
        full = Character(chi.tag + triv.tag, chi.satake * triv.satake)
        assert chi * triv == full and triv * chi == full
        assert str(chi * triv) == str(full)


def test_group_laws():
    x = unr(a)
    y = ram("eta", v)
    assert (x * y) * y.inverse() == x
    assert x ** 3 == x * x * x
    assert x ** -1 == x.inverse()
    assert (x * y).satake == a * v


def test_tag_is_multiset():
    x = ram("eta") * ram("xi")
    y = ram("xi") * ram("eta")
    assert x == y
    assert x.tag == (("eta", 1), ("xi", 1))
    assert (x * ram("eta", Scalar.one).inverse()).tag == (("xi", 1),)


def test_ramified_cancellation():
    x = ram("eta", a)
    assert (x * x.inverse()).is_unramified
    assert (x * x.inverse()).is_trivial


def test_absval():
    # |.|^t has Satake value q^{-t} = v^{-2t}
    assert Character.absval(1).satake == v ** -2
    assert Character.absval(Fraction(-1, 2)).satake == v
    assert Character.absval(0).is_trivial


def test_zero_satake_rejected():
    with pytest.raises(Exception):
        unr(Scalar.zero)


def test_str_forms():
    assert str(unr(a)) == "unr(a)"
    assert str(ram("eta")) == "ram(eta)"
    assert str(ram("eta", a * v)) == "ram(eta, a*v)"
    assert str(ram("eta").inverse()) == "ram(eta^-1)"
    assert str(ram("eta") * ram("xi", a)) == "ram(eta*xi, a)"


def test_substitute():
    x = ram("eta", a)
    assert x.substitute({"a": 2}).satake == 2
    assert x.substitute({"a": 2}).tag == x.tag


def test_sort_key_orders_unramified_first():
    xs = sorted([ram("eta"), unr(a)], key=Character.sort_key)
    assert xs[0].is_unramified

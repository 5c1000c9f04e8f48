from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lfac.chars import Character
from lfac.errors import HalfIntegerError, LfacValueError
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


tags = st.sampled_from([(), (("eta", 1),), (("eta", -1),), (("xi", 2),),
                        (("eta", -1), ("xi", 2)), (("eta", 2), ("xi", -1))])


@st.composite
def characters(draw):
    coeff = draw(st.fractions(-3, 3, max_denominator=3).filter(bool))
    satake = coeff * a ** draw(st.integers(-2, 2)) * v ** draw(st.integers(-3, 3))
    return Character(draw(tags), satake)


def _same_char(fast, slow):
    assert (fast.tag, fast.satake) == (slow.tag, slow.satake)
    assert str(fast) == str(slow) and hash(fast) == hash(slow)


@settings(max_examples=150, deadline=None)
@given(characters(), characters(), st.integers(-3, 3))
def test_kept_tags_match_normalising_constructor(x, y, n):
    # the product keeps the ramified side's tag, and a power scales it,
    # without normalising again: the same as Character(tag, satake) does
    _same_char(x * y, Character(x.tag + y.tag, x.satake * y.satake))
    _same_char(y * x, Character(y.tag + x.tag, y.satake * x.satake))
    _same_char(x ** n, Character([(t, e * n) for t, e in x.tag],
                                 x.satake ** n))
    _same_char(x.inverse(), Character([(t, -e) for t, e in x.tag],
                                      x.satake ** -1))


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
    assert Character.absval("3/2").satake == v ** -3
    with pytest.raises(HalfIntegerError, match=r"\Anot a half-integer: 1/3\Z"):
        Character.absval("1/3")


def test_exponents_must_be_integers():
    assert unr(a) ** Fraction(4, 2) == unr(a * a)
    assert Character((("eta", 2.0),)) == ram("eta") ** 2
    for n in (Fraction(1, 2), 1.5):
        with pytest.raises(LfacValueError, match="not an integer"):
            unr(a) ** n
        with pytest.raises(LfacValueError, match="not an integer"):
            Character((("eta", n),))
    with pytest.raises(TypeError, match="unsupported operand"):
        unr(a) ** "x"


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


@settings(max_examples=150, deadline=None)
@given(characters(), characters())
def test_quotient_matches_product_with_inverse(x, y):
    # the tags subtract in one step; x / x cancels a ramified tag to an
    # unramified (trivial) character
    t = Character.trivial()
    for p, q in ((x, y), (y, x), (x, x), (x, t), (t, x), (t, t)):
        _same_char(p / q, p * q.inverse())


def test_quotient_cancels_ramified_tags():
    chi = ram("eta", a) * ram("xi") / (ram("eta") * ram("xi", v))
    assert chi.is_unramified and chi == unr(a * v ** -1)
    assert (ram("eta", a) / ram("eta", a)).is_trivial
    assert str(unr(a) / ram("eta")) == "ram(eta^-1, a)"
    with pytest.raises(TypeError, match="unsupported operand"):
        unr(a) / a

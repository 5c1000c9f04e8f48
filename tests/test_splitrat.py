from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lfac.errors import HalfIntegerError, LfacValueError, ScalarDomainError
from lfac.scalar import Scalar
from lfac.splitrat import SplitRational, ideal_generator

a, b = Scalar.symbol("a"), Scalar.symbol("b")
v = Scalar.v_power(1)


def f(*pairs, unit=1, xpower=0):
    return SplitRational(unit=unit, xpower=xpower, factors=pairs)


def test_merge_and_sort():
    g = SplitRational(factors=[(a, -1), (b, -1), (a, -1)])
    assert g.factors == ((a, -2), (b, -1))
    assert SplitRational(factors=[(a, 1), (a, -1)]).is_one


def test_zero_beta_dropped():
    assert SplitRational(factors=[(Scalar.zero, 3)]).is_one


def test_zero_unit_rejected():
    with pytest.raises(ScalarDomainError):
        SplitRational(unit=0)


def test_from_poles():
    g = SplitRational.from_poles([a, b * v ** -1])
    assert str(g) == "1/((1 - a*X)(1 - b*v^-1*X))"
    assert g.is_lfactor


def test_display_forms():
    assert str(f((a, -1))) == "1/(1 - a*X)"
    assert str(f((a, 2), (b, -1), unit=2, xpower=1)) == \
        "2*X(1 - a*X)^2/(1 - b*X)"
    assert str(SplitRational.one()) == "1"
    neg = f((-a * v ** -1, -1))
    assert str(neg) == "1/(1 - (-a*v^-1)*X)"


def test_mul_div_pow():
    g = f((a, -1))
    h = f((b, -2), unit=3)
    assert (g * h).factors == ((a, -1), (b, -2))
    assert (g / g).is_one
    assert (g ** -2).factors == ((a, 2),)
    assert (g * h).unit == Scalar.from_rational(3)


def test_exponents_must_be_integers():
    g = SplitRational.from_poles([a])
    assert g ** Fraction(4, 2) == g ** 2.0 == g * g
    assert f((a, 2.0), xpower=Fraction(-3, 1)) == f((a, 2), xpower=-3)
    for n in (Fraction(3, 2), 0.5):
        for build in (lambda: g ** n, lambda: f((a, n)),
                      lambda: f(xpower=n)):
            with pytest.raises(LfacValueError, match="not an integer"):
                build()
    with pytest.raises(TypeError, match="unsupported operand"):
        g ** "x"


def test_shift():
    g = f((a, -1), unit=a, xpower=2)
    s = g.shift(Fraction(1, 2))
    assert s.factors == ((a * v ** -1, -1),)
    assert s.unit == a * v ** -2
    # L(s + 1/2) then L(s + 1/2) again is L(s + 1)
    assert g.shift(Fraction(1, 2)).shift(Fraction(1, 2)) == g.shift(1)
    assert g.shift(0) == g


def test_lfactor_predicates():
    assert f((a, -1), (b, -3)).is_lfactor
    assert not f((a, -1), unit=2).is_lfactor
    assert not f((a, -1), xpower=1).is_lfactor
    assert not f((a, 1)).is_lfactor
    # (1 - aX) generates a principal ideal without units
    assert not f((a, 1)).contains_units
    assert f((a, -1)).contains_units


def test_vanishing_order():
    g = f((a, 2), (b, -1))
    assert g.vanishing_order(a) == 2
    assert g.vanishing_order(b) == -1
    assert g.vanishing_order(a * b) == 0
    assert g.pole_roots() == (b,)
    assert g.zero_roots() == (a,)


def test_eq_coerces_units():
    assert SplitRational.one() == 1
    assert SplitRational(unit=a) == a
    assert hash(SplitRational(unit=a)) == hash(a)
    assert SplitRational(factors=[(a, 1)]) != a


def test_substitute():
    g = f((a, -1), unit=b)
    h = g.substitute({"a": 2, "b": 3})
    assert h.unit == 3
    assert h.factors == ((Scalar.from_rational(2), -1),)
    # a beta collapsing to zero just removes the factor
    assert f((a, -1)).substitute({"a": 0}).is_one


def test_ideal_generator_basics():
    g1 = f((a, -2), (b, 1))
    g2 = f((a, -1))
    gen = ideal_generator([g1, g2])
    # per root: min(-2, 0) and min(1, 0) over both inputs
    assert gen.generator.factors == ((a, -2),)
    assert gen.is_lfactor
    assert not ideal_generator([f((a, 1))]).is_lfactor
    with pytest.raises(LfacValueError):
        ideal_generator([])


def test_ideal_generator_duplicates_irrelevant():
    g = f((a, -1), (b, 2))
    assert ideal_generator([g, g, g]) == ideal_generator([g])


betas = st.sampled_from([a, b, a * v, b * v ** -2, a * b])
exps = st.integers(min_value=-3, max_value=3).filter(bool)


@st.composite
def splitrats(draw):
    pairs = [(draw(betas), draw(exps))
             for _ in range(draw(st.integers(0, 3)))]
    return SplitRational(unit=Scalar.from_rational(draw(st.integers(1, 4))),
                         xpower=draw(st.integers(0, 2)), factors=pairs)


@settings(max_examples=60, deadline=None)
@given(splitrats(), splitrats())
def test_group_laws(x, y):
    assert x * y == y * x
    assert (x * y) / y == x
    assert x * x.inverse() == SplitRational(unit=1)


@settings(max_examples=60, deadline=None)
@given(splitrats(), st.sampled_from([0, 1, Fraction(1, 2), Fraction(-3, 2)]),
       st.sampled_from([0, 1, Fraction(1, 2)]))
def test_shift_homomorphism(x, s, t):
    assert x.shift(s).shift(t) == x.shift(s + t)
    assert x.shift(s).xpower == x.xpower


units = st.sampled_from([Scalar.one, Scalar.from_rational(-2), a,
                         Fraction(1, 2) * b * v ** -1])


@st.composite
def canonical_inputs(draw):
    """Split rationals whose units may be 1 and whose bases reorder under a
    shift: a sorts before a*v, but a*v^-1 after a."""
    pairs = [(draw(betas | st.just(a * v ** -1)), draw(exps))
             for _ in range(draw(st.integers(0, 4)))]
    return SplitRational(unit=draw(units), xpower=draw(st.integers(-2, 2)),
                         factors=pairs)


def _same_split(fast, unit, xpower, factors):
    # against the public constructor, which coerces, merges and sorts
    slow = SplitRational(unit, xpower, factors)
    assert (fast.unit, fast.xpower, fast.factors) == \
        (slow.unit, slow.xpower, slow.factors)
    assert str(fast) == str(slow) and hash(fast) == hash(slow)


# pole bases: repeated ones, zero, and int and Fraction ones to coerce
pole_bases = st.lists(betas | st.sampled_from(
    [Scalar.zero, 0, 7, Fraction(-1, 2), Scalar.from_rational(7)]), max_size=6)


@st.composite
def sharing_pairs(draw):
    """Two split rationals whose factor lists meet: the second takes some
    bases of the first with the opposite exponent, so that they cancel,
    some with another exponent, and some bases of its own; either may have
    no factors at all."""
    x = draw(canonical_inputs())
    pairs = []
    for b, e in x.factors:
        how = draw(st.sampled_from(["cancel", "other", "skip"]))
        if how != "skip":
            pairs.append((b, -e if how == "cancel" else draw(exps)))
    pairs += [(draw(betas | st.just(a * v ** -1)), draw(exps))
              for _ in range(draw(st.integers(0, 2)))]
    y = SplitRational(unit=draw(units), xpower=draw(st.integers(-2, 2)),
                      factors=pairs)
    return x, y


@settings(max_examples=200, deadline=None)
@given(sharing_pairs(), st.integers(-3, 3),
       st.sampled_from([0, Fraction(1, 2), -1, Fraction(-3, 2), 2,
                        "3/2", 1.5, Fraction(4, 2)]),
       pole_bases)
def test_private_constructor_matches_public(pair, n, t, poles):
    # products merge two sorted factor tuples, and inverses and powers keep
    # their order; all against the constructor, which merges in a dict and
    # sorts
    for x, y in (pair, pair[::-1]):
        neg = [(b, -e) for b, e in y.factors]
        _same_split(x * y, x.unit * y.unit, x.xpower + y.xpower,
                    x.factors + y.factors)
        _same_split(x / y, x.unit / y.unit, x.xpower - y.xpower,
                    list(x.factors) + neg)
        _same_split(y.inverse(), y.unit ** -1, -y.xpower, neg)
        _same_split(x ** n, x.unit ** n, x.xpower * n,
                    [(b, e * n) for b, e in x.factors])
    x = pair[0]
    assert (x * x.inverse()).factors == ()
    # a shift by an int, a Fraction, a str or a float, against -2t taken
    # in Fraction arithmetic
    w = v ** int(-2 * Fraction(t))
    _same_split(x.shift(t), x.unit * w ** x.xpower, x.xpower,
                [(b * w, e) for b, e in x.factors])
    assert x.shift(0) is x
    with pytest.raises(HalfIntegerError, match=r"\Anot a half-integer: 1/3\Z"):
        x.shift(Fraction(1, 3))
    _same_split(SplitRational.from_poles(poles), 1, 0,
                [(b, -1) for b in poles])


@settings(max_examples=60, deadline=None)
@given(st.lists(splitrats(), min_size=1, max_size=4))
def test_generator_divides_inputs(fs):
    gen = ideal_generator(fs).generator
    for g in fs:
        for beta, _ in gen.factors:
            assert gen.vanishing_order(beta) <= g.vanishing_order(beta)


@settings(max_examples=40, deadline=None)
@given(st.lists(splitrats(), min_size=1, max_size=3))
def test_generator_idempotent(fs):
    gen = ideal_generator(fs).generator
    again = ideal_generator(fs + [gen]).generator
    assert again == gen

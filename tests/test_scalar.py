import operator
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lfac import scalar
from lfac.dsl import parse_scalar
from lfac.errors import HalfIntegerError, LfacValueError, ScalarDomainError
from lfac.scalar import (POWER_DIGITS_MAX, POWER_TERMS_MAX, RESERVED_NAMES,
                         Scalar, _exact_quotient, _gens_order, _poly_mul,
                         half_integer)
from oracle import binary, field, from_frac, lift

a, b, c = (Scalar.symbol(s) for s in "abc")
v = Scalar.v_power(1)


def test_construction_and_singletons():
    assert Scalar.from_rational(0) == Scalar.zero
    assert Scalar.from_rational(1) == Scalar.one
    assert Scalar.from_rational(Fraction(2, 4)) == Scalar.from_rational(1) / 2
    assert Scalar.v_power(0) == 1


def test_reserved_names_rejected():
    for name in RESERVED_NAMES:
        with pytest.raises(ValueError):
            Scalar.symbol(name)
    with pytest.raises(ValueError):
        Scalar.symbol("2bad")


def test_canonical_cancellation():
    assert (a ** 2 - b ** 2) / (a - b) == a + b
    assert (a * b) / b == a
    assert a - a == 0
    assert (a / a) == 1


def test_denominator_monic():
    # leading denominator coefficient is scaled away
    s = a / (2 * a - 2 * b)
    assert str(s) == "1/2*a/(a - b)"


def test_zero_division():
    with pytest.raises(ScalarDomainError):
        a / (b - b)
    with pytest.raises(ScalarDomainError):
        Scalar.zero ** -1


def test_pow_conventions():
    assert a ** 0 == 1
    assert Scalar.zero ** 0 == 1
    assert a ** -2 == 1 / (a * a)


def test_exponents_must_be_integers():
    # a number equal to an integer is that integer; any other is refused,
    # not truncated, and a value that is no number is left to Python
    assert a ** Fraction(4, 2) == a ** 2.0 == a * a
    assert Scalar.v_power(Fraction(-6, 3)) == v ** -2 == v.times_v(-3.0)
    for n in (Fraction(1, 2), 1.5, -0.5, float("nan"), float("inf"), 1j):
        with pytest.raises(LfacValueError, match="not an integer"):
            a ** n
        with pytest.raises(LfacValueError, match="not an integer"):
            Scalar.v_power(n)
        with pytest.raises(LfacValueError, match="not an integer"):
            a.times_v(n)
    with pytest.raises(TypeError, match="unsupported operand"):
        a ** "x"


def test_str_monomial_mode():
    assert str(a * v ** -3) == "a*v^-3"
    assert str(2 * a * b ** 2) == "2*a*b^2"
    assert str(Scalar.from_rational(Fraction(5, 2))) == "5/2"
    assert str(-a) == "-a"
    assert str(Fraction(-3, 2) * a * v ** -1) == "-3/2*a*v^-1"
    assert str(Scalar.from_rational(Fraction(-5, 2))) == "-5/2"
    assert str(-a ** 2 / b) == "-a^2*b^-1"


def test_str_fraction_mode():
    assert str((a + b) / (a - b)) == "(a + b)/(a - b)"
    assert str(a + b) == "a + b"
    assert str(1 / (b - 1)) == "1/(b - 1)"
    assert str(a - Fraction(3, 2) * b) == "a - 3/2*b"
    assert str(Fraction(1, 2) * a + 1) == "1/2*a + 1"
    assert str(a - 1) == "a - 1"
    assert str((Fraction(-1, 2) * a + b) / (a * v)) == "(-1/2*a + b)/(a*v)"


def test_v_sorts_last():
    # v is the least significant symbol in term order and in display
    assert str(a * v + b * v) == "(a + b)*v" or str(a * v + b * v) == "a*v + b*v"
    assert str(v + a) == "a + v"


def test_substitute_partial_and_domain():
    s = (a + b) / c
    assert s.substitute({"a": 1}) == (1 + b) / c
    assert s.substitute({"a": 2, "b": 3, "c": 5}) == 1
    with pytest.raises(ScalarDomainError):
        (a / (b - 1)).substitute({"b": 1})


def test_eq_hash_against_numbers():
    assert Scalar.from_rational(7) == 7
    assert hash(Scalar.from_rational(7)) == hash(7)
    assert Scalar.from_rational(Fraction(1, 2)) == Fraction(1, 2)


def test_canonicalize_entry_points():
    assert parse_scalar("a*v^-3") == a * v ** -3
    assert parse_scalar("5") == Scalar.from_rational(5)
    assert Scalar.from_rational(Fraction(10, 2)) == parse_scalar("10/2")


def test_half_integer():
    assert half_integer(Fraction(3, 2)) == Fraction(3, 2)
    assert half_integer(2) == 2
    with pytest.raises(HalfIntegerError):
        half_integer(Fraction(1, 3))


names = st.sampled_from("abcde")
exps = st.integers(min_value=-3, max_value=3)


@st.composite
def scalars(draw):
    s = Scalar.from_rational(draw(st.integers(-5, 5)))
    for _ in range(draw(st.integers(0, 2))):
        s = s + Scalar.symbol(draw(names)) ** draw(exps.filter(bool))
    return s


@settings(max_examples=60, deadline=None)
@given(scalars(), scalars())
def test_ring_laws(x, y):
    assert x + y == y + x
    assert x * y == y * x
    assert (x + y) - y == x


@settings(max_examples=60, deadline=None)
@given(scalars())
def test_str_reparses(x):
    assert parse_scalar(str(x)) == x


@settings(max_examples=40, deadline=None)
@given(scalars())
def test_inverse_roundtrip(x):
    if x != 0:
        assert (1 / x) * x == 1


# ------------------------------------------------------ monomials vs sympy

def _form(x):
    return (x._gens, x._num, x._den)


def _sympy_pow(x, n):
    return from_frac(lift(x, field(x._gens), x._gens) ** n, x._gens)


def _sympy_neg(x):
    return binary(x, Scalar.zero, lambda p, _: -p)


@st.composite
def monomials(draw):
    """Laurent monomials with rational coefficients, built by the sympy path
    alone: zero, constants, v alone, several symbols (w sorts after v
    alphabetically, but v is always last), and repeated symbols whose
    exponents may cancel to 0."""
    s = Scalar.from_rational(draw(st.fractions(-4, 4, max_denominator=6)))
    for name, e in draw(st.lists(st.tuples(st.sampled_from("abvw"),
                                           exps.filter(bool)), max_size=4)):
        s = binary(s, _sympy_pow(Scalar.symbol(name), e), operator.mul)
    return s


@settings(max_examples=200, deadline=None)
@given(monomials(), monomials(), st.integers(-4, 4).filter(bool))
def test_monomial_fast_path_matches_sympy(x, y, n):
    assert len(x._num) <= 1 and len(x._den) == 1
    assert _form(x * y) == _form(binary(x, y, operator.mul))
    if not y.is_zero:
        assert _form(x / y) == _form(binary(x, y, operator.truediv))
    if not x.is_zero:
        assert _form(x ** n) == _form(_sympy_pow(x, n))
    assert _form(-x) == _form(_sympy_neg(x))
    assert hash(x * y) == hash(binary(x, y, operator.mul))


@settings(max_examples=60, deadline=None)
@given(scalars())
def test_negation_matches_sympy(x):
    assert _form(-x) == _form(_sympy_neg(x))


# ------------------------------------------ Laurent-polynomial path vs sympy

@st.composite
def laurents(draw):
    """Laurent polynomials of 1-4 terms over a, b, v, w with rational
    coefficients, summed by the sympy path alone.  A term may be the
    negative of an earlier one, so sums cancel to zero or to constants."""
    s, seen = Scalar.zero, []
    for _ in range(draw(st.integers(1, 4))):
        if seen and draw(st.booleans()):
            t = _sympy_neg(draw(st.sampled_from(seen)))
        else:
            t = draw(monomials())
        seen.append(t)
        s = binary(s, t, operator.add)
    return s


@st.composite
def rational_functions(draw):
    """Quotients of Laurent polynomials, reduced by the sympy path."""
    return binary(draw(laurents()),
                  draw(laurents().filter(lambda y: not y.is_zero)),
                  operator.truediv)


def _same(fast, slow):
    assert _form(fast) == _form(slow)
    assert hash(fast) == hash(slow)
    # the canonical form itself, so that equal forms cannot both be wrong
    gens, num, den = _form(fast)
    for terms in (num, den):
        assert all(isinstance(c, Fraction) for _, c in terms)
        assert all(len(e) == len(gens) for e, _ in terms)
        assert all(t1[0] > t2[0] for t1, t2 in zip(terms, terms[1:]))
    assert den[0][1] == 1
    assert all(any(col) for col in zip(*[e for e, _ in num + den]))


@settings(max_examples=200, deadline=None)
@given(laurents(), laurents(), monomials(), st.integers(-4, 4))
def test_laurent_path_matches_sympy(x, y, m, n):
    for op in (operator.add, operator.sub, operator.mul):
        _same(op(x, y), binary(x, y, op))
    if not m.is_zero:
        _same(x / m, binary(x, m, operator.truediv))
    if n == 0:
        _same(x ** n, Scalar.one)
    elif not x.is_zero:
        _same(x ** n, _sympy_pow(x, n))


@st.composite
def monomial_pairs(draw):
    """Two nonzero Laurent monomials built by the sympy path alone, on equal,
    overlapping or disjoint gens (a rational constant has none), with
    fractional or negative coefficients; where both use a gen, the second
    exponent may be the negative of the first, so the product drops it."""
    coeffs = st.fractions(-4, 4, max_denominator=6).filter(bool)
    g1 = draw(st.lists(st.sampled_from("abvw"), unique=True, max_size=3))
    shape = draw(st.sampled_from(["equal", "overlap", "disjoint"]))
    if shape == "equal":
        g2 = g1
    elif shape == "disjoint":
        g2 = draw(st.lists(st.sampled_from([g for g in "abvw" if g not in g1]),
                           unique=True, max_size=2))
    else:
        g2 = draw(st.lists(st.sampled_from("abvw"), unique=True, max_size=3))
    e1 = {g: draw(exps.filter(bool)) for g in g1}
    e2 = {g: -e1[g] if g in e1 and draw(st.booleans())
          else draw(exps.filter(bool)) for g in g2}
    pair = []
    for es in (e1, e2):
        s = Scalar.from_rational(draw(coeffs))
        for g, e in es.items():
            s = binary(s, _sympy_pow(Scalar.symbol(g), e), operator.mul)
        pair.append(s)
    return pair


@settings(max_examples=300, deadline=None)
@given(monomial_pairs())
def test_monomial_product_matches_binary(pair):
    for x, y in (pair, pair[::-1]):
        assert len(x._num) == len(x._den) == len(y._num) == len(y._den) == 1
        slow = binary(x, y, operator.mul)
        _same(x._monomial_product(y), slow)
        _same(x * y, slow)


@settings(max_examples=200, deadline=None)
@given(monomial_pairs(), st.integers(-3, 3))
def test_monomial_hash_is_route_free(pair, k):
    # one Laurent monomial built by a product, an offset of the v exponents,
    # a power and the parser hashes alike; a constant like its Fraction
    x, y = pair
    m = x._monomial_product(y)
    w = Scalar.v_power(k)
    routes = [(m, parse_scalar(str(m)), binary(x, y, operator.mul)),
              (m.times_v(k), m._monomial_product(w), w * m,
               parse_scalar(str(m.times_v(k)))),
              (m ** -1, (Scalar.one / m), parse_scalar(str(m ** -1))),
              (m ** 0, Scalar.one, Scalar.from_rational(1))]
    for n in (2, 3, -2, -3):
        routes.append((m ** n, _product_power(m, n), _sympy_pow(m, n),
                       parse_scalar(str(m ** n))))
    for built in routes:
        assert len({_form(z) for z in built}) == 1
        assert len({hash(z) for z in built}) == 1
        if not built[0].symbols:
            assert hash(built[0]) == hash(built[0].as_fraction())


def _product_power(m, n):
    """m ** n for a Laurent monomial m and n != 0, as repeated products of
    m, or of its inverse from the sympy path, on signed exponent vectors."""
    base = m if n > 0 else binary(Scalar.one, m, operator.truediv)
    out = base
    for _ in range(abs(n) - 1):
        out = out._monomial_product(base)
    return out


@st.composite
def laurent_monomials(draw):
    """Nonzero Laurent monomials over a, b and v, built by the sympy path
    alone, with a coefficient of +-1 or a negative or fractional one."""
    coeff = draw(st.one_of(st.sampled_from([1, -1]),
                           st.fractions(-9, 9, max_denominator=8).filter(bool)))
    s = Scalar.from_rational(coeff)
    for g in draw(st.lists(st.sampled_from("abv"), unique=True)):
        s = binary(s, _sympy_pow(Scalar.symbol(g), draw(exps.filter(bool))),
                   operator.mul)
    return s


@settings(max_examples=300, deadline=None)
@given(laurent_monomials(), st.integers(-6, 6).filter(bool))
def test_monomial_power_matches_general_route(m, n):
    assert len(m._num) == len(m._den) == 1
    fast = m ** n
    _same(fast, _sympy_pow(m, n))
    _same(fast, _product_power(m, n))


@settings(max_examples=60, deadline=None)
@given(rational_functions(), st.integers(-4, 4).filter(bool))
def test_power_of_rational_function_matches_sympy(x, n):
    if not x.is_zero:
        _same(x ** n, _sympy_pow(x, n))


@st.composite
def binomials(draw):
    """c1*m1 + c2*m2 for distinct monomials m1, m2 over a, b, v."""
    exps = st.tuples(*[st.integers(0, 2)] * 3)
    e1, e2 = draw(st.lists(exps, min_size=2, max_size=2, unique=True))
    s = Scalar.zero
    for e in (e1, e2):
        t = Scalar.from_rational(draw(st.sampled_from([1, -1, 2, Fraction(1, 3)])))
        for x, k in zip((a, b, v), e):
            if k:
                t = binary(t, _sympy_pow(x, k), operator.mul)
        s = binary(s, t, operator.add)
    return s


@st.composite
def shared_factor_pairs(draw):
    """Two rational functions times powers of the same 1-3 binomials, each
    power between -2 and 2, reduced by the sympy path: their denominators
    are products and powers of binomials that the other side may share."""
    pool = draw(st.lists(binomials(), min_size=1, max_size=3))
    pair = []
    for _ in range(2):
        s = draw(st.one_of(laurents(), rational_functions()))
        for f in pool:
            k = draw(st.integers(-2, 2))
            if k:
                s = binary(s, _sympy_pow(f, k), operator.mul)
        pair.append(s)
    return pair


@settings(max_examples=100, deadline=None)
@given(shared_factor_pairs())
def test_reduced_product_matches_sympy(pair):
    x, y = pair
    _same(x * y, binary(x, y, operator.mul))
    if not y.is_zero:
        _same(x / y, binary(x, y, operator.truediv))


@settings(max_examples=100, deadline=None)
@given(st.one_of(shared_factor_pairs(),
                 st.lists(rational_functions(), min_size=2, max_size=2)))
def test_henrici_sum_matches_sympy(pair):
    # sums and differences whose denominators may both have several terms,
    # share factors with each other or cancel against the new numerator:
    # in (x + y) - y, most of the common denominator cancels
    x, y = pair
    for op in (operator.add, operator.sub):
        _same(op(x, y), binary(x, y, op))
    _same((x + y) - y, x)


def test_henrici_sum_takes_the_gcd_of_the_denominators(gcd_calls):
    # the gcd of two denominators of nine terms, never one with their
    # product of 81 terms, and a monomial gcd for the new numerator
    x, y = 1 / (a + b) ** 8, 1 / (a + c) ** 8
    assert gcd_calls == []
    _same(x + y, binary(x, y, operator.add))
    gens = ("a", "b", "c")
    assert gcd_calls == [(x._polys(gens)[1], y._polys(gens)[1])]
    assert [len(d) for d in gcd_calls[0]] == [9, 9]


@st.composite
def divisors(draw):
    """Polynomials of 2-3 terms over a, b, v whose coefficients are
    fractions, the leading one included, so the divisor is not monic."""
    exps = st.tuples(*[st.integers(0, 2)] * 3)
    coeffs = st.fractions(-5, 5, max_denominator=4).filter(bool)
    s = Scalar.zero
    for e in draw(st.lists(exps, min_size=2, max_size=3, unique=True)):
        t = Scalar.from_rational(draw(coeffs))
        for x, k in zip((a, b, v), e):
            if k:
                t = binary(t, _sympy_pow(x, k), operator.mul)
        s = binary(s, t, operator.add)
    return s


@settings(max_examples=100, deadline=None)
@given(laurents(), divisors(), divisors())
def test_exact_quotient_matches_sympy(x, d, e):
    gens = _gens_order(set(x._gens) | {"a", "b", "v"})
    one = {tuple(0 for _ in gens): Fraction(1)}
    p, dd = x._polys(gens)[0], d._polys(gens)[0]
    pd = {k: c for k, c in _poly_mul(p, dd).items() if c}
    # on integer coefficients, p*d divides by d whatever d's leading
    # coefficient, and p*d + e divides exactly when sympy finds no
    # denominator
    assert _exact_quotient(pd, dd) == {k: c for k, c in p.items() if c}
    top = Scalar._from_polys(pd, one, gens) + e
    q = _exact_quotient(top._polys(gens)[0], dd)
    slow = binary(top, d, operator.truediv)
    if q is None:
        assert slow._den != ((tuple(0 for _ in slow._gens), Fraction(1)),)
    else:
        _same(Scalar._from_polys(q, one, gens), slow)
    # and through Scalar division, which reaches it via _cancel
    n = binary(x, d, operator.mul)
    for num in (n, x, top):
        _same(num / d, binary(num, d, operator.truediv))


def _best_of_3(f):
    times = []
    for _ in range(3):
        start = time.perf_counter()
        out = f()
        times.append(time.perf_counter() - start)
    return out, min(times)


def test_large_power_matches_sympy_and_is_no_slower():
    # a base whose terms collide: 81 output terms from 10,626 multinomials
    x = sum((v ** k for k in range(5)), Scalar.zero)
    _same(x ** 20, _sympy_pow(x, 20))
    _same(x ** -20, _sympy_pow(x, -20))
    # sympy's power, the route ** took before, expands a base of at most 5
    # terms by multinomial coefficients; the binomial split of _poly_pow
    # must not be slower on such a base (about 4x faster when measured)
    x = a + b + Scalar.symbol("c")
    fast, t_fast = _best_of_3(lambda: x ** 150)
    slow, t_slow = _best_of_3(lambda: _sympy_pow(x, 150))
    _same(fast, slow)
    assert len(fast._num) == 11476
    assert t_fast <= t_slow, (t_fast, t_slow)


@settings(max_examples=60, deadline=None)
@given(st.one_of(laurents(), rational_functions()))
def test_raw_lift_needs_no_cancel(x):
    # stored forms are reduced with a monic denominator, so lifting them
    # without a gcd gives the element cancel would give; the field is one
    # gen wider than the value, so unused gens are dropped again
    gens = _gens_order(set(x._gens) | {"c"})
    f = field(gens)
    el = lift(x, f, gens)
    assert _form(from_frac(f.new(el.numer, el.denom), gens)) \
        == _form(from_frac(f.raw_new(el.numer, el.denom), gens)) \
        == _form(x)


def _substitute_oracle(x, values):
    """The substitution as sympy's field reduces it: project the terms, then
    field.new and from_frac."""
    from sympy import QQ
    vals = {k: Fraction(val) for k, val in values.items() if k in x._gens}
    keep = [i for i, g in enumerate(x._gens) if g not in vals]
    gens = tuple(x._gens[i] for i in keep)

    def project(terms):
        d = {}
        for exps, coeff in terms:
            for g, e in zip(x._gens, exps):
                if g in vals and e:
                    coeff *= vals[g] ** e
            key = tuple(exps[i] for i in keep)
            d[key] = d.get(key, Fraction(0)) + coeff
        return {k: co for k, co in d.items() if co}

    num, den = project(x._num), project(x._den)
    if not den:
        raise ScalarDomainError("substitution sends denominator to zero: %s" % x)
    if not num:
        return Scalar.zero
    if not gens:
        return Scalar.from_rational(num[()] / den[()])
    f = field(gens)
    ring = lambda d: f.ring.from_dict(
        {k: QQ(co.numerator, co.denominator) for k, co in d.items()})
    return from_frac(f.new(ring(num), ring(den)), gens)


@settings(max_examples=150, deadline=None)
@given(st.one_of(laurents(), rational_functions()),
       st.dictionaries(st.sampled_from("abvw"),
                       st.fractions(-3, 3, max_denominator=3), max_size=4))
def test_substitute_matches_sympy(x, values):
    # partial and full substitutions, zero values included
    try:
        slow = _substitute_oracle(x, values)
    except ScalarDomainError as e:
        with pytest.raises(ScalarDomainError) as ex:
            x.substitute(values)
        assert str(ex.value) == str(e)
    else:
        _same(x.substitute(values), slow)


def test_substitution_leaving_symbols_needs_no_sympy(fresh_python):
    proc = fresh_python("-c", "import sys\n"
                        "from lfac.scalar import Scalar\n"
                        "a, b, c = map(Scalar.symbol, 'abc')\n"
                        "x = ((a*b + 1)/(c*(a - b))).substitute({'a': 2})\n"
                        "print(x, 'sympy' in sys.modules)\n")
    assert proc.stdout == "(-2*b - 1)/(b*c - 2*c) False\n", proc.stderr


def test_substitution_that_needs_a_gcd(gcd_calls):
    x = ((a ** 2 - b ** 2) / (a ** 3 - b ** 3 + c)).substitute({"c": 0})
    assert str(x) == "(a + b)/(a^2 + a*b + b^2)"
    assert len(gcd_calls) == 1


@pytest.fixture
def gcd_calls(monkeypatch):
    """The inputs (n, d) of every scalar._gcd call made while the test
    runs."""
    calls = []
    gcd = scalar._gcd
    monkeypatch.setattr(scalar, "_gcd", lambda n, d:
                        calls.append((dict(n), dict(d))) or gcd(n, d))
    return calls


def test_two_term_operand_needs_no_gcd(gcd_calls):
    s = a + b
    one = Fraction(1)
    assert _form(s * (a * v)) == (
        ("a", "b", "v"), (((2, 0, 1), one), ((1, 1, 1), one)),
        (((0, 0, 0), one),))
    assert _form((a / v) / s) == (
        ("a", "b", "v"), (((1, 0, 0), one),),
        (((1, 0, 1), one), ((0, 1, 1), one)))
    # a sum times a monomial stays a Laurent polynomial, and the quotient by
    # the two-term a + b has a monomial numerator, so its gcd is a monomial
    assert gcd_calls == []
    # a power of a reduced fraction needs no gcd either
    assert _form(s ** -2) == (
        ("a", "b"), (((0, 0), one),),
        (((2, 0), one), ((1, 1), Fraction(2)), ((0, 2), one)))
    assert str(-s / (2 * b)) == "(-1/2*a - 1/2*b)/b"
    # sums over different one-term denominators m1, m2 are taken over their
    # lcm, and only monomial content cancels
    assert _form(a / v + b / v ** 2) == (
        ("a", "b", "v"), (((1, 0, 1), one), ((0, 1, 0), one)),
        (((0, 0, 2), one),))
    assert _form(1 / a - 1 / b) == (
        ("a", "b"), (((1, 0), -one), ((0, 1), one)), (((1, 1), one),))
    assert _form(a * v / b - a * v / b + 1) == _form(Scalar.one)
    assert _form((a + b) / v - a / v) == (
        ("b", "v"), (((1, 0), one),), (((0, 1), one),))
    # a sum over a denominator of two terms: the gcd of the denominators is
    # a monomial, found by exact division, or certified 1 by _linear, and
    # the numerator's gcd with it is decided the same way
    assert _form(1 / s + 1) == (
        ("a", "b"), (((1, 0), one), ((0, 1), one), ((0, 0), one)),
        (((1, 0), one), ((0, 1), one)))
    assert _form(a / s - b / s) == (
        ("a", "b"), (((1, 0), one), ((0, 1), -one)),
        (((1, 0), one), ((0, 1), one)))
    assert _form(1 / s + 1 / (a + c)) == (
        ("a", "b", "c"),
        (((1, 0, 0), Fraction(2)), ((0, 1, 0), one), ((0, 0, 1), one)),
        (((2, 0, 0), one), ((1, 1, 0), one), ((1, 0, 1), one),
         ((0, 1, 1), one)))
    assert gcd_calls == []


@pytest.mark.parametrize("make, text, gcd", [
    # monomial gcd: one side of each cross pair has one term
    (lambda: (a ** 2 / (a + b)) * (b / a), "a*b/(a + b)", 0),
    # exact division; the monomial content a of a*v + a is split off first
    (lambda: (a ** 2 - b ** 2) / (a - b), "a + b", 0),
    (lambda: (v + 1) / (a * v + a), "a^-1", 0),
    # exact division where the square of the content-free part divides
    (lambda: 1 / (a * v + a) * (a * v + a) ** 2, "a*v + a", 0),
    (lambda: (a + b) ** 3 / (a * b + b ** 2), "(a^2 + 2*a*b + b^2)/b", 0),
    # degree 1 in v with a one-term coefficient: irreducible, no division
    (lambda: (a + b) / (v + b), "(a + b)/(b + v)", 0),
    (lambda: (a * a + a * b) / (a * v + a * b), "(a + b)/(b + v)", 0),
    # degree 1 in v, but both coefficients a^2 + a*b and a*b + b^2 have two
    # terms: no certificate, but the numerator a + b divides the denominator
    (lambda: 1 / ((a + b) * (a * v + b)) * (a + b), "1/(a*v + b)", 0),
    # the same division the other way, after the content b of the numerator
    # is split off
    (lambda: (a * b + b) / (a + 1) ** 2, "b/(a + 1)", 0),
    # the same denominator against a numerator that does not divide it:
    # _gcd finds the gcd a + b
    (lambda: 1 / ((a + b) * (a * v + b)) * ((a + b) * (a + c)),
     "(a + c)/(a*v + b)", 1),
    (lambda: (a ** 2 - b ** 2) / (a ** 3 - b ** 3),
     "(a + b)/(a^2 + a*b + b^2)", 1),
], ids=["monomial", "division", "content", "square", "square-content",
        "linear", "linear-content", "near-miss", "reverse-content",
        "near-miss-gcd", "fallback"])
def test_reduced_product_branches(gcd_calls, make, text, gcd):
    x = make()
    assert str(x) == text
    assert len(gcd_calls) == gcd


def test_power_bound():
    # the estimate is exact for these: no collisions, or a box that fills
    assert len(((a + b + c) ** 400)._num) == 80601
    assert len(((a + b) ** 2000)._num) == 2001
    assert len((sum((v ** k for k in range(5)), Scalar.zero) ** 200)._num) == 801
    assert a ** (10 ** 6) * a ** -(10 ** 6) == 1
    for n in (POWER_TERMS_MAX, -POWER_TERMS_MAX, 10 ** 5000):
        with pytest.raises(LfacValueError, match="power too large"):
            (a + b) ** n
    with pytest.raises(LfacValueError, match="power too large"):
        (a + b + c) ** 500
    # within the term bound, but with binomial coefficients of about 30,000
    # digits, past what str() prints: refused before it expands
    start = time.perf_counter()
    with pytest.raises(LfacValueError,
                       match="more than %d digits" % POWER_DIGITS_MAX):
        (a + b) ** -99999
    assert time.perf_counter() - start < 0.5
    # the coefficients of (a/1000 + b/1000)^n have denominators of 3n + 1
    # digits, though their numerators have fewer than n/3
    x = (a / 1000 + b / 1000) ** 1400
    assert str(x).startswith("1/1%s*a^1400 + " % ("0" * 4200))
    with pytest.raises(LfacValueError, match="%d digits" % POWER_DIGITS_MAX):
        (a / 1000 + b / 1000) ** 1450
    # a one-term coefficient p/q is bounded too, by n * log10(max(|p|, q)),
    # before its power is taken; a coefficient of +-1 has no digit bound
    for x in (Scalar.from_rational(3), 2 * a, a / 3, -a / 7):
        for n in (20000000, -20000000):
            start = time.perf_counter()
            with pytest.raises(LfacValueError, match="%d digits" % POWER_DIGITS_MAX):
                x ** n
            assert time.perf_counter() - start < 0.5
    assert len(str(Scalar.from_rational(2) ** 14000)) == 4215
    assert str(Scalar.from_rational(-1) ** (10 ** 5000 + 1)) == "-1"
    assert str(v ** -99999999999) == "v^-99999999999"
    with pytest.raises(LfacValueError, match="power too large"):
        Scalar.from_rational(2) ** 14300
    # the bound is the module's, not the interpreter's run-time setting
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        with pytest.raises(LfacValueError, match="power too large"):
            (a + b) ** -99999
    finally:
        sys.set_int_max_str_digits(limit)


def test_power_bound_on_monomials_with_gens():
    # the one digit rule, n * log10(max(|p|, q)) for the coefficient p/q,
    # holds for a Laurent monomial with gens as for a rational constant
    for x, n in ((2 * a, 99999), (2 * a * v, -99999),
                 (Fraction(2, 3) * a, 9100)):
        start = time.perf_counter()
        with pytest.raises(LfacValueError,
                           match="more than %d digits" % POWER_DIGITS_MAX):
            x ** n
        assert time.perf_counter() - start < 0.5
    assert str((2 * a) ** 14000) == "%d*a^14000" % 2 ** 14000
    assert len(str(2 ** 14000)) == 4215
    x = (Fraction(2, 3) * a) ** 9000
    assert str(x) == "%s*a^9000" % (Fraction(2, 3) ** 9000)
    assert str((Fraction(-2, 3) * a * v ** -2) ** -3) == "-27/8*a^-3*v^6"


def test_hash_is_cached_and_route_free():
    routes = [a, Scalar.symbol("a"), (a * b) / b, (a ** 2 - a * b) / (a - b),
              (a * v) * v ** -1, parse_scalar("a")]
    assert len({_form(x) for x in routes}) == 1
    assert len({hash(x) for x in routes}) == 1
    assert routes[3]._hash == hash(routes[3])  # filled on first use
    for r in (3, Fraction(-7, 2), 0):
        built = [Scalar.from_rational(r), (a / a) * r, (a + r) - a,
                 Scalar.from_rational(2 * r) / 2]
        assert {hash(x) for x in built} == {hash(Fraction(r))}


# ------------------------------------------------------- times a power of v

_TIMES_V_CASES = [
    Scalar.zero, Scalar.one, Scalar.from_rational(Fraction(-3, 2)),
    a * b ** -2, 2 * a * v ** 3, Fraction(1, 3) * v ** -2,
    Scalar.symbol("w") * v,
    (a + v) / (b * v ** 2 + a * v), c / (v ** 2 + c), v / (a + b),
    (a * v ** 2 + b) / (c - v), (a + b * v ** 3) / v ** 2,
    (a + b) * v ** 2, 1 / ((a + b) * v),
]


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.sampled_from(_TIMES_V_CASES), monomials(), laurents(),
                 rational_functions()),
       st.one_of(st.integers(-6, 6),
                 st.sampled_from([10 ** 30, -10 ** 30, 10 ** 30 + 1])))
def test_times_v_matches_product(x, k):
    fast, slow = x.times_v(k), x * Scalar.v_power(k)
    assert fast.sort_key() == slow.sort_key()
    assert hash(fast) == hash(slow) and str(fast) == str(slow)


def test_times_v_is_an_offset(gcd_calls):
    s = (a + v) / (b * v ** 2 + a * v)
    assert str(s.times_v(1)) == "(a + v)/(a + b*v)"
    assert str(s.times_v(2)) == "(a*v + v^2)/(a + b*v)"
    # the v content left on the denominator only, and then none at all
    assert str((c / (v ** 2 + c)).times_v(-1)) == "c/(c*v + v^3)"
    assert (a * v).times_v(-1).symbols == ("a",)
    assert ((a + b) * v ** 2).times_v(-2).symbols == ("a", "b")
    assert (v ** 2).times_v(-2) == 1
    assert s.times_v(0) is s and Scalar.zero.times_v(5) is Scalar.zero
    assert str(v.times_v(10 ** 30)) == "v^%d" % (10 ** 30 + 1)
    assert gcd_calls == []


def test_is_one_reads_the_stored_form():
    assert Scalar.one.is_one and (a / a).is_one and v.times_v(-1).is_one
    assert Scalar.from_rational(Fraction(4, 4)).is_one
    for x in (Scalar.zero, Scalar.from_rational(-1), a, v, a / (a + 1)):
        assert not x.is_one


def _same_quotient(x, y):
    # the one-step quotient against the product with the inverse, the route
    # it replaces, and against the sympy path
    got, want = x / y, x * y ** -1
    _same(got, want)
    assert str(got) == str(want) and got.sort_key() == want.sort_key()
    _same(got, binary(x, y, operator.truediv))


@settings(max_examples=300, deadline=None)
@given(monomial_pairs())
def test_monomial_quotient_matches_the_power_route(pair):
    # constants, disjoint gens and exponents that cancel are among the draws;
    # x / x cancels every gen
    x, y = pair
    for p, q in ((x, y), (y, x), (x, x)):
        _same_quotient(p, q)


@pytest.mark.parametrize("x, y", [
    (Fraction(2, 3), Fraction(-4, 5)),
    (Fraction(2, 3), Fraction(2, 3)),
    (Fraction(-2), a * v ** -3),
    (a * v ** -3, Fraction(-2)),
    (a * v ** -3, Fraction(1)),
    (a ** 2 / b, c * v),
    (Fraction(3, 2) * a ** 2 * v / b, Fraction(-3, 4) * a ** 2 * v / b),
    (a * v / b, b / (a * v)),
], ids=["constants", "constant-cancels", "constant-by-monomial",
        "monomial-by-constant", "by-one", "disjoint", "cancels", "inverse"])
def test_monomial_quotient_cases(x, y):
    _same_quotient(*(Scalar.from_rational(z) if isinstance(z, Fraction) else z
                     for z in (x, y)))


def test_a_product_on_different_gens_takes_one_plan():
    # the union of the gens and where each of its gens sits in each operand
    assert scalar._gens_plan(("a", "v"), ("b",)) \
        == (("a", "b", "v"), (0, 2, 1), (1, 0, 1))
    before = scalar._gens_plan.cache_info()
    assert str(Scalar.symbol("a") * Scalar.v_power(-1) / Scalar.symbol("b")) \
        == "a*b^-1*v^-1"
    after = scalar._gens_plan.cache_info()
    assert after.hits + after.misses == before.hits + before.misses + 2

"""Exact scalars: rational functions over Q in v and finitely many symbols.

Conventions in force throughout the package:

* v is a formal square root of the residue cardinality, so q never appears
  as a generator; anything stated in terms of q means v*v here.
* A scalar is kept as a reduced fraction of two multivariate polynomials
  with Fraction coefficients.  The global monomial order is lex with the
  symbols sorted alphabetically and v always compared last (so v is the
  least significant position).  The denominator is monic for that order.
  Two equal rational functions therefore have identical stored forms, and
  str() output is byte-stable.
* Symbols are python identifiers.  "q", "X", "x" and "sp" are reserved by
  the expression language and rejected here.

Arithmetic is computed here on exponent vectors:

* products and quotients of two Laurent monomials (a one-term numerator
  over a one-term denominator, the nonzero rational constants included),
  the common case, directly on signed exponent vectors: the coefficients
  multiply or divide, the exponents add or subtract, the gens whose
  exponent cancels to 0 are dropped and the rest split by sign into
  numerator and denominator (_monomial_product);
* a product with a power v**k of v, the shift of a Satake value and of
  s -> s + t, as an offset of the v exponents (times_v): v is the last gen,
  so the term order and the monic denominator stay, and only the v content
  that both sides then share cancels;
* every integer power: if p/q is reduced with q monic, so is p**n/q**n; a
  power estimated past POWER_TERMS_MAX terms, or with coefficients
  estimated past POWER_DIGITS_MAX digits, is refused before it expands.
  A power of a Laurent monomial c * gens**e, the constants included, is
  c**n * gens**(n*e) on its exponent vectors: nothing expands, a
  coefficient of 1 is not raised, and c**n is refused when
  n * log10(max(|p|, q)) passes the digit bound for c = p/q in lowest
  terms, so 3^20000000 and (2*a)^99999 are refused at once while
  v^-99999999999 (c = 1) and 2^14000 (4215 digits) are not.  An exponent
  that is a number but not an integer, such as 1/2 or 1.5, is refused,
  not truncated;
* every other quotient, as the product with the inverse, which is reduced
  too;
* every other product, of reduced fractions n1/d1 * n2/d2, whose gcd is
  gcd(n1, d2) * gcd(n2, d1) (_product);
* every sum and difference, by Henrici's rule (_sum): with g = gcd(d1, d2),
  d1 = e1*g and d2 = e2*g, n1/d1 +- n2/d2 is t/(e1*e2*g) for
  t = n1*e2 +- n2*e1, and only gcd(t, g) is left to cancel;
* negation.

Every gcd is taken by _cancel.  It is a monomial when a side has one term,
or is found by exact division after the monomial content of the
denominator is split off, or is a monomial when that denominator is
certified irreducible by having degree 1 in a gen, or is found by exact
division the other way, of the denominator by the content-free numerator,
as in (a + b)/(a + b)^2.  A gcd none of these rules decides, such as that
of (a^2 - b^2)/(a^3 - b^3), or that of the denominators of
1/(a + b)^2 + 1/(a + c)^2, comes from _gcd, a polynomial gcd with
cofactors in sympy's sparse polynomial rings.  _gcd is the only way into
sympy, for sums and products alike: _ring imports it on the first such gcd,
not on an import of this module.  This module owns the canonical form, the
ordering, the hash and the rendering.  One term printer, _term_text, prints
every signed term, and a Laurent monomial as the single term of its signed
exponent vector, such as a*v^-3.  A rational constant hashes like the
Fraction it equals; a Laurent monomial hashes on ints, its exponent vectors
and the numerator and denominator of its coefficient, since hashing a
Fraction is a Python-level call.
"""

from __future__ import annotations

import functools
import math
import numbers
import operator
import re
from fractions import Fraction

from .errors import (HalfIntegerError, LfacValueError, ScalarDomainError,
                     _printable)

__all__ = ["Scalar", "half_integer", "RESERVED_NAMES", "POWER_TERMS_MAX",
           "POWER_DIGITS_MAX"]

RESERVED_NAMES = frozenset({"q", "X", "x", "sp"})

_NAME_RE = re.compile(r"\A[A-Za-z_][A-Za-z0-9_]*\Z")

# one term of a polynomial: (exponent vector over the gens, coefficient)
Term = tuple[tuple[int, ...], Fraction]
_EXPS = operator.itemgetter(0)


def half_integer(t) -> Fraction:
    """Coerce t to an exact half-integer (denominator 1 or 2).

    >>> half_integer("3/2")
    Fraction(3, 2)
    >>> half_integer(2)
    Fraction(2, 1)
    """
    f = Fraction(t)
    if f.denominator not in (1, 2):
        raise HalfIntegerError("not a half-integer: %s" % (t,))
    return f


def _v_exponent(t) -> int:
    """-2t as an int for a half-integer t: the power of v in X -> v^{-2t} X
    (the shift s -> s + t) and in |.|^t.  An int or a Fraction is read off
    directly; any other input goes through half_integer.

    >>> _v_exponent(1), _v_exponent(Fraction(-1, 2)), _v_exponent("3/2")
    (-2, 1, -3)
    """
    if type(t) is int:
        return -2 * t
    if type(t) is not Fraction:
        t = half_integer(t)
    d = t.denominator
    if d == 1:
        return -2 * t.numerator
    if d == 2:
        return -t.numerator
    raise HalfIntegerError("not a half-integer: %s" % (t,))


def _integer(n) -> int:
    """n as an int, for an exponent or an index: a number equal to an
    integer, such as Fraction(4, 2) or 2.0, is that integer; any other
    number raises LfacValueError, and a value that is not a number
    TypeError.  The hot callers test type(n) is int before the call.

    >>> _integer(Fraction(4, 2)), _integer(-3.0)
    (2, -3)
    """
    if type(n) is int:
        return n
    if not isinstance(n, numbers.Number):
        raise TypeError("not a number: %r" % (n,))
    try:
        f = Fraction(n)
    except (TypeError, ValueError, OverflowError):  # complex, nan, inf
        f = None
    if f is None or f.denominator != 1:
        raise LfacValueError("not an integer: %s" % (n,))
    return f.numerator


def _check_name(name: str) -> str:
    if not isinstance(name, str) or not _NAME_RE.match(name):
        raise LfacValueError("bad symbol name: %r" % (name,))
    if name in RESERVED_NAMES:
        raise LfacValueError("symbol name %r is reserved" % (name,))
    return name


def _gens_order(names) -> tuple[str, ...]:
    # alphabetical, v forced last; this is the one global order
    rest = sorted(n for n in names if n != "v")
    return tuple(rest) + (("v",) if "v" in names else ())


@functools.lru_cache(maxsize=None)
def _gens_union(g1: tuple[str, ...], g2: tuple[str, ...]) -> tuple[str, ...]:
    return _gens_order(set(g1) | set(g2))


@functools.lru_cache(maxsize=None)
def _positions(sub: tuple[str, ...], gens: tuple[str, ...]) -> tuple[int, ...]:
    # where each gen of gens sits in sub, len(sub) for a gen sub lacks
    return tuple(sub.index(g) if g in sub else len(sub) for g in gens)


@functools.lru_cache(maxsize=None)
def _gens_plan(g1: tuple[str, ...], g2: tuple[str, ...]):
    # the union of g1 and g2, and where each of its gens sits in g1 and in g2
    gens = _gens_union(g1, g2)
    return gens, _positions(g1, gens), _positions(g2, gens)


# The most terms a power may expand to, by the estimate of _power_terms; a
# larger power raises LfacValueError before it expands.  The bound is set by
# time and output size, like wdrep.SP_MAX and wdrep.BLOCK_MAX: it admits
# (a + b + c)^400 (80,601 terms) and (a + b)^2000, but refuses
# (a + b)^-100000.
POWER_TERMS_MAX = 100000

# The most decimal digits, by the estimate of _power_digits, of the
# numerators and denominators of a power's coefficients; a longer power
# raises LfacValueError before it expands, such as (a + b)^-99999, whose
# binomial coefficients run to 30,000 digits.  The bound is the default limit
# of Python's str() on int digits, so whether a power is refused does not
# depend on that run-time setting; printing still guards whatever limit is in
# force (errors._printable).
POWER_DIGITS_MAX = 4300


def _power_terms(terms, n: int) -> int:
    """An upper bound on the terms of the n-th power of a polynomial of k
    terms: the number C(n + k - 1, k - 1) of products of n of its terms, or
    the number of exponent vectors in the box that n times its range of
    exponents spans, whichever is less.  For k >= 2 both are at least n + 1,
    so a huge n needs neither."""
    k = len(terms)
    if k == 1:
        return 1
    if n > POWER_TERMS_MAX:
        return n + 1
    box = 1
    for col in zip(*[e for e, _ in terms]):
        box *= n * (max(col) - min(col)) + 1
    return min(math.comb(n + k - 1, k - 1), box)


def _power_digits(terms, n: int) -> float:
    """An upper bound on the decimal digits of the numerators and the
    denominators of the coefficients of the n-th power of a polynomial.  On
    coefficients scaled to integers by the lcm d of their denominators,
    every coefficient of the power is at most s**n / d**n, s the sum of the
    absolute scaled coefficients, so it has at most n * log10(max(s, d))
    digits above and below.  For one term p/q that is n * log10(max(|p|, q)),
    the digits of p**n or q**n to within one, and 0 for a coefficient of
    +-1, whose powers of any size stay short."""
    if len(terms) == 1:
        c = terms[0][1]
        m = max(abs(c.numerator), c.denominator)
    else:
        d = math.lcm(*(c.denominator for _, c in terms))
        m = max(d, sum(abs(c.numerator) * (d // c.denominator)
                       for _, c in terms))
    if m == 1:
        return 0
    # log10(m) >= log10(2), so capping n where the estimate already passes
    # POWER_DIGITS_MAX changes no verdict, and a huge n cannot overflow the
    # float product
    return min(n, 4 * POWER_DIGITS_MAX) * math.log10(m)


def _check_power_digits(n: int, *sides) -> None:
    """Refuse the n-th power of a fraction whose sides have these terms
    when _power_digits passes POWER_DIGITS_MAX on either side."""
    if max([_power_digits(terms, n) for terms in sides]) > POWER_DIGITS_MAX:
        raise LfacValueError("power too large: coefficients of more than "
                             "%d digits" % POWER_DIGITS_MAX)


def _poly_mul(p: dict, q: dict) -> dict:
    """The product of two polynomials held as {exponent vector: coefficient},
    with int or Fraction coefficients; a cancelled term stays as a zero.  A
    monic one-term factor only shifts the exponents of the other, and the
    factor 1 returns the other itself."""
    if len(p) == 1:
        p, q = q, p
    if len(q) == 1:
        ((m, c),) = q.items()
        if c == 1:
            return _shift(p, tuple(map(operator.neg, m)))
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(map(operator.add, e1, e2))
            if e in out:
                out[e] += c1 * c2
            else:
                out[e] = c1 * c2
    return out


def _poly_pow(terms, n: int) -> tuple[Term, ...]:
    """The n-th power (n >= 1) of a polynomial given by its terms, as terms
    in descending lex order, on integer coefficients scaled by the lcm of
    the denominators.  The first term t splits off by the binomial theorem,
    (t + r)**n = sum of C(n, j) t**j r**(n - j), and the powers of the rest
    r are built one factor at a time; for a base of k terms without
    collisions that costs about k products per output term."""
    if len(terms) == 1:
        ((e, c),) = terms
        return ((tuple([k * n for k in e]), c ** n),)
    d = math.lcm(*(c.denominator for _, c in terms))
    (et, ct), *rest = [(e, c.numerator * (d // c.denominator)) for e, c in terms]
    rest = dict(rest)
    powers = [{tuple(0 for _ in et): 1}]
    for _ in range(n):
        powers.append(_poly_mul(powers[-1], rest))
    out = {}
    coeff = 1
    for j, power in enumerate(reversed(powers)):
        # coeff is C(n, j) * ct**j, and power is r**(n - j)
        shift = tuple(k * j for k in et)
        for e, c in power.items():
            e = tuple(map(operator.add, e, shift))
            out[e] = out.get(e, 0) + coeff * c
        coeff = coeff * ct * (n - j) // (j + 1)
    dn = d ** n
    return tuple(sorted(((e, Fraction(c, dn)) for e, c in out.items() if c),
                        key=_EXPS, reverse=True))


def _shift(p: dict, m) -> dict:
    """p divided by the monomial gens**m, which must divide it; p itself
    when m is all zeros."""
    if not any(m):
        return p
    return {tuple(map(operator.sub, e, m)): c for e, c in p.items()}


def _exact_quotient(p: dict, d: dict):
    """p / d when the polynomial d divides p exactly, else None.  This is
    lex long division, which for one divisor leaves remainder 0 exactly
    when d divides p; it stops at the first leading term that the leading
    term of d does not divide, since that term would stay in the remainder.
    Every term a step adds is below the leading term it removed, so a heap
    of negated exponent vectors yields the leading terms in turn.  The
    division runs on integer coefficients: p is scaled by the lcm of its
    denominators, and d to a primitive integer polynomial, so by Gauss's
    lemma an exact quotient has integer coefficients too, and a leading
    coefficient that the leading coefficient of d does not divide also
    ends it."""
    import heapq  # here, so that a cold start that never divides skips it
    sp = math.lcm(*(c.denominator for c in p.values()))
    sd = math.lcm(*(c.denominator for c in d.values()))
    p = {e: c.numerator * (sp // c.denominator) for e, c in p.items()}
    d = {e: c.numerator * (sd // c.denominator) for e, c in d.items()}
    g = math.gcd(*d.values())
    if g != 1:
        d = {e: c // g for e, c in d.items()}
    ld = max(d)
    lc = d[ld]
    tail = [(e, c) for e, c in d.items() if e != ld]
    heap = [tuple(map(operator.neg, e)) for e in p]
    heapq.heapify(heap)
    q = {}
    while heap:
        lp = tuple(map(operator.neg, heapq.heappop(heap)))
        c = p.pop(lp)
        if not c:
            continue
        e = tuple(map(operator.sub, lp, ld))
        if min(e) < 0 or c % lc:
            return None
        c = q[e] = c // lc
        for et, ct in tail:
            t = tuple(map(operator.add, et, e))
            if t in p:
                p[t] -= c * ct
            else:
                p[t] = -c * ct
                heapq.heappush(heap, tuple(map(operator.neg, t)))
    # p/d is the integer quotient times sd / (sp * g)
    scale = Fraction(sd, sp * g)
    return {e: c * scale for e, c in q.items()}


def _linear(d: dict) -> bool:
    """True when d, free of monomial content, has degree 1 in some gen x and
    its coefficient of x or of 1 is a single term.  A common factor of the
    two coefficients would then be a monomial dividing every term of d, so
    there is none: d is primitive of degree 1 in x and hence irreducible."""
    for col in zip(*d):
        if max(col) == 1 and (col.count(1) == 1 or col.count(0) == 1):
            return True
    return False


def _cancel(n: dict, d: dict):
    """(n / g, d / g, g) for g the gcd of the polynomials n and d.  g is a
    monomial when either side has one term.  Otherwise d splits as m * d0, m
    its monomial content (the least exponent of each gen over its terms): if
    d0 divides n, g is d0 times a monomial; if d0 is certified irreducible by
    _linear, g is a monomial.  Failing both, the content-free part n0 of n is
    tried the other way: if n0 divides d, g is n0 times a monomial; else
    _gcd takes it.  The monomial is the least exponent of each gen over the
    terms of both sides."""
    g = None
    if len(n) > 1 and len(d) > 1:
        m = tuple(map(min, zip(*d)))
        d0 = _shift(d, m)
        q = _exact_quotient(n, d0)
        if q is not None:
            n, d, g = q, {m: _ONE_C}, d0
        elif not _linear(d0):
            m = tuple(map(min, zip(*n)))
            n0 = _shift(n, m)
            q = _exact_quotient(d, n0)
            if q is None:
                return _gcd(n, d)
            n, d, g = {m: _ONE_C}, q, n0
    k = tuple(map(min, zip(*n, *d)))
    mono = {k: _ONE_C}
    return _shift(n, k), _shift(d, k), mono if g is None else _poly_mul(g, mono)


@functools.lru_cache(maxsize=None)
def _ring(k: int):
    # sympy's ring over Q in k gens with the lex order of the exponent
    # vectors, imported on the first gcd _cancel cannot decide
    from sympy import QQ
    from sympy.polys.orderings import lex
    from sympy.polys.rings import PolyRing
    return PolyRing(["x%d" % i for i in range(k)], QQ, lex)


def _gcd(n: dict, d: dict):
    """(n / g, d / g, g) for g the gcd of two polynomials of two or more
    terms, by sympy's sparse polynomial gcd with cofactors: the one place the
    package uses sympy."""
    ring = _ring(len(next(iter(n))))
    n, d = (ring.from_dict({e: ring.domain(c.numerator, c.denominator)
                            for e, c in p.items()}) for p in (n, d))
    g, n, d = n.cofactors(d)
    return tuple({e: Fraction(int(c.numerator), int(c.denominator))
                  for e, c in p.terms()} for p in (n, d, g))


class Scalar:
    """An exact rational function in v and Satake symbols.

    Construct through the classmethods and operators; every instance is in
    canonical form and hashable.

    >>> a, b = Scalar.symbol("a"), Scalar.symbol("b")
    >>> (a**2 - b**2) / (a - b) == a + b
    True
    >>> str(a * Scalar.v_power(-3))
    'a*v^-3'
    """

    __slots__ = ("_gens", "_num", "_den", "_hash")

    def __init__(self, gens: tuple[str, ...], num: tuple[Term, ...], den: tuple[Term, ...]):
        # private: inputs must already be canonical
        self._gens = gens
        self._num = num
        self._den = den
        self._hash = None

    # ---------------------------------------------------------------- build

    @classmethod
    def from_rational(cls, x) -> "Scalar":
        f = Fraction(x)
        if f == 0:
            return cls((), (), (((), _ONE_C),))
        return cls((), (((), f),), (((), _ONE_C),))

    @classmethod
    def symbol(cls, name: str) -> "Scalar":
        _check_name(name)
        return cls((name,), (((1,), _ONE_C),), (((0,), _ONE_C),))

    @classmethod
    def v_power(cls, k: int) -> "Scalar":
        """v**k for any integer k (negative allowed)."""
        if type(k) is not int:
            k = _integer(k)
        if k == 0:
            return _ONE
        if k > 0:
            return cls(("v",), (((k,), _ONE_C),), (((0,), _ONE_C),))
        return cls(("v",), (((0,), _ONE_C),), (((-k,), _ONE_C),))

    @classmethod
    def _from_polys(cls, num: dict, den: dict, gens: tuple[str, ...]) -> "Scalar":
        """The canonical form of num/den, two polynomials {exponent vector
        over gens: Fraction coefficient} with no common factor: zero terms
        are dropped, both sides are sorted in descending lex order and
        divided by the leading coefficient of den unless it is 1, and a gen
        neither side uses is dropped."""
        nt = sorted([t for t in num.items() if t[1]], key=_EXPS, reverse=True)
        if not nt:
            return _ZERO
        dt = sorted([t for t in den.items() if t[1]], key=_EXPS, reverse=True)
        lead = dt[0][1]
        if lead != 1:
            nt = [(e, c / lead) for e, c in nt]
            dt = [(e, c / lead) for e, c in dt]
        used = [any(col) for col in zip(*[e for e, _ in nt], *[e for e, _ in dt])]
        if not all(used):
            nt = [(tuple([k for k, u in zip(e, used) if u]), c) for e, c in nt]
            dt = [(tuple([k for k, u in zip(e, used) if u]), c) for e, c in dt]
            gens = tuple([g for g, u in zip(gens, used) if u])
        return cls(gens, tuple(nt), tuple(dt))

    @classmethod
    def _monomial(cls, gens: tuple[str, ...], e, c: Fraction) -> "Scalar":
        """The canonical form of c * gens**e for a nonzero c and a signed
        exponent vector e: the gens whose exponent is 0 are dropped and
        the exponents split by sign into a monic denominator."""
        if not all(e):
            gens = tuple([g for g, k in zip(gens, e) if k])
            e = [k for k in e if k]
        return cls(gens, ((tuple([k if k > 0 else 0 for k in e]), c),),
                   ((tuple([-k if k < 0 else 0 for k in e]), _ONE_C),))

    def _monomial_product(self, other, op=operator.add) -> "Scalar":
        """self * other, or self / other for op operator.sub, for two Laurent
        monomials (one-term numerators and denominators), on signed exponent
        vectors over the union of gens: op combines the exponents."""
        ((n1, c1),), ((d1, _),) = self._num, self._den
        ((n2, c2),), ((d2, _),) = other._num, other._den
        if op is operator.add:
            c = c2 if c1 == 1 else c1 if c2 == 1 else c1 * c2
        else:
            c = c1 if c2 == 1 else c1 / c2
        if not other._gens:
            # a rational constant only scales the coefficient
            return self if c2 == 1 else Scalar(self._gens, ((n1, c),), self._den)
        if not self._gens:
            if op is not operator.add:
                # c * d2/n2: the inverse swaps the exponent vectors
                return Scalar(other._gens, ((d2, c),), ((n2, _ONE_C),))
            return other if c1 == 1 else Scalar(other._gens, ((n2, c),), other._den)
        e1 = map(operator.sub, n1, d1)
        e2 = map(operator.sub, n2, d2)
        gens = self._gens
        if gens != other._gens:
            # each gen of the union read from its place in each operand, or
            # from a 0 appended past the end
            gens, at1, at2 = _gens_plan(gens, other._gens)
            e1 = map((*e1, 0).__getitem__, at1)
            e2 = map((*e2, 0).__getitem__, at2)
        return Scalar._monomial(gens, tuple(map(op, e1, e2)), c)

    def times_v(self, k: int) -> "Scalar":
        """self * v**k, built on the v exponents alone.

        v is the last gen, so adding k to the v exponent of every numerator
        term keeps the term order and the monic leading denominator term.
        Of p*v**k / q, p/q reduced, only the v content both sides share
        cancels: the smaller of their least v exponents.

        >>> a = Scalar.symbol("a")
        >>> str(((a + Scalar.v_power(1)) / Scalar.v_power(2)).times_v(3))
        'a*v + v^2'
        """
        if type(k) is not int:
            k = _integer(k)
        if not k or not self._num:
            return self
        gens, num, den = self._gens, self._num, self._den
        if not gens or gens[-1] != "v":
            # p/q free of v: p*v**k / q, or p / (q*v**-k), is reduced
            gens = gens + ("v",)
            up, down = (k, 0) if k > 0 else (0, -k)
            return Scalar(gens, tuple([(e + (up,), c) for e, c in num]),
                          tuple([(e + (down,), c) for e, c in den]))
        if len(num) == 1 and len(den) == 1:
            ((en, c),), ((ed, one),) = num, den
            k += en[-1] - ed[-1]
            if not k:
                return Scalar(gens[:-1], ((en[:-1], c),), ((ed[:-1], one),))
            up, down = (k, 0) if k > 0 else (0, -k)
            return Scalar(gens, ((en[:-1] + (up,), c),),
                          ((ed[:-1] + (down,), one),))
        cut = min(min([e[-1] for e, _ in num]) + k,
                  min([e[-1] for e, _ in den]))
        up = k - cut
        num = tuple([(e[:-1] + (e[-1] + up,), c) for e, c in num])
        den = tuple([(e[:-1] + (e[-1] - cut,), c) for e, c in den])
        if not any(e[-1] for e, _ in num) and not any(e[-1] for e, _ in den):
            return Scalar(gens[:-1], tuple([(e[:-1], c) for e, c in num]),
                          tuple([(e[:-1], c) for e, c in den]))
        return Scalar(gens, num, den)

    # ---------------------------------------------------------------- reduced fractions

    def _polys(self, gens: tuple[str, ...]) -> tuple[dict, dict]:
        """Numerator and denominator as dicts over gens, a superset of
        self._gens in the global order."""
        if gens == self._gens:
            return dict(self._num), dict(self._den)
        at = _positions(self._gens, gens)
        return tuple({tuple(map((*e, 0).__getitem__, at)): c for e, c in terms}
                     for terms in (self._num, self._den))

    def _product(self, other) -> "Scalar":
        """self * other for reduced fractions n1/d1 and n2/d2.  Since
        gcd(n1, d1) = gcd(n2, d2) = 1, the gcd of n1*n2 and d1*d2 is
        gcd(n1, d2) * gcd(n2, d1), and _cancel takes each."""
        gens = _gens_union(self._gens, other._gens)
        n1, d1 = self._polys(gens)
        n2, d2 = other._polys(gens)
        n1, d2, _ = _cancel(n1, d2)
        n2, d1, _ = _cancel(n2, d1)
        return Scalar._from_polys(_poly_mul(n1, n2), _poly_mul(d1, d2), gens)

    # ---------------------------------------------------------------- predicates

    @property
    def is_zero(self) -> bool:
        return not self._num

    @property
    def is_one(self) -> bool:
        # a constant has no gens and the monic denominator 1
        return self is _ONE or (not self._gens and len(self._num) == 1
                                and self._num[0][1] == 1)

    @property
    def symbols(self) -> tuple[str, ...]:
        return self._gens

    # ---------------------------------------------------------------- arithmetic

    @staticmethod
    def _coerce(x):
        if isinstance(x, Scalar):
            return x
        if isinstance(x, (int, Fraction)):
            return Scalar.from_rational(x)
        return None

    def _sum(self, o, op) -> "Scalar":
        """self + o or self - o, op being operator.add or operator.sub, by
        Henrici's rule.  For reduced n1/d1 and n2/d2 let g = gcd(d1, d2),
        d1 = e1*g and d2 = e2*g; the result is t/(e1*e2*g) for
        t = n1*e2 +- n2*e1.  A factor of t and e1 divides n1*e2, which is
        prime to e1, and likewise for e2, so gcd(t, e1*e2*g) = gcd(t, g):
        the gcd of the product of the denominators is never taken.  Over
        one-term denominators g is their elementwise min, and e1*e2*g
        their lcm."""
        gens = _gens_union(self._gens, o._gens)
        n1, d1 = self._polys(gens)
        n2, d2 = o._polys(gens)
        e1, e2, g = _cancel(d1, d2)
        # a copy, since the product may be n1 or e2 itself
        t = dict(_poly_mul(n1, e2))
        for e, c in _poly_mul(n2, e1).items():
            t[e] = op(t.get(e, 0), c)
        # a cancelled term would hold down the monomial content
        t, g, _ = _cancel({e: c for e, c in t.items() if c}, g)
        return Scalar._from_polys(t, _poly_mul(_poly_mul(e1, e2), g), gens)

    def __add__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else self._sum(o, operator.add)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else self._sum(o, operator.sub)

    def __rsub__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else o._sum(self, operator.sub)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if len(self._num) == len(o._num) == len(self._den) == len(o._den) == 1:
            return self._monomial_product(o)
        return self._product(o)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_zero:
            raise ScalarDomainError("division by zero scalar")
        if len(self._num) == len(o._num) == len(self._den) == len(o._den) == 1:
            return self._monomial_product(o, operator.sub)
        # the inverse of a reduced fraction is reduced, so no gcd is needed
        return self * o ** -1

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __neg__(self):
        # the denominator stays monic, so negating the numerator is canonical
        return Scalar(self._gens, tuple((e, -c) for e, c in self._num), self._den)

    def __pow__(self, n):
        if type(n) is not int:
            try:
                n = _integer(n)
            except TypeError:
                return NotImplemented
        if n == 0:
            return _ONE
        if self.is_zero:
            if n < 0:
                raise ScalarDomainError("inversion of zero scalar")
            return _ZERO
        # p/q reduced with q monic makes p**n/q**n reduced with a monic
        # denominator, since lex leading terms multiply; for n < 0 the
        # inverse (q/c)/(p/c), c the leading coefficient of p, is raised
        num, den = self._num, self._den
        if n < 0:
            n, c = -n, num[0][1]
            num, den = den, num
            if c != 1:
                num = tuple([(e, d / c) for e, d in num])
                den = tuple([(e, d / c) for e, d in den])
        if n == 1:
            return Scalar(self._gens, num, den)
        if len(num) == len(den) == 1:
            # a Laurent monomial: scaling both exponent vectors by n keeps
            # every gen used, and the denominator's coefficient stays 1
            ((en, c),), ((ed, one),) = num, den
            if c != 1:
                _check_power_digits(n, num)
                c = c ** n
            return Scalar(self._gens, ((tuple([k * n for k in en]), c),),
                          ((tuple([k * n for k in ed]), one),))
        if max(_power_terms(num, n), _power_terms(den, n)) > POWER_TERMS_MAX:
            raise LfacValueError("power too large: more than %d terms"
                                 % POWER_TERMS_MAX)
        _check_power_digits(n, num, den)
        return Scalar(self._gens, _poly_pow(num, n), _poly_pow(den, n))

    def inverse(self) -> "Scalar":
        return self ** -1

    # ---------------------------------------------------------------- misc

    def as_fraction(self) -> Fraction:
        """The value as an exact rational; symbolic values raise."""
        if self._gens:
            raise ScalarDomainError("not a constant: %s" % (self,))
        # the monic denominator of a constant is 1
        return self._num[0][1] if self._num else Fraction(0)

    def substitute(self, values: dict) -> "Scalar":
        """Substitute exact rational values for symbols (unknown keys ignored).

        Partial substitution is fine; a denominator collapsing to zero raises
        ScalarDomainError.  Each side is rebuilt from its terms with Scalar
        arithmetic, so the quotient is reduced like any other.
        """
        vals = {k: Fraction(v) for k, v in values.items() if k in self._gens}
        if not vals:
            return self
        gens = [Scalar.from_rational(vals[g]) if g in vals else Scalar.symbol(g)
                for g in self._gens]

        def side(terms):
            out = _ZERO
            for exps, coeff in terms:
                term = Scalar.from_rational(coeff)
                for g, e in zip(gens, exps):
                    if e:
                        term = term * g ** e
                out = out + term
            return out

        den = side(self._den)
        if den.is_zero:
            raise ScalarDomainError("substitution sends denominator to zero: %s" % self)
        return side(self._num) / den

    def sort_key(self):
        return (self._gens, self._num, self._den)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self._gens, self._num, self._den) == (o._gens, o._num, o._den)

    def __hash__(self):
        # computed once; a rational hashes like the Fraction it equals, and
        # a Laurent monomial on ints (its denominator coefficient is 1)
        if self._hash is None:
            gens, num, den = self._gens, self._num, self._den
            if not gens:
                self._hash = hash(self.as_fraction())
            elif len(num) == len(den) == 1:
                ((en, c),), ((ed, _),) = num, den
                self._hash = hash((gens, en, ed, c.numerator, c.denominator))
            else:
                self._hash = hash((gens, num, den))
        return self._hash

    # ---------------------------------------------------------------- rendering

    def _term_text(self, exps, coeff: Fraction) -> str:
        # one signed term: coefficient then symbols in gens order (v last)
        body = "*".join(g if e == 1 else "%s^%d" % (g, e)
                        for g, e in zip(self._gens, exps) if e)
        if not body:
            return str(coeff)
        if coeff == 1:
            return body
        if coeff == -1:
            return "-" + body
        return "%s*%s" % (coeff, body)

    def _poly_text(self, terms) -> str:
        first, *rest = [self._term_text(*t) for t in terms]
        return first + "".join(" - " + t[1:] if t[0] == "-" else " + " + t
                               for t in rest)

    @_printable
    def __str__(self):
        if not self._num:
            return "0"
        if len(self._num) == 1 and len(self._den) == 1:
            # a Laurent monomial: one term on the signed exponent vector
            ((en, c),), ((ed, _),) = self._num, self._den
            return self._term_text(tuple(map(operator.sub, en, ed)), c)
        num = self._poly_text(self._num)
        if len(self._den) == 1 and not any(self._den[0][0]):
            return num
        den = self._poly_text(self._den)
        if len(self._num) > 1:
            num = "(%s)" % num
        if len(self._den) > 1 or sum(1 for e in self._den[0][0] if e) > 1:
            # a one-term denominator still needs parens when it is a product,
            # since a/b*c reads as (a/b)*c
            den = "(%s)" % den
        return "%s/%s" % (num, den)

    def __repr__(self):
        return "Scalar(%s)" % self


_ONE_C = Fraction(1)
_ZERO = Scalar((), (), (((), _ONE_C),))
_ONE = Scalar((), (((), _ONE_C),), (((), _ONE_C),))
Scalar.zero = _ZERO
Scalar.one = _ONE


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

Arithmetic is computed here on exponent vectors wherever no multivariate
gcd is needed:

* products of two Laurent monomials (a one-term numerator over a one-term
  denominator, the nonzero rational constants included), the common case,
  directly on signed exponent vectors: the coefficients multiply, the
  exponents add, the gens whose exponent cancels to 0 are dropped and the
  rest split by sign into numerator and denominator (_monomial_product);
* sums, differences and the other products of Laurent polynomials (any
  numerator over a one-term denominator, zero included), read as dicts
  from exponent vector to coefficient;
* every integer power: if p/q is reduced with q monic, so is p**n/q**n; a
  power estimated past POWER_TERMS_MAX terms, or with coefficients
  estimated past POWER_DIGITS_MAX digits, is refused before it expands.
  That holds for a one-term base too, whose coefficient c**n is refused
  when n * log10(max(|p|, q)) passes the bound for c = p/q in lowest
  terms, so 3^20000000 is refused at once while v^-99999999999 (c = 1) and
  2^14000 (4215 digits) are not;
* every quotient, as the product with the inverse, which is reduced too;
* a product of reduced fractions n1/d1 * n2/d2, whose gcd is
  gcd(n1, d2) * gcd(n2, d1): each factor is a monomial when a side has one
  term, or found by exact division after the monomial content of the
  denominator is split off, or is a monomial when that denominator is
  certified irreducible by having degree 1 in a gen (see _cancel);
* negation.

Everything else, a sum or difference in which a denominator of two or more
terms takes part, or a product whose gcd none of the rules above decides
(such as (a^2 - b^2)/(a^3 - b^3)), lifts both operands into sympy's sparse
rational-function fields, which cancel the multivariate gcd (Scalar._binary,
also the oracle the paths above are tested against).  _binary is the only
way into sympy: it is imported on the first such operation, never by
importing this module, and a substitution builds its result with the
arithmetic above.  This module owns the canonical form, the ordering and
the rendering.
"""

from __future__ import annotations

import functools
import math
import operator
import re
from fractions import Fraction

from .errors import (HalfIntegerError, LfacValueError, ScalarDomainError,
                     _printable)

__all__ = ["Scalar", "scalar_canonicalize", "half_integer", "RESERVED_NAMES",
           "POWER_TERMS_MAX", "POWER_DIGITS_MAX"]

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
def _field(gens: tuple[str, ...]) -> FracField:
    from sympy import QQ
    from sympy.polys.fields import FracField
    from sympy.polys.orderings import lex
    return FracField(gens, QQ, lex)


def _to_fraction(c) -> Fraction:
    return Fraction(int(c.numerator), int(c.denominator))


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


def _poly_mul(p: dict, q: dict) -> dict:
    """The product of two polynomials held as {exponent vector: coefficient},
    with int or Fraction coefficients; a cancelled term stays as a zero."""
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
    """p divided by the monomial gens**m, which must divide it."""
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
    """(n / g, d / g) for g the gcd of the polynomials n and d, or None when
    deciding g would take a multivariate gcd.  g is a monomial when either
    side has one term.  Otherwise d splits as m * d0, m its monomial content
    (the least exponent of each gen over its terms): if d0 divides n, g is
    d0 times a monomial; if d0 is certified irreducible by _linear, g is a
    monomial.  In every case the monomial left is the least exponent of each
    gen over the terms of both sides."""
    if len(n) > 1 and len(d) > 1:
        m = tuple(map(min, zip(*d)))
        d0 = _shift(d, m)
        q = _exact_quotient(n, d0)
        if q is not None:
            n, d = q, {m: _ONE_C}
        elif not _linear(d0):
            return None
    g = tuple(map(min, zip(*n, *d)))
    return _shift(n, g), _shift(d, g)


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
            return cls((), (), (((), Fraction(1)),))
        return cls((), (((), f),), (((), Fraction(1)),))

    @classmethod
    def symbol(cls, name: str) -> "Scalar":
        _check_name(name)
        return cls((name,), (((1,), Fraction(1)),), (((0,), Fraction(1)),))

    @classmethod
    def v_power(cls, k: int) -> "Scalar":
        """v**k for any integer k (negative allowed)."""
        k = int(k)
        if k == 0:
            return _ONE
        if k > 0:
            return cls(("v",), (((k,), Fraction(1)),), (((0,), Fraction(1)),))
        return cls(("v",), (((0,), Fraction(1)),), (((-k,), Fraction(1)),))

    @classmethod
    def _from_frac(cls, el, gens: tuple[str, ...]) -> "Scalar":
        """Extract the canonical form of a FracElement over the given gens."""
        return cls._from_polys({e: _to_fraction(c) for e, c in el.numer.terms()},
                               {e: _to_fraction(c) for e, c in el.denom.terms()},
                               gens)

    @classmethod
    def _from_polys(cls, num: dict, den: dict, gens: tuple[str, ...]) -> "Scalar":
        """The canonical form of num/den, two polynomials {exponent vector
        over gens: coefficient} with no common factor; zero terms are
        dropped, as are the gens neither uses."""
        nt = sorted([t for t in num.items() if t[1]], key=_EXPS, reverse=True)
        if not nt:
            return _ZERO
        dt = sorted([t for t in den.items() if t[1]], key=_EXPS, reverse=True)
        used = [i for i in range(len(gens))
                if any(t[0][i] for t in nt) or any(t[0][i] for t in dt)]
        sub_gens = tuple(gens[i] for i in used)
        lead = dt[0][1]
        num = tuple((tuple(e[i] for i in used), c / lead) for e, c in nt)
        den = tuple((tuple(e[i] for i in used), c / lead) for e, c in dt)
        return cls(sub_gens, num, den)

    # ---------------------------------------------------------------- Laurent polynomials

    def _laurent_pair(self, other):
        """(gens, terms of self, terms of other) when both denominators have
        one term, else None.  gens is the union of both gen lists in the
        global order, and each value is read as a dict from exponent vector
        over gens to coefficient; its monic denominator only shifts the
        exponents."""
        if len(self._den) > 1 or len(other._den) > 1:
            return None
        gens = self._gens if self._gens == other._gens \
            else _gens_union(self._gens, other._gens)
        return gens, self._laurent(gens), other._laurent(gens)

    def _laurent(self, gens: tuple[str, ...]) -> dict:
        ((ed, _),) = self._den
        if gens == self._gens:
            return {tuple(map(operator.sub, en, ed)): c for en, c in self._num}
        # each gen of gens read from its place in self._gens, or from a 0
        # appended past the end
        at = _positions(self._gens, gens)
        return {tuple(map((*map(operator.sub, en, ed), 0).__getitem__, at)): c
                for en, c in self._num}

    @classmethod
    def _from_laurent(cls, terms: dict, gens: tuple[str, ...]) -> "Scalar":
        """The canonical form of the sum of c * gens**e over terms {e: c};
        the form _from_frac gives the same value.  The denominator is the
        monic monomial that lifts the least exponent of each gen to 0."""
        terms = [t for t in terms.items() if t[1]]
        if not terms:
            return _ZERO
        if len(terms) == 1:
            ((e, c),) = terms
            return cls._monomial(gens, e, c)
        cols = list(zip(*[e for e, _ in terms]))
        used = [i for i, col in enumerate(cols) if any(col)]
        shift = [(i, max(-min(cols[i]), 0)) for i in used]
        num = sorted([(tuple([e[i] + s for i, s in shift]), c) for e, c in terms],
                     key=_EXPS, reverse=True)
        return cls(tuple([gens[i] for i in used]), tuple(num),
                   ((tuple([s for _, s in shift]), _ONE_C),))

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

    def _monomial_product(self, other) -> "Scalar":
        """self * other for two Laurent monomials (one-term numerators and
        denominators), on signed exponent vectors over the union of gens."""
        ((n1, c1),), ((d1, _),) = self._num, self._den
        ((n2, c2),), ((d2, _),) = other._num, other._den
        c = c2 if c1 == 1 else c1 if c2 == 1 else c1 * c2
        if not other._gens:
            # a rational constant only scales the coefficient
            return self if c2 == 1 else Scalar(self._gens, ((n1, c),), self._den)
        if not self._gens:
            return other if c1 == 1 else Scalar(other._gens, ((n2, c),), other._den)
        e1 = map(operator.sub, n1, d1)
        e2 = map(operator.sub, n2, d2)
        gens = self._gens
        if gens != other._gens:
            # each gen of the union read from its place in each operand, or
            # from a 0 appended past the end
            gens = _gens_union(gens, other._gens)
            e1 = map((*e1, 0).__getitem__, _positions(self._gens, gens))
            e2 = map((*e2, 0).__getitem__, _positions(other._gens, gens))
        return Scalar._monomial(gens, tuple(map(operator.add, e1, e2)), c)

    # ---------------------------------------------------------------- sympy glue

    def _lift(self, field: FracField, gens: tuple[str, ...]):
        # stored forms are reduced and monic, so no cancel is needed
        from sympy import QQ
        pos = {g: i for i, g in enumerate(gens)}
        width = len(gens)

        def poly(terms):
            d = {}
            for exps, coeff in terms:
                vec = [0] * width
                for g, e in zip(self._gens, exps):
                    vec[pos[g]] = e
                d[tuple(vec)] = QQ(coeff.numerator, coeff.denominator)
            return field.ring.from_dict(d)

        if not self._num:
            return field.zero
        return field.raw_new(poly(self._num), poly(self._den))

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
        gcd(n1, d2) * gcd(n2, d1), and _cancel finds each of those on
        exponent vectors or gives up; only then does _binary take a gcd."""
        gens = _gens_union(self._gens, other._gens)
        n1, d1 = self._polys(gens)
        n2, d2 = other._polys(gens)
        c1 = _cancel(n1, d2)
        c2 = c1 and _cancel(n2, d1)
        if c2 is None:
            return self._binary(other, operator.mul)
        return Scalar._from_polys(_poly_mul(c1[0], c2[0]),
                                  _poly_mul(c2[1], c1[1]), gens)

    def _binary(self, other, op) -> "Scalar":
        gens = _gens_union(self._gens, other._gens)
        field = _field(gens)
        return Scalar._from_frac(op(self._lift(field, gens), other._lift(field, gens)), gens)

    # ---------------------------------------------------------------- predicates

    @property
    def is_zero(self) -> bool:
        return not self._num

    @property
    def is_one(self) -> bool:
        return self == _ONE

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
        # op is operator.add or operator.sub
        pair = self._laurent_pair(o)
        if pair is None:
            return self._binary(o, op)
        gens, p, q = pair
        for e, c in q.items():
            p[e] = op(p.get(e, 0), c)
        return Scalar._from_laurent(p, gens)

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
        pair = self._laurent_pair(o)
        if pair is None:
            return self._product(o)
        gens, p, q = pair
        return Scalar._from_laurent(_poly_mul(p, q), gens)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_zero:
            raise ScalarDomainError("division by zero scalar")
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
        n = int(n)
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
        if max(_power_terms(num, n), _power_terms(den, n)) > POWER_TERMS_MAX:
            raise LfacValueError("power too large: more than %d terms"
                                 % POWER_TERMS_MAX)
        if max(_power_digits(num, n),
               _power_digits(den, n)) > POWER_DIGITS_MAX:
            raise LfacValueError("power too large: coefficients of more "
                                 "than %d digits" % POWER_DIGITS_MAX)
        return Scalar(self._gens, _poly_pow(num, n), _poly_pow(den, n))

    def inverse(self) -> "Scalar":
        return self ** -1

    # ---------------------------------------------------------------- misc

    def as_fraction(self) -> Fraction:
        """The value as an exact rational; symbolic values raise."""
        if self._gens:
            raise ScalarDomainError("not a constant: %s" % (self,))
        num = self._num[0][1] if self._num else Fraction(0)
        den = self._den[0][1]
        return num / den

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
        # computed once; a rational hashes like the Fraction it equals
        if self._hash is None:
            self._hash = hash(self.as_fraction()) if not self._gens \
                else hash((self._gens, self._num, self._den))
        return self._hash

    # ---------------------------------------------------------------- rendering

    def _monomial_text(self, exps_num, exps_den, coeff: Fraction) -> str:
        # Laurent monomial: coefficient then symbols in gens order (v last)
        pieces = []
        for g, en, ed in zip(self._gens, exps_num, exps_den):
            e = en - ed
            if e == 1:
                pieces.append(g)
            elif e:
                pieces.append("%s^%d" % (g, e))
        if not pieces:
            return str(coeff)
        body = "*".join(pieces)
        if coeff == 1:
            return body
        if coeff == -1:
            return "-" + body
        return "%s*%s" % (coeff, body)

    def _poly_text(self, terms) -> str:
        out = []
        for i, (exps, coeff) in enumerate(terms):
            mono = "*".join(
                g if e == 1 else "%s^%d" % (g, e)
                for g, e in zip(self._gens, exps) if e)
            mag = abs(coeff)
            if not mono:
                body = str(mag)
            elif mag == 1:
                body = mono
            else:
                body = "%s*%s" % (mag, mono)
            if i == 0:
                out.append(("-" if coeff < 0 else "") + body)
            else:
                out.append((" - " if coeff < 0 else " + ") + body)
        return "".join(out)

    @_printable
    def __str__(self):
        if not self._num:
            return "0"
        if len(self._num) == 1 and len(self._den) == 1:
            return self._monomial_text(self._num[0][0], self._den[0][0],
                                       self._num[0][1] / self._den[0][1])
        num = self._poly_text(self._num)
        if len(self._den) == 1 and self._den[0][1] == 1 and not any(self._den[0][0]):
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
_ONE = Scalar((), (((), Fraction(1)),), (((), Fraction(1)),))
Scalar.zero = _ZERO
Scalar.one = _ONE


def scalar_canonicalize(x) -> Scalar:
    """Canonicalize scalar-like input: Scalar (idempotent), int, Fraction, or
    expression text understood by the surface grammar."""
    if isinstance(x, Scalar):
        return x
    if isinstance(x, (int, Fraction)):
        return Scalar.from_rational(x)
    if isinstance(x, str):
        from .dsl import parse_scalar
        return parse_scalar(x)
    raise TypeError("cannot canonicalize %r as a scalar" % (x,))

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

Products, quotients, powers and negations of Laurent monomials (one
numerator term over one denominator term, zero and the rational constants
included) are computed here on exponent vectors, which covers nearly all of
the package's arithmetic.  Everything else, every sum and difference in
particular, lifts both operands into sympy's sparse rational-function fields,
which cancel the multivariate gcd.  sympy is imported on the first such sum
or on the first substitution that leaves symbols, never by importing this
module.  This module owns the canonical form, the ordering and the rendering.
"""

from __future__ import annotations

import functools
import operator
import re
from fractions import Fraction

from .errors import (HalfIntegerError, LfacValueError, ScalarDomainError,
                     _printable)

__all__ = ["Scalar", "scalar_canonicalize", "half_integer", "RESERVED_NAMES"]

RESERVED_NAMES = frozenset({"q", "X", "x", "sp"})

_NAME_RE = re.compile(r"\A[A-Za-z_][A-Za-z0-9_]*\Z")

# one term of a polynomial: (exponent vector over the gens, coefficient)
Term = tuple[tuple[int, ...], Fraction]


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
def _field(gens: tuple[str, ...]) -> FracField:
    from sympy import QQ
    from sympy.polys.fields import FracField
    from sympy.polys.orderings import lex
    return FracField(gens, QQ, lex)


def _to_fraction(c) -> Fraction:
    return Fraction(int(c.numerator), int(c.denominator))


def _sorted_terms(poly) -> list:
    return sorted(poly.terms(), key=lambda t: t[0], reverse=True)


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
        nt = _sorted_terms(el.numer)
        dt = _sorted_terms(el.denom)
        if not nt:
            return cls((), (), (((), Fraction(1)),))
        used = [i for i in range(len(gens))
                if any(t[0][i] for t in nt) or any(t[0][i] for t in dt)]
        sub_gens = tuple(gens[i] for i in used)
        lead = _to_fraction(dt[0][1])
        num = tuple((tuple(e[i] for i in used), _to_fraction(c) / lead) for e, c in nt)
        den = tuple((tuple(e[i] for i in used), _to_fraction(c) / lead) for e, c in dt)
        return cls(sub_gens, num, den)

    # ---------------------------------------------------------------- monomials

    def _mono(self):
        """(exponents by gen, coefficient) of a Laurent monomial, zero
        included, else None.  The denominator is monic, so its one term
        carries coefficient 1."""
        if len(self._num) > 1 or len(self._den) > 1:
            return None
        if not self._num:
            return {}, Fraction(0)
        (en, c), ((ed, _),) = self._num[0], self._den
        return {g: n - d for g, n, d in zip(self._gens, en, ed) if n != d}, c

    @classmethod
    def _from_mono(cls, exps: dict, c: Fraction) -> "Scalar":
        """The canonical form of c times the product of g**exps[g]; the
        form _from_frac gives the same value."""
        if not c:
            return _ZERO
        gens = _gens_order([g for g, e in exps.items() if e])
        return cls(gens, ((tuple(max(exps[g], 0) for g in gens), c),),
                   ((tuple(max(-exps[g], 0) for g in gens), _ONE_C),))

    # ---------------------------------------------------------------- sympy glue

    def _lift(self, field: FracField, gens: tuple[str, ...]):
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
        return field.new(poly(self._num), poly(self._den))

    def _binary(self, other, op) -> "Scalar":
        gens = _gens_order(set(self._gens) | set(other._gens))
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
    def is_rational(self) -> bool:
        return not self._gens

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

    def __add__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else self._binary(o, operator.add)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else self._binary(o, operator.sub)

    def __rsub__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else o._binary(self, operator.sub)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        m, n = self._mono(), o._mono()
        if m is None or n is None:
            return self._binary(o, operator.mul)
        exps = dict(m[0])
        for g, e in n[0].items():
            exps[g] = exps.get(g, 0) + e
        return Scalar._from_mono(exps, m[1] * n[1])

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_zero:
            raise ScalarDomainError("division by zero scalar")
        m, n = self._mono(), o._mono()
        if m is None or n is None:
            return self._binary(o, operator.truediv)
        exps = dict(m[0])
        for g, e in n[0].items():
            exps[g] = exps.get(g, 0) - e
        return Scalar._from_mono(exps, m[1] / n[1])

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
        m = self._mono()
        if m is not None:
            return Scalar._from_mono({g: e * n for g, e in m[0].items()}, m[1] ** n)
        gens = self._gens
        field = _field(gens)
        return Scalar._from_frac(self._lift(field, gens) ** n, gens)

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
        ScalarDomainError.
        """
        vals = {k: Fraction(v) for k, v in values.items() if k in self._gens}
        if not vals:
            return self
        keep = [i for i, g in enumerate(self._gens) if g not in vals]
        gens = tuple(self._gens[i] for i in keep)

        def project(terms):
            d = {}
            for exps, coeff in terms:
                c = coeff
                for g, e in zip(self._gens, exps):
                    if g in vals and e:
                        c *= vals[g] ** e
                vec = tuple(exps[i] for i in keep)
                d[vec] = d.get(vec, Fraction(0)) + c
            return {k: v for k, v in d.items() if v}

        num_d, den_d = project(self._num), project(self._den)
        if not den_d:
            raise ScalarDomainError("substitution sends denominator to zero: %s" % self)
        if not num_d:
            return _ZERO
        if not gens:
            num = sum(num_d.values())  # single () key
            den = sum(den_d.values())
            return Scalar.from_rational(Fraction(num) / Fraction(den))
        from sympy import QQ
        field = _field(gens)
        conv = lambda d: field.ring.from_dict(
            {k: QQ(c.numerator, c.denominator) for k, c in d.items()})
        return Scalar._from_frac(field.new(conv(num_d), conv(den_d)), gens)

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

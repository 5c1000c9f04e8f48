"""Factored rational functions of q^{-s} and the fractional ideals they generate.

The ring variable X stands for q^{-s}.  Everything this package ever divides
or classifies lives in the multiplicative family

    unit * X^xpower * prod_i (1 - beta_i X)^{e_i}

with exact scalar unit and bases, so products, quotients, the substitution
s -> s + t and gcd-type ideal operations never leave factored form.  An
L-factor is the special case unit 1, xpower 0, all exponents <= 0 (then the
value is 1/P(X) with P(0) = 1).

The factors are kept sorted by base (Scalar.sort_key), and every
operation keeps that order where it can: a product or a quotient merges its
two sorted factor lists in one pass, adding or subtracting the exponents, an
inverse or a power only negates or scales the exponents, and only the
substitution s -> s + t, which can reorder the bases, and the constructors
sort.  For a half-integer t that substitution is X -> v^{-2t} X, an integer
offset of the v exponents of the unit and of every base.

Ideal semantics: X is a unit of C[q^s, q^{-s}], so a fractional ideal only
sees the exponents at each base.  The sum of the principal ideals (f_1),
..., (f_k) is generated by the factor-wise minimum, with an input lacking a
base contributing exponent 0 there.
"""

from __future__ import annotations

import operator
from fractions import Fraction

from .errors import LfacValueError, ScalarDomainError, _printable
from .record import Record
from .scalar import Scalar, _integer, _v_exponent

__all__ = ["SplitRational", "IdealGen", "ideal_generator"]


def _as_scalar(x) -> Scalar:
    if isinstance(x, Scalar):
        return x
    return Scalar.from_rational(x)


def _sorted_factors(pairs) -> tuple:
    return tuple(sorted([(b, e) for b, e in pairs if e],
                        key=lambda p: p[0].sort_key()))


def _merge(xs: tuple, ys: tuple, op=operator.add) -> tuple:
    """The factors of a product of two sorted factor tuples, or of a quotient
    for op operator.sub, merged in one pass: op combines the exponents of a
    base on both sides, a base only ys has takes op(0, e), and a base whose
    exponent cancels to 0 drops.  Equal sort keys are equal bases."""
    add = op is operator.add
    out = []
    i = j = 0
    while i < len(xs) and j < len(ys):
        (bx, ex), (by, ey) = xs[i], ys[j]
        kx, ky = bx.sort_key(), by.sort_key()
        if kx == ky:
            e = op(ex, ey)
            if e:
                out.append((bx, e))
            i += 1
            j += 1
        elif kx < ky:
            out.append(xs[i])
            i += 1
        else:
            out.append(ys[j] if add else (by, -ey))
            j += 1
    rest = ys[j:] if add else [(b, -e) for b, e in ys[j:]]
    return (*out, *xs[i:], *rest)


class SplitRational:
    """A unit times a monomial in X times split linear factors.

    >>> a = Scalar.symbol("a")
    >>> f = SplitRational.from_poles([a, a * Scalar.v_power(-1)])
    >>> str(f)
    '1/((1 - a*X)(1 - a*v^-1*X))'
    >>> str(f * f.inverse())
    '1'
    """

    __slots__ = ("unit", "xpower", "factors")

    def __init__(self, unit=1, xpower: int = 0, factors=()):
        unit = _as_scalar(unit)
        if unit.is_zero:
            raise ScalarDomainError("unit of a split rational must be nonzero")
        merged: dict[Scalar, int] = {}
        for beta, e in factors:
            beta = _as_scalar(beta)
            e = _integer(e)
            if e == 0 or beta.is_zero:  # (1 - 0*X) is the empty factor
                continue
            merged[beta] = merged.get(beta, 0) + e
        self.unit = unit
        self.xpower = _integer(xpower)
        self.factors = _sorted_factors(merged.items())

    @classmethod
    def _canonical(cls, unit: Scalar, xpower: int,
                   factors: tuple) -> "SplitRational":
        """Private: skips the coercion, the merge and the sort of __init__.
        Precondition: unit is a nonzero Scalar, xpower an int, and factors
        a tuple of (base, exponent) pairs with distinct nonzero Scalar
        bases in sort_key order and nonzero int exponents."""
        f = object.__new__(cls)
        f.unit = unit
        f.xpower = xpower
        f.factors = factors
        return f

    # ---------------------------------------------------------------- build

    @classmethod
    def one(cls) -> "SplitRational":
        return cls()

    @classmethod
    def from_poles(cls, betas) -> "SplitRational":
        """The L-factor with simple poles at the given bases: prod 1/(1 - b X).
        Int and Fraction bases are coerced, and zero bases dropped."""
        merged: dict[Scalar, int] = {}
        for b in betas:
            b = _as_scalar(b)
            if not b.is_zero:
                merged[b] = merged.get(b, 0) - 1
        return cls._canonical(Scalar.one, 0, _sorted_factors(merged.items()))

    # ---------------------------------------------------------------- ring ops

    def __mul__(self, other):
        if not isinstance(other, SplitRational):
            return NotImplemented
        # most units are 1, and a product with 1 need not be computed
        u, w = self.unit, other.unit
        unit = w if u.is_one else u if w.is_one else u * w
        return SplitRational._canonical(unit, self.xpower + other.xpower,
                                        _merge(self.factors, other.factors))

    def inverse(self) -> "SplitRational":
        return self ** -1

    def __truediv__(self, other):
        if not isinstance(other, SplitRational):
            return NotImplemented
        # most units are 1, and a quotient by 1 need not be computed
        u, w = self.unit, other.unit
        return SplitRational._canonical(
            u if w.is_one else u / w, self.xpower - other.xpower,
            _merge(self.factors, other.factors, operator.sub))

    def __pow__(self, n):
        if type(n) is not int:
            try:
                n = _integer(n)
            except TypeError:
                return NotImplemented
        if n == 0:
            return SplitRational._canonical(Scalar.one, 0, ())
        # scaling the exponents by n != 0 keeps the bases and their order
        return SplitRational._canonical(
            self.unit ** n, self.xpower * n,
            tuple([(b, e * n) for b, e in self.factors]))

    def shift(self, t) -> "SplitRational":
        """The substitution s -> s + t for a half-integer t, i.e. X -> v^{-2t} X.
        The unit and every base move by a power of v, an offset of their v
        exponents (Scalar.times_v)."""
        k = _v_exponent(t)
        if not k:
            return self
        unit = self.unit.times_v(k * self.xpower)
        # b -> b * v^k is injective, so the bases stay distinct, but it can
        # change their order
        return SplitRational._canonical(unit, self.xpower, _sorted_factors(
            [(b.times_v(k), e) for b, e in self.factors]))

    # ---------------------------------------------------------------- queries

    @property
    def is_one(self) -> bool:
        return self.unit.is_one and self.xpower == 0 and not self.factors

    @property
    def is_lfactor(self) -> bool:
        return (self.unit.is_one and self.xpower == 0
                and all(e <= 0 for _, e in self.factors))

    @property
    def contains_units(self) -> bool:
        """Whether the fractional ideal (self) contains the unit ideal."""
        return all(e <= 0 for _, e in self.factors)

    def vanishing_order(self, beta) -> int:
        """Order of vanishing at the point q^{s0} = beta (negative for a pole)."""
        beta = _as_scalar(beta)
        for b, e in self.factors:
            if b == beta:
                return e
        return 0

    def pole_roots(self) -> tuple[Scalar, ...]:
        return tuple(b for b, e in self.factors if e < 0)

    def zero_roots(self) -> tuple[Scalar, ...]:
        return tuple(b for b, e in self.factors if e > 0)

    def substitute(self, values: dict) -> "SplitRational":
        return SplitRational(self.unit.substitute(values), self.xpower,
                             [(b.substitute(values), e) for b, e in self.factors])

    # ---------------------------------------------------------------- identity

    def sort_key(self):
        return (self.unit.sort_key(), self.xpower,
                tuple((b.sort_key(), e) for b, e in self.factors))

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            other = SplitRational(unit=other)
        if not isinstance(other, SplitRational):
            return NotImplemented
        return (self.unit, self.xpower, self.factors) == \
               (other.unit, other.xpower, other.factors)

    def __hash__(self):
        # units hash like their scalar so the coercing equality stays sane
        if not self.factors and not self.xpower:
            return hash(self.unit)
        return hash((self.unit, self.xpower, self.factors))

    # ---------------------------------------------------------------- text

    @staticmethod
    def _beta_text(beta: Scalar) -> str:
        s = str(beta)
        if s.startswith("-") or " " in s:
            return "(%s)" % s
        return s

    @staticmethod
    def _factor_text(beta: Scalar, e: int) -> str:
        base = "(1 - %s*X)" % SplitRational._beta_text(beta)
        return base if e == 1 else "%s^%d" % (base, e)

    @_printable
    def __str__(self):
        top, bot = [], []
        if not self.unit.is_one:
            top.append(self._beta_text(self.unit))
        if self.xpower:
            xp = "X" if abs(self.xpower) == 1 else "X^%d" % abs(self.xpower)
            (top if self.xpower > 0 else bot).append(xp)
        for b, e in self.factors:
            (top if e > 0 else bot).append(self._factor_text(b, abs(e)))

        def group(pieces):
            # explicit '*' between leading unit/X pieces, juxtaposed factors
            out = ""
            for p in pieces:
                if not out:
                    out = p
                elif p.startswith("("):
                    out += p
                else:
                    out += "*" + p
            return out

        num = group(top) or "1"
        if not bot:
            return num
        if len(bot) == 1:
            den = bot[0]
            if not den.startswith("("):
                den = "(%s)" % den  # X^2 and the like
        else:
            den = "(%s)" % group(bot)
        return "%s/%s" % (num, den)

    def __repr__(self):
        return "SplitRational(%s)" % self


class IdealGen(Record):
    """Canonical generator of a sum of principal fractional ideals."""
    generator: SplitRational

    @property
    def is_lfactor(self) -> bool:
        return self.generator.is_lfactor

    @property
    def contains_units(self) -> bool:
        return self.generator.contains_units


def ideal_generator(fs) -> IdealGen:
    """Generator of the fractional ideal sum of the (f_i), unit-normalized.

    The generator of (f_1) + ... + (f_k) carries, at each base beta, the
    minimum exponent over all inputs, an input without that base counting 0.
    Every input divides out, so the result is invariant under permutation
    and duplication of the list.
    """
    fs = list(fs)
    if not fs:
        raise LfacValueError("ideal_generator needs at least one element")
    bases: dict[Scalar, None] = {}
    for f in fs:
        for b, _ in f.factors:
            bases.setdefault(b)
    gen = SplitRational(factors=[
        (b, min(f.vanishing_order(b) for f in fs)) for b in bases])
    return IdealGen(gen)

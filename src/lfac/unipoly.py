"""Dense univariate polynomials over Fraction, for brute-force cross-checks.

This deliberately shares nothing with the factored representation: a fully
specialized split rational is expanded to coefficient lists and compared or
gcd-ed the pedestrian way, so it can serve as an independent oracle for the
ideal and identity machinery.

A polynomial is a list of Fractions indexed by degree, no trailing zeros;
the zero polynomial is [].
"""

from __future__ import annotations

from fractions import Fraction

__all__ = ["polymul", "polygcd", "polydiv_exact", "expand_split",
           "rational_equal", "ideal_normal_form"]


def _trim(p: list) -> list:
    while p and p[-1] == 0:
        p.pop()
    return p


def polymul(p, q):
    if not p or not q:
        return []
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return _trim(out)


def _divmod(p, q):
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    rem = [Fraction(c) for c in p]
    quo = [Fraction(0)] * max(len(rem) - len(q) + 1, 0)
    while len(rem) >= len(q):
        c = rem[-1] / q[-1]
        d = len(rem) - len(q)
        quo[d] = c
        for i, b in enumerate(q):
            rem[d + i] -= c * b
        _trim(rem)
        if not rem:
            break
    return _trim(quo), rem


def polydiv_exact(p, q):
    quo, rem = _divmod(p, q)
    if rem:
        raise ValueError("inexact polynomial division")
    return quo


def _monic(p):
    if not p:
        return p
    lead = p[-1]
    return [c / lead for c in p]


def polygcd(p, q):
    a, b = _monic(list(p)), _monic(list(q))
    while b:
        _, r = _divmod(a, b)
        a, b = b, _monic(r)
    return a if a else []


def expand_split(f) -> tuple[list, list]:
    """Expand a fully specialized SplitRational into (num, den) dense polys.

    Every scalar in f must be constant (substitute first).
    """
    num = [f.unit.as_fraction()]
    den = [Fraction(1)]
    if f.xpower > 0:
        num = polymul(num, [Fraction(0)] * f.xpower + [Fraction(1)])
    elif f.xpower < 0:
        den = polymul(den, [Fraction(0)] * -f.xpower + [Fraction(1)])
    for beta, e in f.factors:
        lin = [Fraction(1), -beta.as_fraction()]
        for _ in range(abs(e)):
            if e > 0:
                num = polymul(num, lin)
            else:
                den = polymul(den, lin)
    return num, den


def rational_equal(a: tuple[list, list], b: tuple[list, list]) -> bool:
    return polymul(a[0], b[1]) == polymul(a[1], b[0])


def ideal_normal_form(num, den) -> tuple[list, list]:
    """Canonical representative modulo Laurent units c X^k: strip X powers,
    cancel the gcd, scale both constant terms to 1 (they are nonzero after
    the stripping, and the unit freedom absorbs both scalings)."""
    num, den = list(num), list(den)
    while num and num[0] == 0:
        num.pop(0)
    while den and den[0] == 0:
        den.pop(0)
    if not num or not den:
        raise ValueError("zero is not a fractional ideal generator")
    g = polygcd(num, den)
    num, den = polydiv_exact(num, g), polydiv_exact(den, g)
    return [x / num[0] for x in num], [x / den[0] for x in den]

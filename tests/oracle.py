"""The oracles of the tests: sympy's rational-function fields for Scalar
arithmetic, and dense univariate polynomials over Fraction for brute-force
cross-checks of the exact engine.

binary(x, y, op) lifts two Scalars whole into sympy's sparse
rational-function field over the union of their gens, applies op there and
reads the canonical form back.  The package itself never lifts a fraction:
it loads sympy only for a gcd _cancel cannot decide, for sums and products
alike (lfac.scalar._gcd), so every route of scalar.py is checked against
this one.

The dense oracle deliberately shares nothing with the factored
representation: a fully specialized split rational is expanded to
coefficient lists and compared or gcd-ed the pedestrian way, so it can
serve as an independent oracle for the ideal and identity machinery.  numeric_equal specializes every symbol to
random rationals and compares the dense expansions; numeric_second_opinion
runs it on every comparison the lfac.verify checks make while it is active.

A dense polynomial is a list of Fractions indexed by degree, no trailing zeros;
the zero polynomial is [].
"""

from __future__ import annotations

import functools
import random
from contextlib import contextmanager
from fractions import Fraction

from lfac import verify
from lfac.scalar import Scalar, _gens_union
from lfac.splitrat import SplitRational

__all__ = ["field", "lift", "from_frac", "binary", "polymul", "polygcd", "polydiv_exact", "expand_split",
           "rational_equal", "ideal_normal_form", "numeric_equal",
           "numeric_second_opinion"]


@functools.lru_cache(maxsize=None)
def field(gens: tuple[str, ...]):
    from sympy import QQ
    from sympy.polys.fields import FracField
    from sympy.polys.orderings import lex
    return FracField(gens, QQ, lex)


def _to_fraction(c) -> Fraction:
    return Fraction(int(c.numerator), int(c.denominator))


def lift(x: Scalar, field, gens: tuple[str, ...]):
    # stored forms are reduced and monic, so no cancel is needed
    from sympy import QQ
    if not x._num:
        return field.zero
    num, den = (field.ring.from_dict({e: QQ(c.numerator, c.denominator)
                                      for e, c in p.items()})
                for p in x._polys(gens))
    return field.raw_new(num, den)


def from_frac(el, gens: tuple[str, ...]) -> Scalar:
    """Extract the canonical form of a FracElement over the given gens."""
    return Scalar._from_polys({e: _to_fraction(c) for e, c in el.numer.terms()},
                              {e: _to_fraction(c) for e, c in el.denom.terms()},
                              gens)


def binary(x: Scalar, y: Scalar, op) -> Scalar:
    """op(x, y) computed in sympy's field over the union of their gens."""
    gens = _gens_union(x._gens, y._gens)
    f = field(gens)
    return from_frac(op(lift(x, f, gens), lift(y, f, gens)), gens)


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


def _split_symbols(*fs) -> set[str]:
    out = set()
    for f in fs:
        out.update(f.unit.symbols)
        for b, _ in f.factors:
            out.update(b.symbols)
    return out


def numeric_equal(f: SplitRational, g: SplitRational, seed: int,
                  attempts: int = 10) -> bool:
    """Specialize every symbol to random nonzero rationals and compare dense
    expansions; retries a draw that lands on a degenerate denominator."""
    rng = random.Random(seed)
    syms = sorted(_split_symbols(f, g))
    for _ in range(attempts):
        values = {s: Fraction(rng.randint(1, 40) * rng.choice([1, -1]),
                              rng.randint(1, 7)) for s in syms}
        try:
            fs, gs = f.substitute(values), g.substitute(values)
        except ZeroDivisionError:
            continue
        return rational_equal(expand_split(fs), expand_split(gs))
    raise ValueError("could not find a nondegenerate specialization")


@contextmanager
def numeric_second_opinion(seed: int):
    """While active, every comparison of the lfac.verify checks whose exact
    values agree is also checked by numeric_equal at seed + k, k counting
    the comparisons checked so far; a disagreement is recorded on the
    check's report like an exact one.  Yields the list of the names of the
    comparisons checked, in order."""
    exact = verify._compare
    checked = []

    def compare(rep, a, b, what, *context):
        if a != b:
            return exact(rep, a, b, what, *context)
        k = len(checked)
        checked.append(what)
        if not numeric_equal(a, b, seed + k):
            rep.record(0, 0, "%s: numeric specialization disagrees on %s"
                       % (what, " / ".join(repr(c) for c in context)))

    verify._compare = compare
    try:
        yield checked
    finally:
        verify._compare = exact

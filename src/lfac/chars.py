"""Characters of the Weil group, split into ramification data and Satake value.

A character is a pair: an element of the free abelian group on formal
ramified tags, and an exact scalar recording the value at a uniformizer.
Unramified means the tag part is empty; |.|^t is unramified with value
v^{-2t} (recall |uniformizer| = 1/q and v*v = q).  The free-group model has
no torsion, so quadratic ramified characters are out of scope; the
unramified quadratic character is available as value -1.
"""

from __future__ import annotations

from .errors import LfacValueError, _printable
from .scalar import Scalar, _check_name, _integer, _v_exponent

__all__ = ["Character"]


def _norm_tag(tag) -> tuple:
    if isinstance(tag, dict):
        items = tag.items()
    else:
        items = tag
    acc: dict[str, int] = {}
    for name, e in items:
        _check_name(name)
        acc[name] = acc.get(name, 0) + _integer(e)
    return tuple(sorted((n, e) for n, e in acc.items() if e))


class Character:
    """Immutable character value.

    >>> chi = Character.unramified(Scalar.symbol("a")) * Character.absval("1/2")
    >>> str(chi)
    'unr(a*v^-1)'
    >>> chi.is_unramified, (chi * chi.inverse()).is_trivial
    (True, True)
    """

    __slots__ = ("tag", "satake")

    dim = 1  # as a part of a Weil-Deligne block

    def __init__(self, tag, satake: Scalar = Scalar.one):
        if not isinstance(satake, Scalar):
            satake = Scalar.from_rational(satake)
        if satake.is_zero:
            raise LfacValueError("character value at the uniformizer must be nonzero")
        self.tag = _norm_tag(tag)
        self.satake = satake

    @classmethod
    def _raw(cls, tag: tuple, satake: Scalar) -> "Character":
        # private: tag already normalised and satake a nonzero Scalar
        chi = object.__new__(cls)
        chi.tag = tag
        chi.satake = satake
        return chi

    @classmethod
    def trivial(cls) -> "Character":
        return _TRIVIAL

    @classmethod
    def unramified(cls, satake) -> "Character":
        return cls((), satake)

    @classmethod
    def ramified(cls, name: str, satake=1) -> "Character":
        """A formal ramified character with a bookkeeping uniformizer value."""
        return cls(((name, 1),), satake)

    @classmethod
    def absval(cls, t) -> "Character":
        """|.|^t for half-integer t."""
        return cls((), Scalar.v_power(_v_exponent(t)))

    # ---------------------------------------------------------------- algebra

    def __mul__(self, other):
        if not isinstance(other, Character):
            return NotImplemented
        # a twist by the trivial character must not cost a Scalar multiply
        if other.is_trivial:
            return self
        if self.is_trivial:
            return other
        satake = self.satake * other.satake
        # a tag meets another only when both sides are ramified
        if self.tag and other.tag:
            return Character(self.tag + other.tag, satake)
        return Character._raw(self.tag or other.tag, satake)

    def __truediv__(self, other):
        """self * other.inverse() in one step: the tags subtract and the
        Satake values divide.

        >>> a = Character.unramified(Scalar.symbol("a"))
        >>> str(a / Character.ramified("eta"))
        'ram(eta^-1, a)'
        >>> (Character.ramified("eta", 2) / Character.ramified("eta")).is_unramified
        True
        """
        if not isinstance(other, Character):
            return NotImplemented
        if other.is_trivial:
            return self
        satake = self.satake / other.satake
        tag = tuple([(name, -e) for name, e in other.tag])
        # as in __mul__, a tag meets another only when both sides are ramified
        if self.tag and tag:
            return Character(self.tag + tag, satake)
        return Character._raw(self.tag or tag, satake)

    def __pow__(self, n):
        if type(n) is not int:
            try:
                n = _integer(n)
            except TypeError:
                return NotImplemented
        if n == 0:
            return _TRIVIAL
        # scaling every exponent by n != 0 keeps the tag sorted and nonzero
        return Character._raw(tuple([(name, e * n) for name, e in self.tag]),
                              self.satake ** n)

    def inverse(self) -> "Character":
        return self ** -1

    def det(self) -> "Character":
        return self

    # ---------------------------------------------------------------- queries

    @property
    def is_unramified(self) -> bool:
        return not self.tag

    @property
    def is_trivial(self) -> bool:
        return not self.tag and self.satake.is_one

    def substitute(self, values: dict) -> "Character":
        return Character(self.tag, self.satake.substitute(values))

    def sort_key(self):
        # the leading 0 puts a character block before every irreducible one
        return (0, self.tag, self.satake.sort_key())

    def __eq__(self, other):
        if not isinstance(other, Character):
            return NotImplemented
        return self.tag == other.tag and self.satake == other.satake

    def __hash__(self):
        return hash((self.tag, self.satake))

    # ---------------------------------------------------------------- text

    @_printable
    def __str__(self):
        if self.is_unramified:
            return "unr(%s)" % self.satake
        tag = "*".join(n if e == 1 else "%s^%d" % (n, e) for n, e in self.tag)
        if self.satake.is_one:
            return "ram(%s)" % tag
        return "ram(%s, %s)" % (tag, self.satake)

    def __repr__(self):
        return "Character(%s)" % self


_TRIVIAL = Character((), Scalar.one)

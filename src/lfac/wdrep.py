"""Weil-Deligne representations as multisets of blocks part (x) sp(n).

sp(n) is the (n+1)-dimensional indecomposable with Frobenius acting by
diag(v^-n, v^{-n+2}, ..., v^n) up to twist; sp(0) is trivial and sp(1) is
the usual special representation.  A part is either a Character, of
dimension 1, or an IrredPart, a formal irreducible of dimension >= 2; both
give dim, det() and sort_key(), and `part * chi` twists either by a
character.  Records substitute through Record.substitute.

Irreducible parts are handled in generic position: two of them are equal
exactly when every piece of declared data (dimension, label, dual marker,
accumulated twist, base determinant, declared self-duality twist) agrees.
The dual of a 2-dimensional part is resolved concretely through
rho^vee = rho (x) det(rho)^{-1}; a higher-dimensional part with no declared
self-duality keeps a formal dual marker instead.

L-factors only ever see unramified character blocks: a block unr(alpha) (x)
sp(n) contributes 1/(1 - alpha v^{-n} X), everything else contributes 1.
So lfactor(w, chi) reads the poles of w (x) chi off w's character blocks,
with no twist or tensor product built; tensor_lfactor(w1, w2) reads them off
the unramified lines of w1 (x) w2 without building it, through
_unramified_lines.  The pole classifiers of poles.py read the same two
places: subregular_poles the blocks of pi with n = 0 and n = 1, as lfactor
reads them, and exceptional_poles the lines of _unramified_lines whose
Clebsch-Gordan range holds 0.  A twin pair has one refusal, from
_unramified_lines, for tensor_lfactor and exceptional_poles alike.
"""

from __future__ import annotations

from .chars import Character
from .errors import LfacValueError, UnsupportedTensor
from .record import Record
from .scalar import Scalar, _integer
from .splitrat import SplitRational

__all__ = ["IrredPart", "Block", "WDRep", "SP_MAX", "BLOCK_MAX",
           "check_sp_index", "sp", "sp_tensor",
           "tensor", "tensor_lfactor", "lfactor",
           "similitude_check", "dual", "twist"]

_TRIV = Character.trivial()

# The largest sp index of any block.  The bound is set by output size: the
# widest tensor of two blocks within it, sp(500) x sp(500), has 501 blocks,
# and both it and its L-factor print in under 10 kB.
SP_MAX = 1000

# The most blocks of any representation; a tensor product counts its blocks
# before it builds any.  The bound is set by output size too: a
# representation of 1000 blocks of a plain character prints in about 20 kB.
# It admits sp(500) x sp(500) and sp(30) x sp(30) x sp(30) (721 blocks) but
# refuses a fourth factor sp(30) (19,871 blocks) and the sum of two
# sp(30) x sp(30) x sp(30) (1442 blocks).
BLOCK_MAX = 1000


class IrredPart(Record):
    """A formal irreducible Weil representation of dimension >= 2.

    base_det is the determinant character of the plain labelled irreducible;
    twist accumulates character twists applied afterwards; starred marks the
    formal dual when no resolution is declared.  selfdual_twist, when given,
    declares base^vee = base (x) selfdual_twist and keeps duals star-free.
    """

    dim: int
    label: str
    starred: bool = False
    twist: Character = _TRIV
    base_det: Character = _TRIV
    selfdual_twist: Character | None = None

    def __post_init__(self):
        if self.dim < 2:
            raise LfacValueError("irreducible parts have dimension >= 2")

    def det(self) -> Character:
        d = self.base_det.inverse() if self.starred else self.base_det
        return d * self.twist ** self.dim

    def __mul__(self, chi):
        if not isinstance(chi, Character):
            return NotImplemented
        return self.replace(twist=self.twist * chi)

    def sort_key(self):
        sd = self.selfdual_twist
        return (1, self.dim, self.label, self.starred, self.twist.sort_key(),
                self.base_det.sort_key(), sd.sort_key() if sd else ())


WeilPart = Character | IrredPart


def part_dual(p: WeilPart) -> WeilPart:
    if isinstance(p, Character):
        return p.inverse()
    if p.dim == 2 and not p.starred:
        # rho^vee = rho (x) det(rho)^{-1}, valid for any 2-dimensional rep
        return p.replace(twist=p.base_det.inverse() * p.twist.inverse())
    if p.selfdual_twist is not None and not p.starred:
        return p.replace(twist=p.selfdual_twist * p.twist.inverse())
    return p.replace(starred=not p.starred, twist=p.twist.inverse())


def twin_pair(p: IrredPart, q: IrredPart) -> bool:
    """Whether q is an unramified twist of p^vee (the undetermined tensor case)."""
    d = part_dual(p)
    return (d.dim == q.dim and d.label == q.label and d.starred == q.starred
            and d.base_det == q.base_det
            and d.selfdual_twist == q.selfdual_twist
            and d.twist.tag == q.twist.tag)


def check_sp_index(n: int) -> None:
    """Refuse an sp index outside 0 <= n <= SP_MAX with LfacValueError."""
    if n < 0:
        raise LfacValueError("sp index must be >= 0")
    if n > SP_MAX:
        raise LfacValueError("sp index must be at most %d" % SP_MAX)


def check_block_count(count: int) -> None:
    """Refuse a representation of more than BLOCK_MAX blocks with
    LfacValueError."""
    if count > BLOCK_MAX:
        raise LfacValueError("representation would have %d blocks, more than %d"
                             % (count, BLOCK_MAX))


class Block(Record):
    part: WeilPart
    n: int

    def __post_init__(self):
        check_sp_index(self.n)

    @property
    def dim(self) -> int:
        return self.part.dim * (self.n + 1)

    def sort_key(self):
        return (self.part.sort_key(), self.n)


class WDRep:
    """A finite multiset of blocks, kept sorted for canonical identity."""

    __slots__ = ("blocks",)

    def __init__(self, blocks=()):
        blocks = tuple(blocks)
        check_block_count(len(blocks))
        self.blocks = tuple(sorted(blocks, key=Block.sort_key))

    @property
    def dim(self) -> int:
        return sum(b.dim for b in self.blocks)

    @property
    def character_parted(self) -> bool:
        return all(isinstance(b.part, Character) for b in self.blocks)

    def __add__(self, other):
        if not isinstance(other, WDRep):
            return NotImplemented
        return WDRep(self.blocks + other.blocks)

    def substitute(self, values) -> "WDRep":
        return WDRep(b.substitute(values) for b in self.blocks)

    def sort_key(self):
        return tuple(b.sort_key() for b in self.blocks)

    def __eq__(self, other):
        if not isinstance(other, WDRep):
            return NotImplemented
        return self.blocks == other.blocks

    def __hash__(self):
        return hash(self.blocks)

    def __repr__(self):
        return "WDRep[%s]" % ", ".join(
            "%r x sp(%d)" % (b.part, b.n) for b in self.blocks)


def sp(n: int) -> WDRep:
    """The single block trivial (x) sp(n) as a representation."""
    return WDRep([Block(_TRIV, _integer(n))])


def char_rep(chi: Character, n: int = 0) -> WDRep:
    return WDRep([Block(chi, n)])


def dual(w: WDRep) -> WDRep:
    return WDRep(Block(part_dual(b.part), b.n) for b in w.blocks)


def twist(w: WDRep, chi: Character) -> WDRep:
    return WDRep(Block(b.part * chi, b.n) for b in w.blocks)


def sp_tensor(m: int, n: int) -> tuple[int, ...]:
    """Clebsch-Gordan range for sp(m) (x) sp(n): |m-n|, |m-n|+2, ..., m+n.

    >>> sp_tensor(3, 1)
    (2, 4)
    >>> sp_tensor(0, 1)
    (1,)
    """
    m, n = _integer(m), _integer(n)
    if m < 0 or n < 0:
        raise LfacValueError("sp indices must be >= 0")
    return tuple(range(abs(m - n), m + n + 1, 2))


def _part_product(p: WeilPart, q: WeilPart) -> WeilPart:
    # a product with a character is a twist by it
    if isinstance(q, Character):
        return p * q
    if isinstance(p, Character):
        return q * p
    raise UnsupportedTensor(
        "tensor of two irreducible parts (%s, %s) has no declared block "
        "decomposition" % (p.label, q.label))


def tensor(w1: WDRep, w2: WDRep) -> WDRep:
    """Blockwise tensor product; rejects irreducible x irreducible pairs and
    a product of more than BLOCK_MAX blocks, counted before any is built."""
    check_block_count(sum(min(b1.n, b2.n) + 1
                          for b1 in w1.blocks for b2 in w2.blocks))
    out = []
    for b1 in w1.blocks:
        for b2 in w2.blocks:
            part = _part_product(b1.part, b2.part)
            for k in sp_tensor(b1.n, b2.n):
                out.append(Block(part, k))
    return WDRep(out)


def _unramified_lines(w1: WDRep, w2: WDRep):
    """(satake, sp range) for each unramified character line of w1 (x) w2.
    Only a character-times-character pair holds one; an irreducible times a
    character is irreducible.  An irreducible-times-irreducible pair that is
    provably not dual up to an unramified twist holds none, so it is skipped
    even though its block decomposition is unknown; a twin pair raises."""
    for b1 in w1.blocks:
        for b2 in w2.blocks:
            p, q = b1.part, b2.part
            if isinstance(p, Character) and isinstance(q, Character):
                if not p.tag and not q.tag:
                    yield p.satake * q.satake, sp_tensor(b1.n, b2.n)
                elif p.tag and q.tag:
                    # the tags may cancel; ramified times unramified, in a
                    # free tag group, cannot
                    chi = p * q
                    if chi.is_unramified:
                        yield chi.satake, sp_tensor(b1.n, b2.n)
            elif (isinstance(p, IrredPart) and isinstance(q, IrredPart)
                  and twin_pair(p, q)):
                raise UnsupportedTensor(
                    "unramified-twist-of-dual pair (%s, %s): L-factor not "
                    "determined by declared data" % (p.label, q.label))


def tensor_lfactor(w1: WDRep, w2: WDRep) -> SplitRational:
    """L-factor of w1 (x) w2, defined whenever no block pair is a twin pair."""
    return SplitRational.from_poles(
        alpha.times_v(-k)
        for alpha, ks in _unramified_lines(w1, w2) for k in ks)


def lfactor(w: WDRep, chi: Character | None = None) -> SplitRational:
    """L(w (x) chi), chi trivial by default, read off w's blocks with no
    twist built: a pole at (p chi).satake v^-n for each character block
    p (x) sp(n) of w with p chi unramified, that is, p's tag inverse to chi's.

    >>> a, b = (Character.unramified(Scalar.symbol(s)) for s in "ab")
    >>> eta = Character.ramified("eta")
    >>> w = char_rep(a, 1) + char_rep(b) + char_rep(eta, 2)
    >>> str(lfactor(w)), str(lfactor(w, b / eta))
    ('1/((1 - a*v^-1*X)(1 - b*X))', '1/(1 - b*v^-2*X)')
    """
    s = None if chi is None or chi.is_trivial else chi.satake
    tag = () if s is None else tuple([(name, -e) for name, e in chi.tag])
    return SplitRational.from_poles(
        (b.part.satake if s is None else b.part.satake * s).times_v(-b.n)
        for b in w.blocks
        if isinstance(b.part, Character) and b.part.tag == tag)


def _dual_twist(p: WeilPart, chi: Character) -> WeilPart:
    """p^vee (x) chi; for a character p, the quotient chi / p."""
    if isinstance(p, Character):
        return chi / p
    return part_dual(p) * chi


def similitude_check(w: WDRep, chi: Character) -> bool:
    """Whether w^vee (x) chi equals w as a block multiset.

    Compared on sort keys, without building the twisted dual: w.blocks is
    sorted by Block.sort_key, two blocks are equal exactly when their keys
    are, and the dual twist keeps each block's n.
    """
    keys = sorted([(_dual_twist(b.part, chi).sort_key(), b.n)
                   for b in w.blocks])
    return keys == [b.sort_key() for b in w.blocks]

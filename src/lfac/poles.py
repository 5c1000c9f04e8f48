"""Classified pole loci: exceptional, subregular, and the derived splittings.

Roots are recorded as the scalar beta = q^{s0}: the block unr(beta) (x) sp(0)
has its L-factor pole at that point.  A report lists every candidate root it
examined, sorted, with a classification tag, the witnessing blocks (repeated
per multiplicity, since the classified poles themselves are always simple),
and for subregular roots the distinguished character pair.

The candidates are read where the L-factors read their poles.  Exceptional
candidates are the lines unr(alpha) (x) sp(0) of phi_pi (x) phi_sigma, read
off wdrep._unramified_lines as tensor_lfactor reads them, without building
the tensor.  Subregular candidates are the unramified character blocks of
phi_pi itself, read as lfactor reads them: unr(root) (x) sp(0) for case 1
and unr(root * v) (x) sp(1) for case 2.

One rule decides them, _vanishes(chi, root, k): chi |.|^{2 s0 + k} is
trivial at q^{s0} = root.  An exceptional root needs it with k = 0 and chi
= chi_pi chi_sigma; a case-2 root needs it with k = 1 and chi = chi_pi, and
a case-1 root needs it to fail there, so the two cases never meet at one
root.  This module owns the four classifications and their names in the
expression language (TAGS, TAG_NAMES), read and printed alike.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

from . import catalog as _catalog
from .chars import Character
from .record import Record
from .scalar import Scalar
from .splitrat import SplitRational
from .wdrep import Block, _unramified_lines, lfactor

__all__ = ["PoleEntry", "PoleReport", "exceptional_poles", "subregular_poles",
           "nov_split", "ps_split", "hom_dim", "ideals_JK", "NovSplit",
           "PsSplit"]

EXCEPTIONAL = "exceptional"
SUBREGULAR1 = "subregular-case1"
SUBREGULAR2 = "subregular-case2"
REGULAR = "regular"

TAGS = {"exceptional": EXCEPTIONAL, "sub1": SUBREGULAR1, "sub2": SUBREGULAR2,
        "regular": REGULAR}
TAG_NAMES = {v: k for k, v in TAGS.items()}

_HALF = Fraction(1, 2)


class PoleEntry(Record):
    root: Scalar
    classification: str
    witnesses: tuple[Block, ...]
    bessel: tuple[Character, Character] | None = None


class PoleReport(Record):
    entries: tuple[PoleEntry, ...]

    def roots(self, classification=None) -> tuple[Scalar, ...]:
        return tuple(e.root for e in self.entries
                     if classification is None
                     or e.classification == classification)

    def exceptional_roots(self) -> tuple[Scalar, ...]:
        return self.roots(EXCEPTIONAL)

    def subregular_roots(self) -> tuple[Scalar, ...]:
        return tuple(e.root for e in self.entries
                     if e.classification in (SUBREGULAR1, SUBREGULAR2))


def _sorted_entries(entries) -> tuple[PoleEntry, ...]:
    return tuple(sorted(entries, key=lambda e: (e.root.sort_key(),
                                                e.classification)))


def _vanishes(chi: Character, root: Scalar, k: int) -> bool:
    # chi |.|^{2 s0 + k} trivial at q^{s0} = root
    return chi.is_unramified and chi.satake == (root ** 2).times_v(2 * k)


def exceptional_poles(pi, sigma) -> PoleReport:
    """Classify the unramified lines unr(alpha) (x) sp(0) of the pairing
    tensor."""
    chi = pi.similitude * sigma.central
    lines = Counter(alpha for alpha, ks in _unramified_lines(pi.rep, sigma.rep)
                    if 0 in ks)
    entries = []
    for root, mult in lines.items():
        entries.append(PoleEntry(
            root, EXCEPTIONAL if _vanishes(chi, root, 0) else REGULAR,
            (Block(Character.unramified(root), 0),) * mult))
    return PoleReport(_sorted_entries(entries))


class NovSplit(Record):
    full: SplitRational
    regular: SplitRational
    exceptional: SplitRational
    report: PoleReport


def nov_split(pi, sigma) -> NovSplit:
    """Split the pairing factor as regular * exceptional, the exceptional part
    carrying one simple pole per exceptional root."""
    full = _catalog.nov_lfactor(pi, sigma)
    report = exceptional_poles(pi, sigma)
    l_ex = SplitRational.from_poles(set(report.exceptional_roots()))
    return NovSplit(full, full / l_ex, l_ex, report)


def _bessel(chi: Character, root: Scalar):
    vr = root.times_v(1)
    return (Character.unramified(vr),
            chi / Character.unramified(vr))


def subregular_poles(pi) -> PoleReport:
    """Classify the unramified character blocks of pi with n = 0 (case 1)
    and n = 1 (case 2)."""
    chi = pi.similitude
    found = Counter(b for b in pi.rep.blocks if b.n < 2
                    and isinstance(b.part, Character) and not b.part.tag)
    entries: dict[Scalar, PoleEntry] = {}
    for b, mult in found.items():
        root = b.part.satake.times_v(-b.n)
        wit = (b,) * mult
        if b.n:
            if _vanishes(chi, root, 1):
                entries[root] = PoleEntry(root, SUBREGULAR2, wit,
                                          _bessel(chi, root))
        elif not _vanishes(chi, root, 1):
            entries[root] = PoleEntry(root, SUBREGULAR1, wit,
                                      _bessel(chi, root))
        else:
            # a line root where the case-2 condition holds: regular unless
            # a Steinberg partner makes it case 2; only a FREE parameter
            # has no partner
            entries.setdefault(root, PoleEntry(root, REGULAR, wit))
    return PoleReport(_sorted_entries(entries.values()))


class PsSplit(Record):
    full: SplitRational
    exceptional: SplitRational
    subregular: SplitRational
    kirillov: SplitRational
    report: PoleReport


def ps_split(pi) -> PsSplit:
    """Split L(pi) as exceptional * subregular * kirillov; the exceptional
    part is 1 for these generic parameters and the subregular part carries
    one simple pole per subregular root."""
    full = lfactor(pi.rep)
    report = subregular_poles(pi)
    l_sub = SplitRational.from_poles(set(report.subregular_roots()))
    return PsSplit(full, SplitRational.one(), l_sub, full / l_sub, report)


def hom_dim(pi, sigma, root) -> int:
    """Dimension of the space of pairing functionals at q^{s0} = root: 1 for
    an exceptional root, else 0."""
    if not isinstance(root, Scalar):
        root = Scalar.from_rational(root)
    return 1 if root in exceptional_poles(pi, sigma).exceptional_roots() else 0


def ideals_JK(pi) -> tuple[SplitRational, SplitRational]:
    """Generators of the two integral ideals comparing the pairing factor
    against Steinberg with L(pi, s) L(pi, s+1).

    J divides the regular-part analogue K; K vanishes exactly at the
    subregular roots of pi.
    """
    st = _catalog.steinberg()
    split = nov_split(pi, st)
    l = lfactor(pi.rep)
    den = l * l.shift(1)
    return split.full.shift(_HALF) / den, split.regular.shift(_HALF) / den

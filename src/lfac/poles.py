"""Classified pole loci: exceptional, subregular, and the derived splittings.

Roots are recorded as the scalar beta = q^{s0}: the block unr(beta) (x) sp(0)
has its L-factor pole at that point.  A report lists every candidate root it
examined, sorted, with a classification tag, the witnessing blocks (repeated
per multiplicity, since the classified poles themselves are always simple),
and for subregular roots the distinguished character pair.

Exceptional candidates are the unramified line summands of the parameter
tensor; the root qualifies when the product of similitude and central
character is unramified with value root^2 (the vanishing of chi_pi chi_sigma
|.|^{2 s0}).  Subregular candidates are the line summands of the GSp(4)
parameter alone (case 1, requiring that chi_pi |.|^{2 s0 + 1} does not
vanish) and the Steinberg summands unr(root * v) (case 2, requiring that it
does).  The two requirements are negations of each other, so the cases never
meet at one root.  This module owns the four classifications and their
names in the expression language (TAGS, TAG_NAMES), read and printed alike.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

from . import catalog as _catalog
from .chars import Character
from .record import Record
from .scalar import Scalar
from .splitrat import SplitRational
from .wdrep import Block, lfactor, sp, tensor_summands

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


def exceptional_poles(pi, sigma) -> PoleReport:
    """Classify the unramified line summands of the pairing tensor."""
    chi = pi.similitude * sigma.central
    entries = []
    for root, mult in Counter(tensor_summands(pi.rep, sigma.rep, 0)).items():
        ok = chi.is_unramified and chi.satake == root ** 2
        entries.append(PoleEntry(
            root, EXCEPTIONAL if ok else REGULAR,
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


def _steinberg_cond(chi: Character, root: Scalar) -> bool:
    # chi_pi |.|^{2 s0 + 1} trivial at q^{s0} = root
    return chi.is_unramified and chi.satake == (root ** 2).times_v(2)


def _bessel(chi: Character, root: Scalar):
    vr = root.times_v(1)
    return (Character.unramified(vr),
            chi / Character.unramified(vr))


def subregular_poles(pi) -> PoleReport:
    chi = pi.similitude
    line = Counter(tensor_summands(pi.rep, sp(0), 0))
    stei = Counter(tensor_summands(pi.rep, sp(0), 1))
    entries: dict[Scalar, PoleEntry] = {}
    for gamma, mult in stei.items():
        root = gamma.times_v(-1)
        if _steinberg_cond(chi, root):
            wit = (Block(Character.unramified(gamma), 1),) * mult
            entries[root] = PoleEntry(root, SUBREGULAR2, wit,
                                      _bessel(chi, root))
    for root, mult in line.items():
        wit = (Block(Character.unramified(root), 0),) * mult
        if not _steinberg_cond(chi, root):
            entries[root] = PoleEntry(root, SUBREGULAR1, wit,
                                      _bessel(chi, root))
        elif root not in entries:
            # a line root where the case-2 condition holds but no Steinberg
            # partner exists: not subregular; only a FREE parameter has one
            entries[root] = PoleEntry(root, REGULAR, wit)
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
    half = Fraction(1, 2)
    return split.full.shift(half) / den, split.regular.shift(half) / den

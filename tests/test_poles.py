import random
from collections import Counter

import pytest

from lfac.catalog import (free, principal_series, sc_irred4, steinberg,
                          supercuspidal, type_I, type_IIIa, type_IVa, type_VIa)
from lfac.chars import Character
from lfac.errors import UnsupportedTensor
from lfac.poles import (EXCEPTIONAL, REGULAR, SUBREGULAR1, SUBREGULAR2,
                        PoleEntry, PoleReport, _bessel, _sorted_entries,
                        exceptional_poles, hom_dim, ideals_JK, nov_split,
                        ps_split, subregular_poles)
from lfac.render import text
from lfac.scalar import Scalar
from lfac.splitrat import SplitRational
from lfac.verify import _LETTERS, random_gl2, random_gsp4_free, random_pairing
from lfac.wdrep import Block, char_rep, sp, tensor

a = Scalar.symbol("a")
b = Scalar.symbol("b")
c = Scalar.symbol("c")
d = Scalar.symbol("d")
unr = Character.unramified


def test_exceptional_VIa_steinberg():
    report = exceptional_poles(type_VIa(unr(a)), steinberg())
    assert [e.classification for e in report.entries] == [EXCEPTIONAL]
    entry = report.entries[0]
    assert entry.root == a
    # both line summands of the tensor witness the same simple pole
    assert len(entry.witnesses) == 2
    assert all(blk.n == 0 for blk in entry.witnesses)
    assert report.exceptional_roots() == (a,)


def test_exceptional_needs_central_match():
    # generic principal series: the eight candidate lines all fail the
    # central-character condition
    pi = type_I(unr(a), unr(b), unr(c))
    sigma = principal_series(unr(d), unr(a))
    report = exceptional_poles(pi, sigma)
    assert len(report.entries) == 8 and not report.exceptional_roots()
    assert {e.classification for e in report.entries} == {REGULAR}


def test_exceptional_empty_for_supercuspidal_pair():
    report = exceptional_poles(sc_irred4("l"), supercuspidal("m"))
    assert report.entries == ()


def test_nov_split_recomposes():
    split = nov_split(type_VIa(unr(a)), steinberg())
    assert str(split.full) == "1/((1 - a*X)^2(1 - a*v^-2*X)^2)"
    assert str(split.exceptional) == "1/(1 - a*X)"
    assert str(split.regular) == "1/((1 - a*X)(1 - a*v^-2*X)^2)"
    assert split.regular * split.exceptional == split.full
    assert split.exceptional.pole_roots() == (a,)


def test_hom_dim():
    pi = type_VIa(unr(a))
    st = steinberg()
    assert hom_dim(pi, st, a) == 1
    assert hom_dim(pi, st, b) == 0
    assert hom_dim(pi, st, 3) == 0


def test_subregular_type_I():
    report = subregular_poles(type_I(unr(a), unr(b), unr(c)))
    assert {e.classification for e in report.entries} == {SUBREGULAR1}
    assert sorted(str(r) for r in report.subregular_roots()) \
        == ["a*b*c", "a*c", "b*c", "c"]
    by_root = {str(e.root): e for e in report.entries}
    assert tuple(str(x) for x in by_root["c"].bessel) \
        == ("unr(c*v)", "unr(a*b*c*v^-1)")
    assert tuple(str(x) for x in by_root["a*b*c"].bessel) \
        == ("unr(a*b*c*v)", "unr(c*v^-1)")


def test_subregular_type_VIa():
    report = subregular_poles(type_VIa(unr(a)))
    assert [e.classification for e in report.entries] == [SUBREGULAR2]
    entry = report.entries[0]
    assert entry.root == a * Scalar.v_power(-1)
    assert len(entry.witnesses) == 2 and all(w.n == 1 for w in entry.witnesses)
    assert tuple(str(x) for x in entry.bessel) == ("unr(a)", "unr(a)")


def test_subregular_empty_for_steinberg_types():
    assert subregular_poles(type_IIIa(unr(a), unr(b))).entries == ()
    assert subregular_poles(type_IVa(unr(a))).entries == ()


def test_subregular_orphan_line_is_regular():
    # the case-2 condition holds at root a but no Steinberg block partners it
    w = char_rep(unr(a)) + char_rep(unr(a * Scalar.v_power(2)))
    pi = free(w, unr(a ** 2 * Scalar.v_power(2)))
    tags = {str(e.root): e.classification for e in subregular_poles(pi).entries}
    assert tags == {"a": REGULAR, "a*v^2": SUBREGULAR1}


@pytest.mark.parametrize("root", [a * Scalar.v_power(-1), a],
                         ids=["partner-first", "line-first"])
def test_subregular_partnered_line_is_case2(root):
    # the case-2 condition holds at root, where the line unr(root) meets the
    # Steinberg block unr(root*v) x sp(1): case 2 in either block order
    v = Scalar.v_power(1)
    w = char_rep(unr(root)) + char_rep(unr(root * v ** 2)) \
        + char_rep(unr(root * v), 1)
    pi = free(w, unr(root ** 2 * v ** 2))
    tags = {e.root: e.classification for e in subregular_poles(pi).entries}
    assert tags == {root: SUBREGULAR2, root * v ** 2: SUBREGULAR1}


def test_ps_split_recomposes():
    split = ps_split(type_VIa(unr(a)))
    assert split.exceptional == SplitRational.one()
    assert str(split.subregular) == "1/(1 - a*v^-1*X)"
    assert split.subregular == split.kirillov
    assert split.exceptional * split.subregular * split.kirillov == split.full


def test_ps_split_without_subregular_roots():
    split = ps_split(type_IVa(unr(a)))
    assert split.subregular == SplitRational.one()
    assert split.kirillov == split.full


def test_ideals_VIa():
    j, k = ideals_JK(type_VIa(unr(a)))
    assert j == 1
    assert str(k) == "(1 - a*v^-1*X)"
    assert k.vanishing_order(a * Scalar.v_power(-1)) == 1
    # J divides K: the quotient has no denominator factors
    assert all(e >= 0 for _, e in (k / j).factors)


def test_ideals_IVa_both_trivial():
    j, k = ideals_JK(type_IVa(unr(a)))
    assert j == 1 and k == 1


def test_ideal_K_vanishes_at_subregular_roots():
    for pi in (type_I(unr(a), unr(b), unr(c)), type_VIa(unr(a)),
               type_IIIa(unr(a), unr(b))):
        _, k = ideals_JK(pi)
        roots = set(subregular_poles(pi).subregular_roots())
        assert set(k.zero_roots()) == roots
        assert all(e >= 0 for _, e in k.factors)


def test_report_root_filters():
    report = subregular_poles(type_I(unr(a), unr(b), unr(c)))
    assert report.roots(SUBREGULAR2) == ()
    assert report.roots() == report.subregular_roots()
    assert report.exceptional_roots() == ()


def test_split_parts_are_simple():
    split = nov_split(type_VIa(unr(a)), steinberg())
    assert all(e == -1 for _, e in split.exceptional.factors)
    roots = split.exceptional.pole_roots()
    assert len(roots) == len(set(roots))


# ------------------------------------------- the readers against the tensors

def _ref_summands(w, n):
    # the Satake values, with multiplicity, of the unramified character
    # blocks unr(alpha) x sp(n) of a built representation, sorted
    return sorted((blk.part.satake for blk in w.blocks if blk.n == n
                   and isinstance(blk.part, Character)
                   and blk.part.is_unramified), key=Scalar.sort_key)


def _ref_exceptional(pi, sigma):
    # classify the lines of the built pairing tensor
    chi = pi.similitude * sigma.central
    entries = []
    for root, mult in Counter(
            _ref_summands(tensor(pi.rep, sigma.rep), 0)).items():
        ok = chi.is_unramified and chi.satake == root ** 2
        entries.append(PoleEntry(
            root, EXCEPTIONAL if ok else REGULAR,
            (Block(Character.unramified(root), 0),) * mult))
    return PoleReport(_sorted_entries(entries))


def _ref_subregular(pi):
    # classify the blocks of pi (x) sp(0), case 2 before case 1
    chi = pi.similitude

    def steinberg_cond(root):
        return chi.is_unramified and chi.satake == (root ** 2).times_v(2)

    t = tensor(pi.rep, sp(0))
    entries = {}
    for gamma, mult in Counter(_ref_summands(t, 1)).items():
        root = gamma.times_v(-1)
        if steinberg_cond(root):
            wit = (Block(Character.unramified(gamma), 1),) * mult
            entries[root] = PoleEntry(root, SUBREGULAR2, wit,
                                      _bessel(chi, root))
    for root, mult in Counter(_ref_summands(t, 0)).items():
        wit = (Block(Character.unramified(root), 0),) * mult
        if not steinberg_cond(root):
            entries[root] = PoleEntry(root, SUBREGULAR1, wit,
                                      _bessel(chi, root))
        elif root not in entries:
            entries[root] = PoleEntry(root, REGULAR, wit)
    return PoleReport(_sorted_entries(entries.values()))


def _free_draw(seed):
    rng = random.Random(seed)
    syms = _LETTERS[:4]
    pi = random_gsp4_free(rng, syms, allow_irred=True)
    return pi, random_gl2(rng, syms)


def _tally_against_tensors(draws, hits):
    compared = 0
    for pi, sigma in draws:
        for got, want in ((lambda: subregular_poles(pi),
                           lambda: _ref_subregular(pi)),
                          (lambda: exceptional_poles(pi, sigma),
                           lambda: _ref_exceptional(pi, sigma))):
            try:
                want = want()
            except UnsupportedTensor:
                continue
            got = got()
            assert got == want, (pi, sigma)
            assert text(got) == text(want)
            compared += 1
            hits.update(e.classification for e in got.entries)
    return compared


@pytest.mark.parametrize("draw, floors", [
    (random_pairing, {"compared": 950, EXCEPTIONAL: 220, SUBREGULAR1: 400,
                      SUBREGULAR2: 160, REGULAR: 380}),
    (_free_draw, {"compared": 880, EXCEPTIONAL: 35, SUBREGULAR1: 260,
                  SUBREGULAR2: 140, REGULAR: 180}),
], ids=["pairing", "free"])
def test_readers_match_the_tensor_route(draw, floors):
    # the lines and blocks the classifiers read give the reports the built
    # tensors against sigma and against sp(0) gave; a tensor that refuses an
    # irreducible pair is skipped
    hits = Counter()
    hits["compared"] = _tally_against_tensors(map(draw, range(500)), hits)
    for name, floor in floors.items():
        assert hits[name] >= floor, (name, hits)

from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lfac.chars import Character
from lfac.dsl import evaluate_text
from lfac.errors import LfacValueError, UnsupportedTensor
from lfac.poles import exceptional_poles
from lfac.scalar import Scalar
from lfac.splitrat import SplitRational
from lfac.verify import TrialProfile, random_rep
from lfac.render import text
from lfac.wdrep import (BLOCK_MAX, SP_MAX, Block, IrredPart, WDRep,
                        char_rep, dual, lfactor, part_dual, similitude_check,
                        sp, sp_tensor,
                        tensor, tensor_lfactor, twist)

a, b = Scalar.symbol("a"), Scalar.symbol("b")
v = Scalar.v_power(1)
unr = Character.unramified
ram = Character.ramified


def test_sp_tensor_table():
    assert sp_tensor(0, 3) == (3,)
    assert sp_tensor(1, 1) == (0, 2)
    assert sp_tensor(2, 3) == (1, 3, 5)
    assert sum(n + 1 for n in sp_tensor(2, 3)) == 12


def test_sp_indices_must_be_integers():
    assert sp(Fraction(4, 2)) == sp(2.0) == sp(2)
    assert sp_tensor(3.0, Fraction(2, 2)) == sp_tensor(3, 1)
    for build in (lambda: sp(1.5), lambda: sp_tensor(2, Fraction(1, 2)),
                  lambda: sp_tensor(0.5, 1)):
        with pytest.raises(LfacValueError, match="not an integer"):
            build()


def test_block_lfactor():
    assert lfactor(char_rep(unr(a), 3)) == SplitRational.from_poles([a * v ** -3])
    assert lfactor(char_rep(ram("eta", a))).is_one
    assert lfactor(WDRep([Block(IrredPart(2, "t"), 1)])).is_one


def test_dim_and_sum():
    w = char_rep(unr(a), 2) + char_rep(unr(b))
    assert w.dim == 4
    assert (w + sp(1)).dim == 6
    assert w.character_parted
    assert not (w + WDRep([Block(IrredPart(2, "t"), 0)])).character_parted


def test_blocks_sorted_multiset():
    w1 = char_rep(unr(a)) + char_rep(unr(b))
    w2 = char_rep(unr(b)) + char_rep(unr(a))
    assert w1 == w2
    assert (w1 + w1).blocks.count(Block(unr(a), 0)) == 2


def test_dual_char_parts():
    w = char_rep(unr(a), 1) + char_rep(ram("eta", b))
    assert dual(dual(w)) == w
    sat = [bl.part.satake for bl in dual(w).blocks]
    assert a ** -1 in sat and b ** -1 in sat


def test_dual_dim2_uses_determinant():
    rho = IrredPart(2, "t", base_det=unr(a))
    assert part_dual(rho) == rho * unr(a).inverse()
    assert part_dual(part_dual(rho)) == rho


def test_dual_star_toggle():
    rho = IrredPart(3, "t")
    assert part_dual(rho).starred
    assert part_dual(part_dual(rho)) == rho


def test_dual_declared_selfdual():
    rho = IrredPart(4, "l", base_det=unr(a) ** 2, selfdual_twist=unr(a).inverse())
    assert part_dual(rho) == rho * unr(a).inverse()
    assert part_dual(part_dual(rho)) == rho


def test_twist_composes():
    w = char_rep(unr(a), 1)
    assert twist(twist(w, unr(b)), unr(b).inverse()) == w
    assert twist(w, unr(b)).blocks[0].part == unr(a * b)


def test_tensor_char_blocks():
    w = tensor(char_rep(unr(a), 1), char_rep(unr(b), 2))
    assert [bl.n for bl in w.blocks] == [1, 3]
    assert [bl.part for bl in w.blocks] == [unr(a * b), unr(a * b)]


def test_tensor_rejects_irred_pairs():
    r1 = WDRep([Block(IrredPart(2, "t1"), 0)])
    r2 = WDRep([Block(IrredPart(2, "t2"), 0)])
    with pytest.raises(UnsupportedTensor):
        tensor(r1, r2)


def test_tensor_lfactor_total_off_twins():
    r1 = WDRep([Block(IrredPart(2, "t1"), 0)])
    r2 = WDRep([Block(IrredPart(2, "t2"), 0)])
    assert tensor_lfactor(r1, r2).is_one
    # a ramified twist of the dual is still not a twin
    r3 = twist(dual(r1), ram("eta"))
    assert tensor_lfactor(r1, r3).is_one


def test_tensor_lfactor_twin_raises():
    r1 = WDRep([Block(IrredPart(2, "t1", base_det=unr(a)), 0)])
    twin = twist(dual(r1), unr(b))
    with pytest.raises(UnsupportedTensor):
        tensor_lfactor(r1, twin)


def test_tensor_lfactor_matches_tensor_when_total():
    w1 = char_rep(unr(a), 1) + char_rep(ram("eta", b))
    w2 = char_rep(unr(b)) + char_rep(unr(a), 1)
    assert tensor_lfactor(w1, w2) == lfactor(tensor(w1, w2))


def _char_blocks(w):
    return WDRep(bl for bl in w.blocks if isinstance(bl.part, Character))


@pytest.mark.parametrize("allow_irred", [False, True])
def test_tensor_lines_match_tensor(allow_irred):
    defined = 0
    for seed in range(60):
        w1, w2 = (random_rep(TrialProfile(seed * 2 + i, allow_irred=allow_irred))
                  for i in (0, 1))
        got = tensor_lfactor(w1, w2)
        if w1.character_parted or w2.character_parted:
            defined += 1
            assert got == lfactor(tensor(w1, w2)), seed
        # an irreducible x character pair adds no pole
        assert got == tensor_lfactor(_char_blocks(w1), _char_blocks(w2)), seed
    assert defined >= 30


def test_tensor_lines_twin_message():
    rho = IrredPart(2, "t1", base_det=unr(a))
    w = char_rep(unr(b), 1) + WDRep([Block(rho, 0)])
    twin = twist(dual(WDRep([Block(rho, 2)])), unr(b))
    pi = SimpleNamespace(rep=w, similitude=unr(a))
    sigma = SimpleNamespace(rep=twin, central=unr(b))
    for f, what in ((lambda: tensor_lfactor(w, twin), "L-factor"),
                    (lambda: tensor_lfactor(twin, w), "L-factor"),
                    (lambda: exceptional_poles(pi, sigma), "L-factor")):
        with pytest.raises(UnsupportedTensor) as ex:
            f()
        assert str(ex.value) == ("unramified-twist-of-dual pair (t1, t1): %s "
                                 "not determined by declared data" % what)


def _per_block_lfactor(w):
    # the reference: one factor per unramified character block, multiplied
    out = SplitRational.one()
    for blk in w.blocks:
        p = blk.part
        if isinstance(p, Character) and p.is_unramified:
            out = out * SplitRational.from_poles([p.satake * v ** -blk.n])
    return out


def test_lfactor_matches_per_block_product():
    for seed in range(40):
        w = random_rep(TrialProfile(seed, block_budget=8, max_sp=5,
                                    allow_irred=True))
        assert lfactor(w) == _per_block_lfactor(w), seed
        assert tensor_lfactor(w, sp(2)) \
            == _per_block_lfactor(tensor(w, sp(2))), seed
        # the route lemma71's identity 2 no longer builds
        w1 = tensor(w, sp(1))
        assert tensor_lfactor(w1, sp(1)) == lfactor(tensor(w1, sp(1))), seed


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 32), st.integers(1, 8), st.integers(0, 5))
def test_lfactor_matches_the_tensor_with_sp0(seed, budget, max_sp):
    # the poles read off the blocks against the route they replace: the
    # unramified lines of w (x) sp(0)
    w = random_rep(TrialProfile(seed, block_budget=budget, max_sp=max_sp,
                                allow_irred=True))
    got, want = lfactor(w), tensor_lfactor(w, sp(0))
    assert got == want and hash(got) == hash(want)
    assert str(got) == str(want) and got.sort_key() == want.sort_key()


def test_lfactor_draws_reach_every_kind_of_block():
    # the draws above include ramified characters and irreducible parts
    parts = [blk.part for seed in range(50) for blk in random_rep(
        TrialProfile(seed, block_budget=8, max_sp=5, allow_irred=True)).blocks]
    assert sum(isinstance(p, IrredPart) for p in parts) >= 10
    assert sum(isinstance(p, Character) and not p.is_unramified
               for p in parts) >= 10


def test_lfactor_builds_one_split_rational(monkeypatch):
    # counts both ways to build one: the public constructor and _canonical
    calls = []
    init = SplitRational.__init__
    canonical = SplitRational._canonical

    def counting_init(self, *args, **kwargs):
        calls.append(None)
        init(self, *args, **kwargs)

    def counting_canonical(cls, *args):
        calls.append(None)
        return canonical(*args)
    monkeypatch.setattr(SplitRational, "__init__", counting_init)
    monkeypatch.setattr(SplitRational, "_canonical",
                        classmethod(counting_canonical))
    per_call = set()
    for k in (1, 10, 60):
        w = WDRep(Block(unr(a * v ** i), i % 4) for i in range(k))
        for f in (lfactor, lambda w: tensor_lfactor(w, sp(3))):
            calls.clear()
            f(w)
            per_call.add(len(calls))
    assert per_call == {1}


@pytest.mark.parametrize("build", [
    lambda: sp(SP_MAX + 1),
    lambda: char_rep(unr(a), SP_MAX + 1),
    lambda: tensor(sp(SP_MAX // 2 + 1), sp(SP_MAX // 2)),
    lambda: Block(unr(a), -1),
], ids=["sp", "char_rep", "tensor", "negative"])
def test_sp_index_bound(build):
    with pytest.raises(LfacValueError, match="sp index"):
        build()


def test_tensor_block_bound(monkeypatch):
    # the count is exact: BLOCK_MAX one-block products pass, one more fails
    ones = [Block(unr(a), 0)] * BLOCK_MAX
    assert len(tensor(WDRep(ones), sp(0)).blocks) == BLOCK_MAX
    assert len(evaluate_text("sp(30) x sp(30) x sp(30)").blocks) == 721
    assert len(evaluate_text("(unr(a) x sp(500)) x sp(500)").blocks) == 501
    # a refused product builds no block
    built = []
    monkeypatch.setattr(Block, "__post_init__", lambda self: built.append(1))
    with pytest.raises(LfacValueError, match="19871 blocks"):
        evaluate_text("sp(30) x sp(30) x sp(30) x sp(30)")
    with pytest.raises(LfacValueError, match="1001 blocks, more than 1000"):
        tensor(WDRep(ones[:143]), WDRep(ones[:7]))
    # the four sp(30) and the two products that pass
    assert len(built) == 4 + 31 + 721
    # every representation obeys the bound, not only a tensor product
    with pytest.raises(LfacValueError, match="%d blocks" % (BLOCK_MAX + 1)):
        WDRep(ones + ones[:1])
    w = evaluate_text("sp(30) x sp(30) x sp(30)")
    with pytest.raises(LfacValueError, match="1442 blocks"):
        w + w


def test_largest_tensor_is_linear_and_small(monkeypatch):
    # the widest tensor of two blocks within the bound: 501 blocks
    n = SP_MAX // 2
    w = evaluate_text("(unr(a) x sp(%d)) x sp(%d)" % (n, n))
    assert max(b.n for b in w.blocks) == SP_MAX
    calls = []
    for name in ("__mul__", "__hash__", "__eq__"):
        op = getattr(Scalar, name)
        monkeypatch.setattr(Scalar, name, lambda *args, _op=op:
                            calls.append(None) or _op(*args))
    f = lfactor(w)
    monkeypatch.undo()
    assert len(f.factors) == n + 1
    # one product, two hashes and an equality per pole; a fold of one
    # SplitRational per pole would rehash every earlier pole, ~n^2/2 calls
    assert len(calls) <= 5 * (n + 1)
    assert len(text(w)) < 10_000 and len(str(f)) < 10_000


def test_lemma_identities_worked_example():
    rho = char_rep(unr(a)) + char_rep(unr(b), 1)
    l = lfactor(rho)
    t = tensor(rho, sp(1))
    half = Fraction(1, 2)
    ratio = l * l.shift(1) / lfactor(t).shift(half)
    assert ratio == SplitRational.from_poles([a])
    l1 = lfactor(t)
    ratio2 = l1.shift(half) * l1.shift(Fraction(3, 2)) \
        / lfactor(tensor(t, sp(1))).shift(1)
    assert ratio2 == SplitRational.from_poles([b * v ** -1])


def test_similitude_check():
    w = char_rep(unr(a)) + char_rep(unr(b))
    assert similitude_check(w, unr(a * b))
    assert not similitude_check(w, unr(a))
    st3 = char_rep(unr(a), 3)
    assert similitude_check(st3, unr(a) ** 2)


def test_similitude_check_irred4_without_selfdual_twist():
    # the dual of a 4-dimensional part with no declared self-duality is starred
    rho = IrredPart(4, "l4", twist=unr(b), base_det=unr(a))
    chi = unr(a * b)
    w = WDRep([Block(rho, 1), Block(part_dual(rho) * chi, 1)])
    assert part_dual(rho).starred
    assert similitude_check(w, chi) and twist(dual(w), chi) == w
    for w2, chi2 in ((w, chi * unr(v)), (WDRep([Block(rho, 1)]), chi),
                     (w + char_rep(unr(a)), chi)):
        assert not similitude_check(w2, chi2)
        assert twist(dual(w2), chi2) != w2


@pytest.mark.parametrize("other, poles", [
    # the tags cancel: an unramified line a*b
    (Character((("eta", -1),), b), [a * b]),
    # eta*xi and eta alone stay ramified
    (ram("xi", b), []),
    (unr(b), [])])
def test_ramified_tensor_lines(other, poles):
    w1, w2 = char_rep(ram("eta", a)), char_rep(other)
    want = SplitRational.from_poles(poles)
    assert tensor_lfactor(w1, w2) == want
    assert tensor_lfactor(w2, w1) == want
    # the same as the tensor, whose blocks multiply every character pair
    assert lfactor(tensor(w1, w2)) == want
    # with sp indices the cancelled line runs over the Clebsch-Gordan range
    w1s, w2s = char_rep(ram("eta", a), 1), char_rep(other, 2)
    assert tensor_lfactor(w1s, w2s) == SplitRational.from_poles(
        [p * v ** -k for p in poles for k in (1, 3)])
    assert tensor_lfactor(w1s, w2s) == lfactor(tensor(w1s, w2s))


def _nested_block_key(blk):
    # the order of blocks when a character part was wrapped in a record of
    # its own, with the key (0, (tag, satake key))
    p = blk.part
    if isinstance(p, Character):
        return ((0, (p.tag, p.satake.sort_key())), blk.n)
    return (p.sort_key(), blk.n)


def test_block_order_matches_the_nested_key():
    for seed in range(200):
        w = random_rep(TrialProfile(seed, block_budget=8, max_sp=5,
                                    allow_irred=True))
        assert list(w.blocks) == sorted(w.blocks, key=_nested_block_key), seed


def test_substitute_threads_through():
    w = char_rep(unr(a), 1) + WDRep([Block(IrredPart(2, "t", twist=unr(b)), 0)])
    s = w.substitute({"a": 2, "b": 3})
    chars = [bl.part if isinstance(bl.part, Character) else bl.part.twist
             for bl in s.blocks]
    assert unr(Scalar.from_rational(2)) in chars
    assert unr(Scalar.from_rational(3)) in chars

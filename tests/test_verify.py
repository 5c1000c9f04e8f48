import hashlib
import itertools
import random

import pytest

import lfac.verify
import lfac.wdrep
from lfac.catalog import (principal_series, sc_irred4, steinberg,
                          supercuspidal, type_IVa, type_VIa)
from lfac.chars import Character
from lfac.errors import TypeConstraintViolation
from lfac.scalar import Scalar
from lfac.splitrat import SplitRational
from lfac.verify import (_LETTERS, TRIAL_STRIDE, CheckReport, Failure,
                         TrialProfile, _blocks_with_n, _draw_rep,
                         _matched_gl2_pair, _random_char,
                         _random_satake, check_corollary62, check_lemma71,
                         check_soudry, check_theoremA, random_gsp4_free,
                         random_gl2, random_pairing, random_rep, run_suite,
                         theoremA_fixed_cases)
from lfac.catalog import theta_lift
from lfac.wdrep import (Block, char_rep, dual, lfactor, similitude_check,
                        twist)

from oracle import numeric_equal, numeric_second_opinion

a = Scalar.symbol("a")
b = Scalar.symbol("b")
unr = Character.unramified


def test_suites_pass_small():
    for report in run_suite("all", trials=8, seed=3):
        assert report.passed, report.summary()
        assert report.trials >= 8


@pytest.mark.parametrize("suite", ["lemma71", "theoremA", "soudry"])
def test_suites_share_the_symbol_clamp(suite):
    # every suite draws through one helper, which reads a pool below 1 as 1
    low = run_suite(suite, 3, 5, TrialProfile(5, symbol_pool=0))[0]
    one = run_suite(suite, 3, 5, TrialProfile(5, symbol_pool=1))[0]
    assert low.passed and low.summary() == one.summary()


def test_run_suite_deterministic():
    r1 = run_suite("lemma71", trials=5, seed=11)[0]
    r2 = run_suite("lemma71", trials=5, seed=11)[0]
    assert r1.summary() == r2.summary()
    assert r1.failures == r2.failures


@pytest.mark.parametrize("suite", ["lemma71", "theoremA", "soudry"])
def test_failures_carry_trial_and_seed(suite, monkeypatch):
    def failing_check(*args, **kwargs):
        report = CheckReport(suite, 1)
        report.record(0, 0, "forced")
        return report
    monkeypatch.setattr(lfac.verify, "check_" + suite, failing_check)
    report = run_suite(suite, 3, 7)[0]
    fixed = 4 if suite == "theoremA" else 0
    assert report.trials == 3 + fixed
    assert report.failures == [Failure(0, 0, "forced")] * fixed + [
        Failure(i, 7 * TRIAL_STRIDE + i, "forced") for i in range(3)]


@pytest.mark.parametrize("suite", ["lemma71", "theoremA", "soudry"])
def test_seed_overrides_profile_seed(suite):
    assert run_suite(suite, 3, 7, TrialProfile(99)) == run_suite(suite, 3, 7)


def test_run_suite_unknown_name():
    with pytest.raises(TypeConstraintViolation):
        run_suite("fermat", trials=1, seed=1)


def test_random_rep_deterministic():
    p = TrialProfile(21)
    assert random_rep(p) == random_rep(TrialProfile(21))
    # derived seeds explore: at least one of ten differs from the base draw
    assert any(random_rep(p.derived(i)) != random_rep(p) for i in range(10))


# sha256 of the reprs of every suite's draws over seeds 0-499: a seed names
# one trial, so a change to the draw code must leave every draw as it is
DRAWS_DIGEST = \
    "afd53f575d70153c6b91baedb5ec9da3a2dfa2c15a11578be752a5e1c7c67fe5"


def test_draws_are_pinned():
    h = hashlib.sha256()
    syms = _LETTERS[:4]
    for seed in range(500):
        for irred in (False, True):
            h.update(repr(random_rep(TrialProfile(seed, allow_irred=irred)))
                     .encode())
        rng = random.Random(seed)
        h.update(repr(random_gsp4_free(rng, syms, allow_irred=True)).encode())
        h.update(repr(random_gsp4_free(rng, syms)).encode())
        h.update(repr(random_gl2(rng, syms)).encode())
        h.update(repr(_matched_gl2_pair(rng, syms)).encode())
        h.update(repr(random_pairing(seed)).encode())
    assert h.hexdigest() == DRAWS_DIGEST


def test_lemma71_trial_checks_random_rep(monkeypatch):
    checked = []

    def recording_check(w):
        checked.append(w)
        return CheckReport("lemma71", 1)
    monkeypatch.setattr(lfac.verify, "check_lemma71", recording_check)
    profile = TrialProfile(0, block_budget=6, max_sp=2, allow_irred=True)
    run_suite("lemma71", 30, 17, profile)
    base = profile.replace(seed=17)
    assert checked == [random_rep(base.derived(i)) for i in range(30)]
    assert len({repr(w) for w in checked}) > 20


def test_theoremA_fixed_cases_are_built_once():
    assert theoremA_fixed_cases() is theoremA_fixed_cases()
    assert isinstance(theoremA_fixed_cases(), tuple)


def test_random_pairing_satisfies_similitude():
    for seed in range(20):
        pi, sigma = random_pairing(seed)
        assert similitude_check(pi.rep, pi.similitude)
        assert sigma.kind in ("principal-series", "steinberg-twist",
                              "supercuspidal")


def test_check_lemma71_worked_example():
    w = char_rep(unr(a)) + char_rep(unr(b), 1)
    with numeric_second_opinion(7) as checked:
        report = check_lemma71(w)
    assert report.passed
    assert checked == ["identity 1", "identity 2"]


def test_second_opinion_flags_a_fault_equality_misses(monkeypatch):
    # a shift by 1 that does nothing, under an equality that always holds:
    # only the dense oracle can see the identities fail
    shift = SplitRational.shift
    monkeypatch.setattr(SplitRational, "shift",
                        lambda f, t: f if t == 1 else shift(f, t))
    monkeypatch.setattr(SplitRational, "__eq__", lambda f, g: True)
    exact = lfac.verify._compare
    with numeric_second_opinion(5) as checked:
        report = run_suite("lemma71", 20, 5)[0]
    assert len(checked) == 40
    assert sorted({f.trial for f in report.failures}) == list(range(20))
    assert all("numeric specialization disagrees" in f.detail
               for f in report.failures)
    assert lfac.verify._compare is exact


def test_check_theoremA_rejects_supercuspidal_sigma():
    with pytest.raises(TypeConstraintViolation):
        check_theoremA(type_VIa(unr(a)), supercuspidal("l"))


def test_check_theoremA_fixed_cases():
    cases = theoremA_fixed_cases()
    assert len(cases) == 4
    assert [pi.st_type for pi, _ in cases] == ["IVa", "IIIa", "SC", "SC"]
    for pi, sigma in cases:
        with numeric_second_opinion(13) as checked:
            assert check_theoremA(pi, sigma).passed
        assert checked == ["routes disagree"] + ["IIIa/IVa closed form"] * (
            pi.st_type in ("IIIa", "IVa"))


def test_check_corollary62():
    sigma = principal_series(unr(a), unr(b))
    with numeric_second_opinion(3) as checked:
        assert check_corollary62(type_IVa(unr(a)), sigma).passed
    assert checked == ["routes disagree"]
    with pytest.raises(TypeConstraintViolation):
        check_corollary62(type_IVa(unr(a)), steinberg())


def test_check_soudry_worked_example():
    tau1 = steinberg(unr(a))
    tau2 = steinberg(unr(-a))
    with numeric_second_opinion(17) as checked:
        report = check_soudry(tau1, tau2, principal_series(unr(b), unr(a)))
    assert report.passed
    assert checked == ["lift against product"]


def test_check_soudry_supercuspidal_lift():
    det = unr(a)
    tau1 = supercuspidal("l", det)
    tau2 = supercuspidal("m", det)
    assert check_soudry(tau1, tau2, steinberg(unr(b))).passed


def test_numeric_equal():
    f = SplitRational(factors=((a, -1), (b, -1)))
    g = SplitRational(factors=((b, -1), (a, -1)))
    assert numeric_equal(f, g, seed=2)
    assert not numeric_equal(f, f * SplitRational(factors=((a, -1),)), seed=2)


def test_report_records_failures():
    report = CheckReport("demo", 2)
    assert report.passed
    report.record(1, 99, "boom")
    assert not report.passed
    assert report.summary() == "demo: trials=2 failures=1 FAIL"
    other = CheckReport("demo", 3)
    other.merge(report)
    assert other.trials == 5 and len(other.failures) == 1


def test_profile_budget_respected():
    profile = TrialProfile(5, block_budget=2, max_sp=1, symbol_pool=2)
    for i in range(10):
        w = random_rep(profile.derived(i))
        assert len(w.blocks) <= 2
        assert all(blk.n <= 1 for blk in w.blocks)


def test_exceptional_hit_rate():
    # the tuned pairing modes must actually produce exceptional poles
    from lfac.poles import exceptional_poles
    hits = sum(
        1 for seed in range(40)
        if exceptional_poles(*random_pairing(seed)).exceptional_roots())
    assert hits >= 10


class _Scripted:
    """An rng stand-in that returns the given values in turn."""

    def __init__(self, *values):
        self.values = iter(values)

    def choice(self, seq):
        x = next(self.values)
        assert x in seq
        return x

    def randint(self, lo, hi):
        x = next(self.values)
        assert lo <= x <= hi
        return x


def test_satake_draw_equals_the_power_route():
    for s in _LETTERS:
        for e in (1, 2, -1):
            for k in range(-3, 4):
                got = _random_satake(_Scripted(s, e, k), _LETTERS)
                want = (Scalar.symbol(s) ** e).times_v(k)
                assert got.sort_key() == want.sort_key(), (s, e, k)
                assert hash(got) == hash(want), (s, e, k)
                assert str(got) == str(want), (s, e, k)


def _constructor_char(rng, syms, ramified_rate=0.25):
    # the draw through the public constructors and the guarded power
    s = Scalar.symbol(rng.choice(syms)) ** rng.choice([1, 1, 1, 2, -1])
    satake = s.times_v(rng.randint(-3, 3))
    if rng.random() < ramified_rate:
        return Character.ramified(rng.choice(["eta", "xi"]), satake)
    return Character.unramified(satake)


def test_char_draw_equals_the_constructor_route():
    ramified = 0
    for seed in range(500):
        new, old = random.Random(seed), random.Random(seed)
        got, want = _random_char(new, _LETTERS), _constructor_char(old, _LETTERS)
        assert got == want and got.tag == want.tag, seed
        assert hash(got) == hash(want) and str(got) == str(want), seed
        assert new.getstate() == old.getstate(), seed
        ramified += not got.is_unramified
    assert ramified >= 50


def _agrees(w, chi):
    got = similitude_check(w, chi)
    assert got == (twist(dual(w), chi) == w), (w, chi)
    return got


def _check_against_the_rep_route(w, chi):
    assert _agrees(w, chi)
    # false verdicts: another similitude, and one block more, in a symbol
    # no draw names, so that no block pairs with it
    assert not _agrees(w, chi * unr(Scalar.v_power(1)))
    assert not _agrees(w + char_rep(unr(Scalar.symbol("extra"))), chi)


def test_similitude_check_matches_the_rep_route():
    syms = _LETTERS[:4]
    irred = 0
    for seed in range(200):
        rng = random.Random(seed)
        pi = random_gsp4_free(rng, syms, allow_irred=True)
        irred += not pi.rep.character_parted
        _check_against_the_rep_route(pi.rep, pi.similitude)
        lift = theta_lift(*_matched_gl2_pair(rng, syms))
        _check_against_the_rep_route(lift.rep, lift.similitude)
    assert irred >= 40
    for pi, _ in theoremA_fixed_cases():
        _check_against_the_rep_route(pi.rep, pi.similitude)


def _twisting_char(rng, syms, kind):
    # trivial, unramified, or ramified with the inverse tag of a drawn
    # ramified character, so that it can cancel a block's tag
    if kind == 0:
        return Character.trivial()
    if kind == 1:
        return _random_char(rng, syms, ramified_rate=0.0)
    return _random_char(rng, syms, ramified_rate=1.0).inverse()


def test_twisted_lfactor_matches_the_built_twist():
    # lfactor(w, chi) reads L(w (x) chi) off w's blocks; the reference
    # builds twist(w, chi) and reads it, for w and for its n = 0 slice
    profile = TrialProfile(0, allow_irred=True)
    syms = _LETTERS[:profile.symbol_pool]
    ramified_poles = 0
    for seed in range(1200):
        rng = random.Random(seed)
        w = _draw_rep(rng, profile)
        kind = seed % 3
        chi = _twisting_char(rng, syms, kind)
        for u in (w, _blocks_with_n(w, 0)):
            got, want = lfactor(u, chi), lfactor(twist(u, chi))
            assert got == want and str(got) == str(want), (seed, u, chi)
        if kind == 0:
            assert str(lfactor(w, chi)) == str(lfactor(w)), seed
        # a ramified chi gives a pole only where it cancels a block's tag
        ramified_poles += kind == 2 and not lfactor(w, chi).is_one
    assert ramified_poles >= 50


def _drop_first(lines):
    # the tensor route's fault: its first unramified line goes missing
    def faulty(w1, w2):
        return itertools.islice(lines(w1, w2), 1, None)
    return faulty


def _drop_a_pole(reader):
    # the product route's fault: a twisted L-factor loses one pole
    def faulty(w, chi=None):
        f = reader(w, chi)
        if chi is None or not f.factors:
            return f
        return f / SplitRational.from_poles([f.factors[0][0]])
    return faulty


@pytest.mark.parametrize("module, name, fault", [
    (lfac.wdrep, "_unramified_lines", _drop_first),
    (lfac.verify, "lfactor", _drop_a_pole),
], ids=["tensor-route", "product-route"])
def test_theoremA_catches_a_fault_in_either_route(module, name, fault,
                                                  monkeypatch):
    assert run_suite("theoremA", 40, 3)[0].passed
    monkeypatch.setattr(module, name, fault(getattr(module, name)))
    report = run_suite("theoremA", 40, 3)[0]
    assert not report.passed
    assert any("routes disagree" in f.detail for f in report.failures)

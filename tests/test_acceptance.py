"""Acceptance gate: the nine criteria, one test and one printed line each.

Every check is exact; a single failing trial fails its criterion.  Random
trials are seeded and derived per index, so a failure names the seed that
reproduces it.
"""

import pathlib
import random
from fractions import Fraction

import lfac.verify
from lfac.catalog import nov_lfactor
from lfac.chars import Character
from lfac.cli import main
from lfac.dsl import evaluate_text
from lfac.poles import (exceptional_poles, ideals_JK, nov_split, ps_split,
                        subregular_poles)
from lfac.render import text
from lfac.scalar import Scalar
from lfac.splitrat import SplitRational, ideal_generator
from lfac.verify import (CheckReport, TrialProfile, check_corollary62,
                         check_lemma71, random_gl2, random_gsp4_free,
                         random_pairing, random_rep, run_suite,
                         theoremA_fixed_cases)
from lfac.wdrep import char_rep, lfactor, sp, tensor, tensor_lfactor

from oracle import (expand_split, ideal_normal_form, numeric_second_opinion,
                    polydiv_exact, polygcd, polymul)
from test_cli import CASES as CLI_CASES

a = Scalar.symbol("a")
b = Scalar.symbol("b")
c = Scalar.symbol("c")
unr = Character.unramified


def _line(num: int, name: str, failures: list):
    print("[%d] %-34s %s" % (num, name,
                             "PASS" if not failures else "FAIL"))
    assert not failures, "\n".join(str(f) for f in failures[:5])


# criterion 1: 200 random character-parted representations satisfy both
# division identities, plus the hard-coded two-block golden case

def test_criterion_1_division_identities():
    failures = []
    profile = TrialProfile(101)
    for i in range(200):
        report = check_lemma71(random_rep(profile.derived(i)))
        if not report.passed:
            failures.append((profile.derived(i).seed, report.failures))
    w = char_rep(unr(a)) + char_rep(unr(b), 1)
    l = lfactor(w)
    ratio = l * l.shift(1) / lfactor(tensor(w, sp(1))).shift(Fraction(1, 2))
    if ratio != SplitRational.from_poles([a]):
        failures.append(("golden", ratio))
    _line(1, "division identities (200 trials)", failures)


# criterion 2: the four fixed shapes against plain Steinberg; shifted pairing
# factor equals L(s)L(s+1) for the two Steinberg-built shapes and 1 for the
# two supercuspidal shapes, with empty subregular reports where required

def test_criterion_2_steinberg_pairing_closed_forms():
    failures = []
    for pi, sigma in theoremA_fixed_cases():
        shifted = nov_lfactor(pi, sigma).shift(Fraction(1, 2))
        if pi.st_type in ("IIIa", "IVa"):
            l = lfactor(pi.rep)
            if shifted != l * l.shift(1):
                failures.append((pi.st_type, "closed form", shifted))
            if subregular_poles(pi).subregular_roots():
                failures.append((pi.st_type, "subregular report not empty"))
        else:
            if shifted != SplitRational.one():
                failures.append((pi.st_type, "expected 1", shifted))
    _line(2, "Steinberg pairing closed forms", failures)


# criterion 3: 100 random (free pi, principal-series sigma) pairs; the tensor
# route equals the product of the two character twists

def test_criterion_3_principal_series_product():
    failures = []
    syms = ["a", "b", "c", "d"]
    profile = TrialProfile(103)
    for i in range(100):
        rng = random.Random(profile.derived(i).seed)
        pi = random_gsp4_free(rng, syms)
        sigma = random_gl2(rng, syms, kinds=("ps",))
        if i % 10 == 0:
            with numeric_second_opinion(i) as checked:
                report = check_corollary62(pi, sigma)
            if checked != ["routes disagree"]:
                failures.append((profile.derived(i).seed, "not checked"))
        else:
            report = check_corollary62(pi, sigma)
        if not report.passed:
            failures.append((profile.derived(i).seed, report.failures))
    _line(3, "principal-series product (100 trials)", failures)


# criterion 4: 100 random theta lifts across the supported GL(2) kinds; the
# pairing factor of the lift is the product of the two GL(2) factors

def test_criterion_4_lift_product_formula():
    report = run_suite("soudry", 100, 104)[0]
    failures = [] if report.passed and report.trials >= 100 \
        else [report.summary()] + report.failures
    _line(4, "lift product formula (100 trials)", failures)


# criterion 5: ideal_generator against a brute-force oracle: specialize all
# symbols to rationals (redrawing clashing roots), expand, and compare the
# gcd-of-numerators over lcm-of-denominators with the engine generator

def _random_ideal_inputs(seed: int) -> list:
    rng = random.Random(seed)
    pool = []
    for _ in range(rng.randint(2, 4)):
        root = Scalar.symbol(rng.choice(["a", "b", "c"])) \
            ** rng.choice([1, 1, 2]) * Scalar.v_power(rng.randint(-2, 2))
        pool.append(root)
    fs = []
    for _ in range(rng.randint(1, 4)):
        factors = [(root, rng.choice([-2, -1, -1, 1, 2]))
                   for root in rng.sample(pool, rng.randint(0, len(pool)))]
        unit = Scalar.from_rational(Fraction(
            rng.randint(1, 5) * rng.choice([1, -1]), rng.randint(1, 3)))
        fs.append(SplitRational(unit=unit, xpower=rng.randint(-1, 1),
                                factors=factors))
    return fs


def _specialize_distinct(fs, rng) -> dict:
    syms = set()
    roots = set()
    for f in fs:
        syms.update(f.unit.symbols)
        for beta, _ in f.factors:
            syms.update(beta.symbols)
            roots.add(beta)
    for _ in range(50):
        values = {s: Fraction(rng.randint(2, 50) * rng.choice([1, -1]),
                              rng.randint(1, 9)) for s in sorted(syms)}
        vals = [r.substitute(values).as_fraction() for r in roots]
        if len(set(vals)) == len(vals) and all(x != 0 for x in vals):
            return values
    raise ValueError("no collision-free specialization found")


def _polylcm(p, q):
    return polydiv_exact(polymul(p, q), polygcd(p, q))


def test_criterion_5_ideal_generator_oracle():
    failures = []
    for i in range(100):
        fs = _random_ideal_inputs(105_000 + i)
        gen = ideal_generator(fs).generator
        values = _specialize_distinct(fs, random.Random(205_000 + i))
        pairs = [expand_split(f.substitute(values)) for f in fs]
        den = [Fraction(1)]
        for _, d in pairs:
            den = _polylcm(den, d)
        g = []
        for n, d in pairs:
            t = polymul(n, polydiv_exact(den, d))
            g = polygcd(g, t) if g else t
        oracle = ideal_normal_form(g, den)
        engine = ideal_normal_form(*expand_split(gen.substitute(values)))
        if oracle != engine:
            failures.append((i, [str(f) for f in fs], str(gen)))
    _line(5, "ideal generator oracle (100 sets)", failures)


# criterion 6: the exceptional classifier against the ratio route: poles of
# L(s)L(s+1) / L(tensor sp(1), s+1/2) intersected with the central condition

def test_criterion_6_exceptional_classifier_oracle():
    failures = []
    hits = 0
    for seed in range(100):
        pi, sigma = random_pairing(seed)
        l = nov_lfactor(pi, sigma)
        aug = tensor_lfactor(pi.rep, tensor(sigma.rep, sp(1)))
        ratio = l * l.shift(1) / aug.shift(Fraction(1, 2))
        chi = pi.similitude * sigma.central
        direct = {root for root in ratio.pole_roots()
                  if chi.is_unramified and chi.satake == root ** 2}
        engine = set(exceptional_poles(pi, sigma).exceptional_roots())
        if direct != engine:
            failures.append((seed, sorted(map(str, direct)),
                             sorted(map(str, engine))))
        if engine:
            hits += 1
    if hits < 25:
        failures.append(("hit rate too low to mean anything", hits))
    _line(6, "exceptional classifier oracle (100)", failures)


# criterion 7: on every catalog shape with a nontrivial L-factor, K vanishes
# exactly at the subregular roots and both generators are integral

def test_criterion_7_ideal_vanishing_biconditional():
    import lfac.catalog as cat
    shapes = [cat.type_I(unr(a), unr(b), unr(c)),
              cat.type_IIa(unr(a), unr(b)),
              cat.type_IIIa(unr(a), unr(b)),
              cat.type_IVa(unr(a)),
              cat.type_Va(unr(a)),
              cat.type_VIa(unr(a)),
              cat.type_X("l", unr(b), unr(a)),
              cat.type_XIa("l", unr(a))]
    failures = []
    for pi in shapes:
        if lfactor(pi.rep) == 1:
            failures.append((pi.st_type, "expected a nontrivial L-factor"))
            continue
        j, k = ideals_JK(pi)
        sub = set(subregular_poles(pi).subregular_roots())
        if set(k.zero_roots()) != sub:
            failures.append((pi.st_type, "K zeros", str(k)))
        if not all(k.vanishing_order(r) > 0 for r in sub):
            failures.append((pi.st_type, "K order at subregular root"))
        others = set(lfactor(pi.rep).pole_roots()) - sub
        if not all(k.vanishing_order(r) == 0 for r in others):
            failures.append((pi.st_type, "K vanishes off the subregular set"))
        if not all(e >= 0 for f in (j, k) for _, e in f.factors):
            failures.append((pi.st_type, "negative exponent", str(j), str(k)))
    _line(7, "ideal vanishing biconditional", failures)


# criterion 8: both splittings recompose exactly and the classified parts
# carry only simple factors

def _simple(f: SplitRational) -> bool:
    roots = f.pole_roots()
    return all(e == -1 for _, e in f.factors) and len(roots) == len(set(roots))


def test_criterion_8_split_recomposition():
    failures = []
    nonempty = 0
    for i in range(60):
        pi, sigma = random_pairing(108_000 + i)
        ns = nov_split(pi, sigma)
        if ns.regular * ns.exceptional != ns.full:
            failures.append((i, "nov recomposition"))
        if not _simple(ns.exceptional):
            failures.append((i, "exceptional part not simple"))
        ps = ps_split(pi)
        if ps.exceptional * ps.subregular * ps.kirillov != ps.full:
            failures.append((i, "ps recomposition"))
        if not _simple(ps.subregular):
            failures.append((i, "subregular part not simple"))
        if ns.exceptional != SplitRational.one() \
                or ps.subregular != SplitRational.one():
            nonempty += 1
    if nonempty < 10:
        failures.append(("too few nontrivial splits", nonempty))
    _line(8, "split recomposition (60 pairs)", failures)


# criterion 9: CLI golden bytes, the render/parse round trip on 200 values,
# and the exit-code contract

def test_criterion_9_cli_contract(capsys, monkeypatch):
    failures = []
    golden_dir = pathlib.Path(__file__).parent / "golden"
    for name, argv in CLI_CASES:
        code = main(argv)
        out, err = capsys.readouterr()
        expected = (golden_dir / name).read_text(encoding="utf-8")
        if code != 0 or err or out != expected:
            failures.append((name, code, err))
    for i in range(200):
        pi, sigma = random_pairing(3000 + i)
        value = [pi, sigma, nov_lfactor(pi, sigma),
                 exceptional_poles(pi, sigma), pi.rep, sigma.central][i % 6]
        if evaluate_text(text(value)) != value:
            failures.append(("roundtrip", i, text(value)))
    if main(["eval", "L(gsp4.IVa(unr(a)))"]) != 0:
        failures.append("exit 0")
    if main(["eval", "unr(a"]) != 2:
        failures.append("exit 2")

    def losing_suite(trials, seed, profile):
        report = CheckReport("lemma71", trials)
        report.record(0, seed, "forced failure")
        return report
    monkeypatch.setitem(lfac.verify.SUITES, "lemma71", losing_suite)
    if main(["verify", "--suite", "lemma71", "--trials", "1"]) != 1:
        failures.append("exit 1")
    capsys.readouterr()
    _line(9, "CLI contract and round trip", failures)

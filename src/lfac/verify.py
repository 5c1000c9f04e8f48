"""Seeded randomized verification of the formula-level identities.

Trials are derived deterministically from a profile: the same seed always
produces the same representations, parameters and verdicts, on any platform.
Each check returns a CheckReport; a failing trial records its derived seed
and a textual counterexample so it can be replayed in isolation.

Besides the exact route comparisons there is a numeric second opinion:
specialize every symbol to random rationals and compare dense expansions
through the unipoly oracle, which shares nothing with the factored
representation.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from . import catalog as cat
from .chars import Character
from .errors import TypeConstraintViolation
from .scalar import Scalar
from .splitrat import SplitRational
from .unipoly import expand_split, rational_equal
from .wdrep import (Block, CharPart, IrredPart, WDRep, lfactor, part_dual,
                    part_twist, sp, tensor, twist)

__all__ = ["TrialProfile", "CheckReport", "Failure", "random_rep",
           "random_gl2", "random_gsp4_free", "random_pairing",
           "check_lemma71", "check_theoremA", "check_soudry",
           "check_corollary62", "theoremA_fixed_cases", "run_suite",
           "numeric_equal", "SUITES"]

TRIAL_STRIDE = 1_000_003

_LETTERS = [c for c in "abcdefghijklmnoprstuwyz" if c not in "qvx"]


@dataclass(frozen=True)
class TrialProfile:
    seed: int
    block_budget: int = 4
    max_sp: int = 3
    symbol_pool: int = 4
    allow_irred: bool = False

    def derived(self, i: int) -> "TrialProfile":
        return TrialProfile(self.seed * TRIAL_STRIDE + i, self.block_budget,
                            self.max_sp, self.symbol_pool, self.allow_irred)


@dataclass(frozen=True)
class Failure:
    trial: int
    seed: int
    detail: str


@dataclass
class CheckReport:
    suite: str
    trials: int = 0
    failures: list[Failure] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def record(self, trial: int, seed: int, detail: str):
        self.failures.append(Failure(trial, seed, detail))

    def merge(self, other: "CheckReport"):
        self.trials += other.trials
        self.failures.extend(other.failures)

    def summary(self) -> str:
        return "%s: trials=%d failures=%d %s" % (
            self.suite, self.trials, len(self.failures),
            "PASS" if self.passed else "FAIL")


# ------------------------------------------------------------- random values

def _symbols(profile: TrialProfile) -> list[str]:
    return _LETTERS[:max(1, profile.symbol_pool)]


def _random_satake(rng: random.Random, syms) -> Scalar:
    s = Scalar.symbol(rng.choice(syms)) ** rng.choice([1, 1, 1, 2, -1])
    return s * Scalar.v_power(rng.randint(-3, 3))


def _random_char(rng: random.Random, syms, ramified_rate=0.25) -> Character:
    satake = _random_satake(rng, syms)
    if rng.random() < ramified_rate:
        return Character.ramified(rng.choice(["eta", "xi"]), satake)
    return Character.unramified(satake)


def _random_irred(rng: random.Random, syms) -> IrredPart:
    det = _random_char(rng, syms, ramified_rate=0.2)
    part = IrredPart(2, rng.choice(["t1", "t2"]), base_det=det)
    if rng.random() < 0.3:
        part = part.twisted(_random_char(rng, syms))
    return part


def random_rep(profile: TrialProfile) -> WDRep:
    """A random representation under the profile's budget; character parts
    only unless allow_irred is set."""
    rng = random.Random(profile.seed)
    blocks = []
    for _ in range(rng.randint(1, profile.block_budget)):
        n = rng.randint(0, profile.max_sp)
        if profile.allow_irred and rng.random() < 0.3:
            blocks.append(Block(_random_irred(rng, _symbols(profile)), n))
        else:
            blocks.append(Block(CharPart(_random_char(rng, _symbols(profile))), n))
    return WDRep(blocks)


def _ps(chi1: Character, chi2: Character) -> cat.Gl2Param:
    # random draws occasionally land on the reducible ratio; keep them
    try:
        return cat.principal_series(chi1, chi2)
    except TypeConstraintViolation:
        return cat.principal_series(chi1, chi2, reducible=True)


def random_gl2(rng: random.Random, syms, kinds=("ps", "st", "sc"),
               label_pool=("u1", "u2")) -> cat.Gl2Param:
    kind = rng.choice(kinds)
    if kind == "ps":
        return _ps(_random_char(rng, syms), _random_char(rng, syms))
    if kind == "st":
        chi = Character.trivial() if rng.random() < 0.4 \
            else _random_char(rng, syms)
        return cat.steinberg(chi)
    return cat.supercuspidal(rng.choice(label_pool), _random_char(rng, syms))


def random_gsp4_free(rng: random.Random, syms, allow_irred=False,
                     force_selfpaired=False) -> cat.Gsp4Param:
    """A random valid FREE parameter: blocks come in dual-twist-closed pairs,
    optionally seeded with a self-paired block that pins the similitude to a
    square (the configuration where the pole conditions can fire)."""
    blocks = []
    if force_selfpaired or rng.random() < 0.5:
        alpha = Character.unramified(_random_satake(rng, syms))
        chi = alpha ** 2
        blocks.append(Block(CharPart(alpha), rng.choice([0, 1, 1])))
    else:
        chi = _random_char(rng, syms)
    for _ in range(rng.randint(1, 2)):
        n = rng.randint(0, 2)
        if allow_irred and rng.random() < 0.3:
            part = _random_irred(rng, syms)
        else:
            part = CharPart(_random_char(rng, syms))
        blocks.append(Block(part, n))
        blocks.append(Block(part_twist(part_dual(part), chi), n))
    return cat.free(WDRep(blocks), chi)


def random_pairing(seed: int, allow_irred=True) -> tuple[cat.Gsp4Param, cat.Gl2Param]:
    """A random (GSp(4), GL(2)) pair for pole classification, engineered to
    satisfy the exceptional central condition in a sizable fraction of draws."""
    rng = random.Random(seed)
    syms = _LETTERS[:4]
    mode = rng.random()
    if mode < 0.4:
        # Steinberg against a self-paired Steinberg block: condition holds
        pi = random_gsp4_free(rng, syms, allow_irred=allow_irred,
                              force_selfpaired=True)
        sigma = cat.steinberg()
    elif mode < 0.6:
        # principal series tuned so one tensor line satisfies the condition
        beta = Character.unramified(_random_satake(rng, syms))
        chi = _random_char(rng, syms, ramified_rate=0.0)
        mu = _random_char(rng, syms, ramified_rate=0.0)
        nu = beta ** 2 * mu * chi.inverse()
        pi = cat.free(WDRep([Block(CharPart(beta), 0),
                             Block(CharPart(chi * beta.inverse()), 0)]), chi)
        sigma = _ps(mu, nu)
    else:
        pi = random_gsp4_free(rng, syms, allow_irred=allow_irred)
        sigma = random_gl2(rng, syms)
    return pi, sigma


# ------------------------------------------------------------- numeric mode

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


# ------------------------------------------------------------- single checks

def _blocks_with_n(w: WDRep, n: int) -> WDRep:
    return WDRep(b for b in w.blocks if b.n == n)


def check_lemma71(w: WDRep, numeric_seed=None) -> CheckReport:
    """Both division identities on one representation.

    Identity 1: L(w,s) L(w,s+1) / L(w (x) sp(1), s+1/2) is the product of the
    n=0 block factors.  Identity 2 tensors the numerator arguments by sp(1)
    and picks out the n=1 blocks instead.
    """
    rep = CheckReport("lemma71", 1)
    half = Fraction(1, 2)
    l = lfactor(w)
    w1 = tensor(w, sp(1))
    l1 = lfactor(w1)
    lhs1 = l * l.shift(1) / l1.shift(half)
    rhs1 = lfactor(_blocks_with_n(w, 0))
    if lhs1 != rhs1:
        rep.record(0, 0, "identity 1: %s != %s on %r" % (lhs1, rhs1, w))
    lhs2 = l1.shift(half) * l1.shift(Fraction(3, 2)) \
        / lfactor(tensor(w1, sp(1))).shift(1)
    rhs2 = lfactor(_blocks_with_n(w, 1))
    if lhs2 != rhs2:
        rep.record(0, 0, "identity 2: %s != %s on %r" % (lhs2, rhs2, w))
    if numeric_seed is not None and rep.passed:
        if not (numeric_equal(lhs1, rhs1, numeric_seed)
                and numeric_equal(lhs2, rhs2, numeric_seed + 1)):
            rep.record(0, 0, "numeric specialization disagrees on %r" % (w,))
    return rep


def _product_route(pi: cat.Gsp4Param, sigma: cat.Gl2Param) -> SplitRational:
    """The pairing factor without any tensor machinery: the two-character
    product for principal series, the division identity for Steinberg twists."""
    if sigma.kind == "principal-series":
        c1, c2 = (b.part.char for b in sigma.rep.blocks)
        return lfactor(twist(pi.rep, c1)) * lfactor(twist(pi.rep, c2))
    if sigma.kind == "steinberg-twist":
        chi = sigma.rep.blocks[0].part.char
        w = twist(pi.rep, chi)
        l = lfactor(w)
        n0 = lfactor(_blocks_with_n(w, 0))
        return (l * l.shift(1) / n0).shift(Fraction(-1, 2))
    raise TypeConstraintViolation("no product route for kind %r" % sigma.kind)


def check_theoremA(pi: cat.Gsp4Param, sigma: cat.Gl2Param,
                   numeric_seed=None) -> CheckReport:
    """Tensor route against product route for a non-supercuspidal sigma; for
    IIIa and IVa against plain Steinberg, additionally the closed form
    L(pi,s) L(pi,s+1) at s+1/2 and the absence of subregular poles."""
    if sigma.kind == "supercuspidal":
        raise TypeConstraintViolation("theoremA route comparison needs a "
                                      "non-supercuspidal sigma")
    rep = CheckReport("theoremA", 1)
    a = cat.nov_lfactor(pi, sigma)
    b = _product_route(pi, sigma)
    if a != b:
        rep.record(0, 0, "routes disagree: %s != %s on %r / %r"
                   % (a, b, pi.rep, sigma.rep))
    if numeric_seed is not None and rep.passed and not numeric_equal(a, b, numeric_seed):
        rep.record(0, 0, "numeric specialization disagrees on %r / %r"
                   % (pi.rep, sigma.rep))
    if pi.st_type in ("IIIa", "IVa") and sigma.kind == "steinberg-twist" \
            and sigma.rep.blocks[0].part.char.is_trivial:
        from .poles import subregular_poles
        l = lfactor(pi.rep)
        if a.shift(Fraction(1, 2)) != l * l.shift(1):
            rep.record(0, 0, "IIIa/IVa closed form fails on %r" % (pi.rep,))
        if subregular_poles(pi).subregular_roots():
            rep.record(0, 0, "unexpected subregular poles on %r" % (pi.rep,))
    return rep


def check_corollary62(pi: cat.Gsp4Param, sigma: cat.Gl2Param,
                      numeric_seed=None) -> CheckReport:
    """Tensor-route pairing factor equals the product over the two inducing
    characters of a principal-series sigma."""
    if sigma.kind != "principal-series":
        raise TypeConstraintViolation("corollary62 route needs a principal "
                                      "series sigma")
    rep = CheckReport("corollary62", 1)
    a = cat.nov_lfactor(pi, sigma)
    b = _product_route(pi, sigma)
    if a != b:
        rep.record(0, 0, "product formula fails: %s != %s on %r"
                   % (a, b, pi.rep))
    if numeric_seed is not None and rep.passed and not numeric_equal(a, b, numeric_seed):
        rep.record(0, 0, "numeric specialization disagrees on %r" % (pi.rep,))
    return rep


def check_soudry(tau1: cat.Gl2Param, tau2: cat.Gl2Param, sigma: cat.Gl2Param,
                 numeric_seed=None) -> CheckReport:
    """Pairing factor of the lift against the product of the two GL(2)
    factors."""
    rep = CheckReport("soudry", 1)
    lift = cat.theta_lift(tau1, tau2)
    a = cat.nov_lfactor(lift, sigma)
    b = cat.rs_lfactor(tau1, sigma) * cat.rs_lfactor(tau2, sigma)
    if a != b:
        rep.record(0, 0, "lift factor %s != product %s" % (a, b))
    if numeric_seed is not None and rep.passed and not numeric_equal(a, b, numeric_seed):
        rep.record(0, 0, "numeric specialization disagrees")
    return rep


# ------------------------------------------------------------------- suites

def theoremA_fixed_cases() -> list[tuple[cat.Gsp4Param, cat.Gl2Param]]:
    """The four fixed shapes checked against plain Steinberg."""
    a = Character.unramified(Scalar.symbol("a"))
    b = Character.unramified(Scalar.symbol("b"))
    st = cat.steinberg()
    return [(cat.type_IVa(a), st),
            (cat.type_IIIa(a, b), st),
            (cat.sc_irred4("l4"), st),
            (cat.sc_pair("l2", "l2p", a), st)]


def _suite_lemma71(trials: int, seed: int, profile: TrialProfile) -> CheckReport:
    out = CheckReport("lemma71")
    base = TrialProfile(seed, profile.block_budget, profile.max_sp,
                        profile.symbol_pool, profile.allow_irred)
    for i in range(trials):
        p = base.derived(i)
        r = check_lemma71(random_rep(p))
        r.failures = [Failure(i, p.seed, f.detail) for f in r.failures]
        out.merge(r)
    return out


def _suite_theoremA(trials: int, seed: int, profile: TrialProfile) -> CheckReport:
    out = CheckReport("theoremA")
    for pi, sigma in theoremA_fixed_cases():
        r = check_theoremA(pi, sigma)
        out.merge(r)
    for i in range(trials):
        s = seed * TRIAL_STRIDE + i
        rng = random.Random(s)
        syms = _symbols(profile)
        pi = random_gsp4_free(rng, syms, allow_irred=profile.allow_irred)
        sigma = random_gl2(rng, syms, kinds=("ps", "st"))
        r = check_theoremA(pi, sigma)
        r.failures = [Failure(i, s, f.detail) for f in r.failures]
        out.merge(r)
    return out


def _matched_gl2_pair(rng: random.Random, syms):
    kinds = rng.choice([("ps", "ps"), ("st", "st"), ("ps", "st"),
                        ("sc", "sc"), ("sc", "ps"), ("sc", "st")])
    minus = Character.unramified(Scalar.from_rational(-1))
    if kinds == ("ps", "ps"):
        c1, c2, mu = (_random_char(rng, syms) for _ in range(3))
        return _ps(c1, c2), _ps(mu, c1 * c2 * mu.inverse())
    if kinds == ("st", "st"):
        chi = _random_char(rng, syms)
        chi2 = chi if rng.random() < 0.5 else chi * minus
        return cat.steinberg(chi), cat.steinberg(chi2)
    if kinds == ("ps", "st"):
        chi = _random_char(rng, syms)
        mu = _random_char(rng, syms)
        return _ps(mu, chi ** 2 * mu.inverse()), cat.steinberg(chi)
    if kinds == ("sc", "sc"):
        det = _random_char(rng, syms)
        return (cat.supercuspidal("t1", det),
                cat.supercuspidal(rng.choice(["t1", "t2"]), det))
    if kinds == ("sc", "ps"):
        det = _random_char(rng, syms)
        mu = _random_char(rng, syms)
        return cat.supercuspidal("t1", det), _ps(mu, det * mu.inverse())
    chi = _random_char(rng, syms)
    return cat.supercuspidal("t1", chi ** 2), cat.steinberg(chi)


def _suite_soudry(trials: int, seed: int, profile: TrialProfile) -> CheckReport:
    out = CheckReport("soudry")
    for i in range(trials):
        s = seed * TRIAL_STRIDE + i
        rng = random.Random(s)
        syms = _symbols(profile)
        tau1, tau2 = _matched_gl2_pair(rng, syms)
        # sigma from an independent label pool, so supercuspidal draws stay
        # inside the supported (non-twin) hypothesis
        sigma = random_gl2(rng, syms, label_pool=("u1", "u2"))
        r = check_soudry(tau1, tau2, sigma)
        r.failures = [Failure(i, s, f.detail) for f in r.failures]
        out.merge(r)
    return out


SUITES = {"lemma71": _suite_lemma71, "theoremA": _suite_theoremA,
          "soudry": _suite_soudry}


def run_suite(name: str, trials: int, seed: int,
              profile: TrialProfile | None = None) -> list[CheckReport]:
    """Run one named suite, or all of them, returning one report per suite."""
    profile = profile or TrialProfile(seed)
    if name == "all":
        return [SUITES[n](trials, seed, profile) for n in sorted(SUITES)]
    if name not in SUITES:
        raise TypeConstraintViolation("unknown suite %r" % name)
    return [SUITES[name](trials, seed, profile)]

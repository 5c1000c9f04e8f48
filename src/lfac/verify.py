"""Seeded randomized verification of the formula-level identities.

Trials are derived deterministically from a profile: the same seed always
produces the same representations, parameters and verdicts, on any platform.
Each check returns a CheckReport; a failing trial records its derived seed
and a textual counterexample so it can be replayed in isolation.

Draws are built in canonical form: a Satake value s^e * v^k is one Laurent
monomial, and a drawn character takes its tag as it stands, () or
((name, 1),).  The random numbers are drawn in a fixed order (s, then e,
then k), so a seed names one trial.  Of the profile, only random_rep reads
block_budget and max_sp, so they reach lemma71 alone; allow_irred reaches
lemma71 and theoremA; symbol_pool reaches all three suites and names at
most the 23 letters of _LETTERS (a pool below 1 reads as 1).

Theorem A's two routes share no L-factor reader: nov_lfactor reads the lines
of phi_pi (x) phi_sigma, the product route each L(phi_pi (x) chi) off phi_pi's
blocks through lfactor(w, chi), with no twist built.
"""

from __future__ import annotations

import functools
import random
from fractions import Fraction

from . import SUITE_NAMES
from . import catalog as cat
from .chars import Character
from .errors import TypeConstraintViolation
from .poles import subregular_poles
from .record import Record
from .scalar import _ONE_C, Scalar
from .splitrat import SplitRational
from .wdrep import (Block, IrredPart, WDRep, _dual_twist, lfactor, sp, tensor,
                    tensor_lfactor)

__all__ = ["TrialProfile", "CheckReport", "Failure", "random_rep",
           "random_gl2", "random_gsp4_free", "random_pairing",
           "check_lemma71", "check_theoremA", "check_soudry",
           "check_corollary62", "theoremA_fixed_cases", "run_suite",
           "SUITES"]

TRIAL_STRIDE = 1_000_003

_LETTERS = [c for c in "abcdefghijklmnoprstuwyz" if c not in "qvx"]

# the shifts s -> s +- 1/2 of the division identities, and their sp(1)
_HALF = Fraction(1, 2)
_MINUS_HALF = Fraction(-1, 2)
_SP1 = sp(1)


class TrialProfile(Record):
    seed: int
    block_budget: int = 4
    max_sp: int = 3
    symbol_pool: int = 4
    allow_irred: bool = False

    def derived(self, i: int) -> "TrialProfile":
        return self.replace(seed=self.seed * TRIAL_STRIDE + i)


class Failure(Record):
    trial: int
    seed: int
    detail: str


class CheckReport(Record, frozen=False):
    suite: str
    trials: int = 0
    failures: list[Failure] | None = None

    def __init__(self, suite: str, trials: int = 0,
                 failures: list[Failure] | None = None):
        # one report per trial: plain stores, and a new list for each
        self.suite = suite
        self.trials = trials
        self.failures = [] if failures is None else failures

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
    # s^e * v^k as one Laurent monomial, drawn s, then e, then k
    s = rng.choice(syms)
    e = rng.choice([1, 1, 1, 2, -1])
    return Scalar._monomial((s, "v"), (e, rng.randint(-3, 3)), _ONE_C)


def _random_char(rng: random.Random, syms, ramified_rate=0.25) -> Character:
    satake = _random_satake(rng, syms)
    if rng.random() < ramified_rate:
        return Character._raw(((rng.choice(["eta", "xi"]), 1),), satake)
    return Character._raw((), satake)


def _random_irred(rng: random.Random, syms) -> IrredPart:
    det = _random_char(rng, syms, ramified_rate=0.2)
    part = IrredPart(2, rng.choice(["t1", "t2"]), base_det=det)
    if rng.random() < 0.3:
        part = part * _random_char(rng, syms)
    return part


def random_rep(profile: TrialProfile) -> WDRep:
    """A random representation under the profile's budget; character parts
    only unless allow_irred is set."""
    return _draw_rep(random.Random(profile.seed), profile)


def _draw_rep(rng: random.Random, profile: TrialProfile) -> WDRep:
    # random_rep's draws from an rng seeded with profile.seed
    syms = _symbols(profile)
    blocks = []
    for _ in range(rng.randint(1, profile.block_budget)):
        n = rng.randint(0, profile.max_sp)
        if profile.allow_irred and rng.random() < 0.3:
            blocks.append(Block(_random_irred(rng, syms), n))
        else:
            blocks.append(Block(_random_char(rng, syms), n))
    return WDRep(blocks)


def _ps(chi1: Character, chi2: Character) -> cat.Gl2Param:
    # random draws occasionally land on the reducible ratio; keep them
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
        blocks.append(Block(alpha, rng.choice([0, 1, 1])))
    else:
        chi = _random_char(rng, syms)
    for _ in range(rng.randint(1, 2)):
        n = rng.randint(0, 2)
        if allow_irred and rng.random() < 0.3:
            part = _random_irred(rng, syms)
        else:
            part = _random_char(rng, syms)
        blocks.append(Block(part, n))
        blocks.append(Block(_dual_twist(part, chi), n))
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
        nu = beta ** 2 * mu / chi
        pi = cat.free(WDRep([Block(beta, 0), Block(chi / beta, 0)]), chi)
        sigma = _ps(mu, nu)
    else:
        pi = random_gsp4_free(rng, syms, allow_irred=allow_irred)
        sigma = random_gl2(rng, syms)
    return pi, sigma


# ------------------------------------------------------------- single checks

def _blocks_with_n(w: WDRep, n: int) -> WDRep:
    return WDRep(b for b in w.blocks if b.n == n)


def _compare(rep: CheckReport, a, b, what: str, *context):
    """Record a failure on rep when a != b; the detail, naming the context,
    is built on failure."""
    if a != b:
        rep.record(0, 0, "%s: %s != %s on %s"
                   % (what, a, b, " / ".join(repr(c) for c in context)))


def check_lemma71(w: WDRep) -> CheckReport:
    """Both division identities on one representation.

    Identity 1: L(w,s) L(w,s+1) / L(w (x) sp(1), s+1/2) is the product of the
    n=0 block factors.  Identity 2 tensors the numerator arguments by sp(1)
    and picks out the n=1 blocks instead.

    w1 = w (x) sp(1) is built as blocks and L(w1) read off them, so tensor
    and lfactor run on every trial; L(w1 (x) sp(1)) is read off the
    unramified tensor lines of (w1, sp(1)) by tensor_lfactor, without
    building the product.  Hence only w1 is held to BLOCK_MAX.
    """
    rep = CheckReport("lemma71", 1)
    l = lfactor(w)
    w1 = tensor(w, _SP1)
    l1 = lfactor(w1).shift(_HALF)
    _compare(rep, l * l.shift(1) / l1, lfactor(_blocks_with_n(w, 0)),
             "identity 1", w)
    _compare(rep, l1 * l1.shift(1) / tensor_lfactor(w1, _SP1).shift(1),
             lfactor(_blocks_with_n(w, 1)), "identity 2", w)
    return rep


def _product_route(pi: cat.Gsp4Param, sigma: cat.Gl2Param) -> SplitRational:
    """The pairing factor without any tensor machinery: the two-character
    product for principal series, the division identity for Steinberg twists,
    each L(phi_pi (x) chi) read off phi_pi's blocks by lfactor(w, chi).  No
    twist is built; the Steinberg branch builds only the n = 0 slice."""
    if sigma.entry == "gl2.ps":
        c1, c2 = (b.part for b in sigma.rep.blocks)
        return lfactor(pi.rep, c1) * lfactor(pi.rep, c2)
    if sigma.entry == "gl2.st":
        chi = sigma.rep.blocks[0].part
        l = lfactor(pi.rep, chi)
        n0 = lfactor(_blocks_with_n(pi.rep, 0), chi)
        return (l * l.shift(1) / n0).shift(_MINUS_HALF)
    raise TypeConstraintViolation("no product route for %s" % sigma.entry)


def check_theoremA(pi: cat.Gsp4Param, sigma: cat.Gl2Param) -> CheckReport:
    """Tensor route against product route for a non-supercuspidal sigma; for
    IIIa and IVa against plain Steinberg, additionally the closed form
    L(pi,s) L(pi,s+1) at s+1/2 and the absence of subregular poles."""
    if sigma.entry == "gl2.sc":
        raise TypeConstraintViolation("theoremA route comparison needs a "
                                      "non-supercuspidal sigma")
    rep = CheckReport("theoremA", 1)
    a = cat.nov_lfactor(pi, sigma)
    _compare(rep, a, _product_route(pi, sigma), "routes disagree", pi.rep,
             sigma.rep)
    if pi.st_type in ("IIIa", "IVa") and sigma.entry == "gl2.st" \
            and sigma.rep.blocks[0].part.is_trivial:
        l = lfactor(pi.rep)
        _compare(rep, a.shift(_HALF), l * l.shift(1),
                 "IIIa/IVa closed form", pi.rep)
        if subregular_poles(pi).subregular_roots():
            rep.record(0, 0, "unexpected subregular poles on %r" % (pi.rep,))
    return rep


def check_corollary62(pi: cat.Gsp4Param, sigma: cat.Gl2Param) -> CheckReport:
    """Tensor-route pairing factor equals the product over the two inducing
    characters of a principal-series sigma."""
    if sigma.entry != "gl2.ps":
        raise TypeConstraintViolation("corollary62 route needs a principal "
                                      "series sigma")
    # for a principal-series sigma, theoremA is just the route comparison
    return check_theoremA(pi, sigma).replace(suite="corollary62")


def check_soudry(tau1: cat.Gl2Param, tau2: cat.Gl2Param,
                 sigma: cat.Gl2Param) -> CheckReport:
    """Pairing factor of the lift against the product of the two GL(2)
    factors."""
    rep = CheckReport("soudry", 1)
    _compare(rep, cat.nov_lfactor(cat.theta_lift(tau1, tau2), sigma),
             cat.rs_lfactor(tau1, sigma) * cat.rs_lfactor(tau2, sigma),
             "lift against product", tau1.rep, tau2.rep, sigma.rep)
    return rep


# ------------------------------------------------------------------- suites

@functools.lru_cache(maxsize=None)
def theoremA_fixed_cases() -> tuple[tuple[cat.Gsp4Param, cat.Gl2Param], ...]:
    """The four fixed shapes checked against plain Steinberg, built once per
    process: the parameters are immutable records."""
    a = Character.unramified(Scalar.symbol("a"))
    b = Character.unramified(Scalar.symbol("b"))
    st = cat.steinberg()
    return ((cat.type_IVa(a), st),
            (cat.type_IIIa(a, b), st),
            (cat.sc_irred4("l4"), st),
            (cat.sc_pair("l2", "l2p", a), st))


def _trials(suite: str, trials: int, seed: int, profile: TrialProfile,
            trial, fixed=()) -> CheckReport:
    """The fixed reports, then trial(p, rng) for each i, where p is the profile
    at seed derived for i and rng is seeded with p.seed; stamps (i, p.seed)."""
    out = CheckReport(suite)
    for r in fixed:
        out.merge(r)
    base = profile.replace(seed=seed)
    for i in range(trials):
        p = base.derived(i)
        r = trial(p, random.Random(p.seed))
        r.failures = [Failure(i, p.seed, f.detail) for f in r.failures]
        out.merge(r)
    return out


def _suite_lemma71(trials: int, seed: int, profile: TrialProfile) -> CheckReport:
    return _trials("lemma71", trials, seed, profile,
                   lambda p, rng: check_lemma71(_draw_rep(rng, p)))


def _suite_theoremA(trials: int, seed: int, profile: TrialProfile) -> CheckReport:
    def trial(p, rng):
        syms = _symbols(p)
        return check_theoremA(
            random_gsp4_free(rng, syms, allow_irred=p.allow_irred),
            random_gl2(rng, syms, kinds=("ps", "st")))
    return _trials("theoremA", trials, seed, profile, trial,
                   [check_theoremA(*case) for case in theoremA_fixed_cases()])


def _matched_gl2_pair(rng: random.Random, syms):
    kinds = rng.choice([("ps", "ps"), ("st", "st"), ("ps", "st"),
                        ("sc", "sc"), ("sc", "ps"), ("sc", "st")])
    minus = Character.unramified(Scalar.from_rational(-1))
    if kinds == ("ps", "ps"):
        c1, c2, mu = (_random_char(rng, syms) for _ in range(3))
        return _ps(c1, c2), _ps(mu, c1 * c2 / mu)
    if kinds == ("st", "st"):
        chi = _random_char(rng, syms)
        chi2 = chi if rng.random() < 0.5 else chi * minus
        return cat.steinberg(chi), cat.steinberg(chi2)
    if kinds == ("ps", "st"):
        chi = _random_char(rng, syms)
        mu = _random_char(rng, syms)
        return _ps(mu, chi ** 2 / mu), cat.steinberg(chi)
    if kinds == ("sc", "sc"):
        det = _random_char(rng, syms)
        return (cat.supercuspidal("t1", det),
                cat.supercuspidal(rng.choice(["t1", "t2"]), det))
    if kinds == ("sc", "ps"):
        det = _random_char(rng, syms)
        mu = _random_char(rng, syms)
        return cat.supercuspidal("t1", det), _ps(mu, det / mu)
    chi = _random_char(rng, syms)
    return cat.supercuspidal("t1", chi ** 2), cat.steinberg(chi)


def _suite_soudry(trials: int, seed: int, profile: TrialProfile) -> CheckReport:
    def trial(p, rng):
        syms = _symbols(p)
        tau1, tau2 = _matched_gl2_pair(rng, syms)
        # sigma's labels (u1, u2) never twin the pair's (t1, t2)
        return check_soudry(tau1, tau2, random_gl2(rng, syms))
    return _trials("soudry", trials, seed, profile, trial)


SUITES = dict(zip(SUITE_NAMES, (_suite_lemma71, _suite_soudry,
                                _suite_theoremA)))


def run_suite(name: str, trials: int, seed: int,
              profile: TrialProfile | None = None) -> list[CheckReport]:
    """Run one named suite, or all of them, returning one report per suite;
    trial i uses seed seed * TRIAL_STRIDE + i; seed overrides profile.seed.
    A symbol pool larger than the draws' letters is refused."""
    profile = profile or TrialProfile(seed)
    if profile.symbol_pool > len(_LETTERS):
        raise TypeConstraintViolation("symbol pool must be at most %d, got %d"
                                      % (len(_LETTERS), profile.symbol_pool))
    if name == "all":
        return [SUITES[n](trials, seed, profile) for n in sorted(SUITES)]
    if name not in SUITES:
        raise TypeConstraintViolation("unknown suite %r" % name)
    return [SUITES[name](trials, seed, profile)]

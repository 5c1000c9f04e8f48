"""The lfac benchmark workloads.

Every workload is a closed loop with one client: the next operation starts
when the previous one has returned.  An operation is one suite trial
(``verify_*``), one cold ``python -m lfac`` process (``cli_cold``) or one
catalog query request (``queries``, ``sums``).  Each operation ends in one of
three states:

* ``ok``: the answer was checked and is right;
* ``refused``: lfac declined with a typed ``LfacError``, which is an answer,
  not a failure;
* ``failed``: a wrong answer, a FAIL verdict, an untyped exception or an
  unexpected exit code.

A workload turns a seed into an endless stream of items; ``run_item`` runs
one item and returns its operations as ``Op`` records, in order.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import os
import random
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import lfac
from lfac import cli, render, verify
from lfac.errors import LfacError
from refclock import CHILD_PRELUDE, kernel_time, scale

OK, REFUSED, FAILED = "ok", "refused", "failed"
BATCH_TRIALS = 20      # trials per run_suite call in a timed run
CHILD_TIMEOUT_S = 60   # a cold CLI process that takes longer has failed


@dataclass
class Op:
    latency_s: float
    status: str
    output: str       # the checked answer, or why it was refused or failed
    tag: str = ""     # how to replay this operation
    scale: float = 0  # wall-to-reference factor a child measured, if any


def _untyped(e: BaseException) -> str:
    return "".join(traceback.format_exception_only(type(e), e)).strip()


def child_env(root: Path) -> dict:
    """Environment for child interpreters: lfac from the checkout's src."""
    return dict(os.environ, PYTHONPATH=str(root / "src"),
                PYTHONIOENCODING="utf-8")


# ------------------------------------------------------------------- verify

@dataclass
class VerifySuite:
    """One identity suite run in-process, a fixed number of trials per
    ``run_suite`` call, warm.  Per-trial latency runs from the end of one
    check call to the end of the next, so it includes the draw."""

    suite: str
    trace_trials: int = 40
    round_size = 1

    @property
    def name(self):
        return "verify_" + self.suite

    def size(self) -> dict:
        return {"suite": self.suite, "trials_per_run_suite_call":
                BATCH_TRIALS, "profile": "TrialProfile defaults",
                "trace_trials": self.trace_trials}

    def stream(self, seed: int):
        rng = random.Random(seed)
        while True:
            yield rng.randrange(1, 2 ** 31)

    def trace_items(self, seed: int) -> list:
        return [next(self.stream(seed))]

    def run_item(self, batch_seed: int, tracer=None, trials=None,
                 calibrate=True) -> list[Op]:
        """One ``run_suite`` call, an op per trial.  With ``calibrate`` the
        kernel is timed after every trial, outside the trial's latency, and
        each trial carries the scale of the kernel times around it."""
        trials = trials or BATCH_TRIALS
        marks = []   # (check end, next trial start, kernel time, report)
        name = "check_" + self.suite
        check = getattr(verify, name)

        def timed_check(*args, **kwargs):
            report = check(*args, **kwargs)
            end = perf_counter()
            k = kernel_time() if calibrate else 0.0
            marks.append((end, perf_counter(), k, report))
            if tracer is not None:
                tracer.op += 1
            return report

        setattr(verify, name, timed_check)
        k0 = kernel_time() if calibrate else 0.0
        start = perf_counter()
        try:
            (report,) = verify.run_suite(self.suite, trials, batch_seed)
            error = None
        except Exception as e:  # an untyped error fails the rest of the call
            report, error = None, _untyped(e)
        finally:
            setattr(verify, name, check)
        fixed = len(marks) - trials if error is None else 0
        ops = []
        for i, (end, next_start, k, r) in enumerate(marks):
            trial = i - fixed
            tag = ("run_suite(%r, %d, %d) fixed case %d"
                   % (self.suite, trials, batch_seed, i) if trial < 0 else
                   "run_suite(%r, %d, %d) trial %d, seed %d"
                   % (self.suite, trials, batch_seed, trial,
                      batch_seed * verify.TRIAL_STRIDE + trial))
            detail = "; ".join(f.detail for f in r.failures)
            ops.append(Op(end - start, OK if r.passed else FAILED,
                          "PASS" if r.passed else detail, tag,
                          scale(k0, k) if calibrate else 0))
            start, k0 = next_start, k
        if error is not None:
            ops += [Op(0.0, FAILED, error, "run_suite(%r, %d, %d)" % (
                self.suite, trials, batch_seed))] * (trials - len(ops))
        elif report.trials != len(marks) or len(report.failures) != \
                sum(len(m[3].failures) for m in marks):
            ops.append(Op(0.0, FAILED, "report %s disagrees with its %d "
                          "checks" % (report.summary(), len(marks))))
        return ops

    def trace_run_item(self, item, tracer=None) -> list[Op]:
        # no kernel inside a traced call: it would count as verify self time
        return self.run_item(item, tracer, self.trace_trials, calibrate=False)


# ----------------------------------------------------------------- cli_cold

def cli_cases(root: Path) -> list[tuple[str, list[str]]]:
    """The (golden file, argv) cases of tests/test_cli.py, read without
    importing the test module."""
    tree = ast.parse((root / "tests" / "test_cli.py").read_text("utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "CASES"
                for t in node.targets):
            return [(g, list(a)) for g, a in ast.literal_eval(node.value)]
    raise RuntimeError("tests/test_cli.py has no CASES list")


# ``python -m lfac ARGV`` as runpy does it for -m, with the calibration
# kernel timed just before (after one untimed warming run) and just after;
# the kernel times go to stderr after a marker, and the rest of stderr must
# still be empty.
CALIB_MARK = b"\0calibration "
COLD_CODE = CHILD_PRELUDE + """
import runpy, sys
kernel()
before = kernel_time()
sys.argv[0] = "lfac"
try:
    runpy.run_module("lfac", run_name="__main__", alter_sys=True)
finally:
    after = kernel_time()
    sys.stderr.write("\\0calibration %r %r" % (before, after))
"""


@dataclass
class CliCold:
    """A fresh ``python -m lfac`` per case, stdout compared byte for byte
    with tests/golden; each round runs every case once in seeded order."""

    root: Path
    golden: Path | None = None

    name = "cli_cold"

    def __post_init__(self):
        self.cases = cli_cases(self.root)
        self.round_size = len(self.cases)
        self.golden = self.golden or self.root / "tests" / "golden"
        self.env = child_env(self.root)

    def size(self) -> dict:
        return {"cases": len(self.cases), "golden": "tests/golden",
                "trace_cases": len(self.cases)}

    def stream(self, seed: int):
        rng = random.Random(seed)
        while True:
            order = list(self.cases)
            rng.shuffle(order)
            yield from order

    def trace_items(self, seed: int) -> list:
        return [c for c, _ in zip(self.stream(seed), self.cases)]

    def expected(self, golden: str) -> bytes:
        return (self.golden / golden).read_bytes()

    def run_item(self, case, tracer=None) -> list[Op]:
        golden, argv = case
        tag = "python -m lfac " + " ".join(argv)
        t0 = perf_counter()
        try:
            proc = subprocess.run([sys.executable, "-c", COLD_CODE, *argv],
                                  cwd=self.root, env=self.env,
                                  capture_output=True,
                                  timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return [Op(perf_counter() - t0, FAILED, "timed out", tag)]
        t1 = perf_counter()
        err, _, calib = proc.stderr.rpartition(CALIB_MARK)
        try:
            before, after = (float(x) for x in calib.split())
        except ValueError:
            return [Op(t1 - t0, FAILED, "no calibration line: %s" % (
                proc.stderr.decode("utf-8", "replace")), tag)]
        op = Op(t1 - t0, OK, proc.stdout.decode("utf-8"), tag,
                scale(before, after))
        if proc.returncode != 0:
            op.status, op.output = FAILED, "exit %d: %s" % (
                proc.returncode, err.decode("utf-8", "replace"))
        elif proc.stdout != self.expected(golden) or err:
            op.status, op.output = FAILED, "output differs from %s" % golden
        return [op]

    def trace_run_item(self, case, tracer=None) -> list[Op]:
        """The same case through ``cli.main`` in this process."""
        golden, argv = case
        out, err = io.StringIO(), io.StringIO()
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = cli.main(argv)
        except Exception as e:
            return [Op(perf_counter() - t0, FAILED, _untyped(e), golden)]
        t1 = perf_counter()
        if tracer is not None:
            tracer.op += 1
        ok = code == 0 and not err.getvalue() and \
            out.getvalue().encode("utf-8") == self.expected(golden)
        return [Op(t1 - t0, OK if ok else FAILED, out.getvalue(), golden)]


# ------------------------------------------------------- queries and sums

# Every GSp(4) type of the catalog, as the DSL spells it, with the argument
# kinds its constructor takes: c a character, l a label.  IIa, Va, VIa, X and
# XIa are the data-file types.
GSP4_SHAPES = {
    "I": "ccc", "IIa": "cc", "IIIa": "cc", "IVa": "c", "Va": "c", "VIa": "c",
    "VII": "lcc", "VIIIa": "lc", "IXa": "lc", "X": "lcc", "XIa": "lc",
    "sc4": "lc", "scpair": "llc", "free": "free",
}
GL2_KINDS = ("ps", "st", "sc")
_SYMBOLS = "abcd"
_LABELS = ("t1", "t2")
_SIGMA_LABELS = ("t1", "u1")   # shared t1 lets some twin pairs be refused
_SUM_TERMS = ("a", "a*v", "b", "b*v")


class _Draw:
    """Seeded expression text for parameters.  A character's Satake value is
    a Laurent monomial, or with ``sums`` a sum of two distinct terms."""

    def __init__(self, rng: random.Random, sums: bool):
        self.rng = rng
        self.sums = sums

    def monomial(self) -> str:
        rng = self.rng
        s = rng.choice(_SYMBOLS)
        e = rng.choice((1, 1, 1, 2, -1))
        k = rng.randint(-3, 3)
        text = s if e == 1 else "%s^%d" % (s, e)
        return text if k == 0 else "%s*v%s" % (
            text, "" if k == 1 else "^%d" % k)

    def satake(self) -> str:
        if not self.sums:
            return self.monomial()
        # two distinct terms out of a, a*v, b, b*v: never zero, and every
        # sum lives in the same three-variable field, so requests of one
        # shape cost about the same whatever the seed
        return " + ".join(sorted(self.rng.sample(_SUM_TERMS, 2)))

    def char(self) -> str:
        if self.rng.random() < 0.25:
            return "ram(%s, %s)" % (self.rng.choice(("eta", "xi")),
                                    self.satake())
        return "unr(%s)" % self.satake()

    def label(self, pool=_LABELS) -> str:
        return self.rng.choice(pool)

    def gsp4_text(self, name: str) -> str:
        kinds = GSP4_SHAPES[name]
        if kinds == "free":
            # chi x sp(1) + mu + chi^2/mu is dual-twist closed for chi^2
            chi, mu = self.char(), self.char()
            return "gsp4.free(%s x sp(1) + %s + %s^2*%s^-1, %s^2)" % (
                chi, mu, chi, mu, chi)
        args = [self.char() if k == "c" else self.label() for k in kinds]
        return "gsp4.%s(%s)" % (name, ", ".join(args))

    def gl2_text(self, kind: str) -> str:
        if kind == "ps":
            return "gl2.ps(%s, %s)" % (self.char(), self.char())
        if kind == "st":
            return "gl2.st(%s)" % self.char()
        return "gl2.sc(%s, %s)" % (self.label(_SIGMA_LABELS), self.char())


@dataclass
class Queries:
    """Seeded catalog requests through ``evaluate_text``, in-process and
    warm, over the grid of every GSp(4) type x GL(2) kind; each round runs
    the whole grid in seeded order with fresh characters."""

    sums: bool = False
    trace_requests: int = len(GSP4_SHAPES) * len(GL2_KINDS)
    round_size = len(GSP4_SHAPES) * len(GL2_KINDS)

    @property
    def name(self):
        return "sums" if self.sums else "queries"

    def size(self) -> dict:
        return {"gsp4_types": len(GSP4_SHAPES), "gl2_kinds": len(GL2_KINDS),
                "requests_per_round": self.round_size,
                "satake": "two-term sums over a, a*v, b, b*v" if self.sums
                else "Laurent monomials",
                "trace_requests": self.trace_requests}

    def stream(self, seed: int):
        rng = random.Random(seed)
        draw = _Draw(rng, self.sums)
        grid = [(t, k) for t in GSP4_SHAPES for k in GL2_KINDS]
        while True:
            order = list(grid)
            rng.shuffle(order)
            for gsp4, kind in order:
                yield draw.gsp4_text(gsp4), draw.gl2_text(kind)

    def trace_items(self, seed: int) -> list:
        return [item for item, _ in
                zip(self.stream(seed), range(self.trace_requests))]

    def run_item(self, item, tracer=None) -> list[Op]:
        t0 = perf_counter()
        status, output = request(*item)
        t1 = perf_counter()
        if tracer is not None:
            tracer.op += 1
        return [Op(t1 - t0, status, output, "%s against %s" % item)]

    trace_run_item = run_item


def request(pi_text: str, sigma_text: str) -> tuple[str, str]:
    """One catalog query: the L-factor, its shift, the pole reports, the
    pairing factor, its split and the J and K ideals of pi against sigma.
    Each value is rendered as text and JSON, and the text must parse back to
    an equal value.  lfac is called through its package namespace, so a
    tracer that rebinds the package's names sees these calls."""
    try:
        pi = lfac.evaluate_text(pi_text)
        sigma = lfac.evaluate_text(sigma_text)
        values = [
            pi, sigma,
            lfac.evaluate_text("L(%s)" % pi_text),
            lfac.evaluate_text("shift(L(%s), 1/2)" % pi_text),
            lfac.evaluate_text("exceptional(%s, %s)"
                               % (pi_text, sigma_text)),
            lfac.evaluate_text("subregular(%s)" % pi_text),
            lfac.nov_lfactor(pi, sigma),
        ]
        split = lfac.nov_split(pi, sigma)
        values += [split.exceptional, split.regular, *lfac.ideals_JK(pi)]
    except LfacError as e:
        return REFUSED, "%s: %s" % (type(e).__name__, e)
    except Exception as e:
        return FAILED, _untyped(e)
    try:
        if split.exceptional * split.regular != split.full:
            return FAILED, "exceptional * regular != full for %s" % split.full
        out = []
        for v in values:
            t = render.text(v)
            if lfac.evaluate_text(t) != v:
                return FAILED, "%r does not parse back to an equal value" % t
            out += [t, json.dumps(render.to_json(v), sort_keys=True)]
    except Exception as e:
        return FAILED, _untyped(e)
    return OK, "\n".join(out)


# ------------------------------------------------------------------ registry

def make(name: str, root: Path):
    if name.startswith("verify_") and name[7:] in verify.SUITES:
        return VerifySuite(name[7:])
    if name == "cli_cold":
        return CliCold(root)
    if name in ("queries", "sums"):
        return Queries(sums=name == "sums")
    raise KeyError(name)

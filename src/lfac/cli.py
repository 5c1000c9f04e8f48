"""Command line front end.

Exit status: 0 on success, 1 when a verification suite reports a failing
trial, 2 for usage, syntax and domain errors.  With --format json every
result is a single schema-tagged object on stdout; errors become error
objects in json mode and one line on stderr in text mode.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import SUITE_NAMES, render
from . import catalog as cat
from . import poles as _poles
from .dsl import _KINDS, evaluate_text, lfactor_of
from .errors import LfacError, LfacSyntaxError
from .wdrep import BLOCK_MAX


def _common_flags(p: argparse.ArgumentParser, catalog=True):
    p.add_argument("--format", choices=("text", "json"), default="text")
    if catalog:
        p.add_argument("--catalog", metavar="FILE",
                       help="layer the parameter shapes of FILE over the "
                            "builtin table")
    p.add_argument("--unicode", action="store_true",
                   help="superscripts and tensor signs in text output")


def _emit_text(args, s: str):
    print(render.unicodize(s) if args.unicode else s)


def _emit(args, payload: dict, text_lines):
    if args.format == "json":
        doc = {"schema": render.SCHEMA, "command": args.command}
        doc.update(payload)
        print(json.dumps(doc, sort_keys=True, indent=2))
    else:
        for line in text_lines:
            _emit_text(args, line)


def _value(args, expr: str):
    return evaluate_text(expr, catalog=args.shapes)


def _param(args, expr: str, want):
    v = _value(args, expr)
    if not isinstance(v, want):
        raise LfacError("%r is not %s" % (expr, _KINDS[want]))
    return v


# ----------------------------------------------------------------- commands

def _cmd_eval(args) -> int:
    v = _value(args, args.expr)
    _emit(args, {"value": render.to_json(v)}, [render.text(v)])
    return 0


def _cmd_lfactor(args) -> int:
    if args.against is None:
        f = lfactor_of(_value(args, args.expr))
    else:
        a = _value(args, args.expr)
        b = _param(args, args.against, cat.Gl2Param)
        if isinstance(a, cat.Gsp4Param):
            f = cat.nov_lfactor(a, b)
        elif isinstance(a, cat.Gl2Param):
            f = cat.rs_lfactor(a, b)
        else:
            raise LfacError("the pairing needs a GSp(4) or GL(2) parameter "
                            "on the left")
    _emit(args, {"lfactor": render.to_json(f)}, [str(f)])
    return 0


def _cmd_poles(args) -> int:
    if args.exceptional:
        pi = _param(args, args.exceptional[0], cat.Gsp4Param)
        sigma = _param(args, args.exceptional[1], cat.Gl2Param)
        report = _poles.exceptional_poles(pi, sigma)
    else:
        pi = _param(args, args.subregular, cat.Gsp4Param)
        report = _poles.subregular_poles(pi)
    _emit(args, {"report": render.to_json(report)}, [render.text(report)])
    return 0


def _cmd_split(args) -> int:
    if args.nov:
        pi = _param(args, args.nov[0], cat.Gsp4Param)
        sigma = _param(args, args.nov[1], cat.Gl2Param)
        s = _poles.nov_split(pi, sigma)
        fields = [("full", s.full), ("exceptional", s.exceptional),
                  ("regular", s.regular)]
    else:
        pi = _param(args, args.ps, cat.Gsp4Param)
        s = _poles.ps_split(pi)
        fields = [("full", s.full), ("exceptional", s.exceptional),
                  ("subregular", s.subregular), ("kirillov", s.kirillov)]
    payload = {name: render.to_json(f) for name, f in fields}
    payload["report"] = render.to_json(s.report)
    _emit(args, {"split": payload},
          ["%s: %s" % (name, f) for name, f in fields]
          + ["report: %s" % render.text(s.report)])
    return 0


def _cmd_ideals(args) -> int:
    pi = _param(args, args.pi, cat.Gsp4Param)
    j, k = _poles.ideals_JK(pi)
    _emit(args, {"ideals": {"J": render.to_json(j), "K": render.to_json(k)}},
          ["J: %s" % j, "K: %s" % k])
    return 0


def _cmd_verify(args) -> int:
    from . import verify  # loaded here, so other commands skip it
    profile = verify.TrialProfile(args.seed, block_budget=args.budget,
                                  symbol_pool=args.pool,
                                  allow_irred=args.irred)
    reports = verify.run_suite(args.suite, args.trials, args.seed, profile)
    ok = all(r.passed for r in reports)
    _emit(args, {"reports": [render.to_json(r) for r in reports],
                 "passed": ok},
          [r.summary() for r in reports])
    return 0 if ok else 1


# -------------------------------------------------------------------- wiring

def _at_least(low: int):
    def integer(text: str) -> int:  # argparse names the type in its errors
        n = int(text)
        if n < low:
            raise argparse.ArgumentTypeError("must be at least %d" % low)
        return n
    return integer


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="lfac",
        description="exact local factors, pole classifications and identity "
                    "checks for GSp(4) and GSp(4) x GL(2)")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate one expression")
    p.add_argument("expr")
    p.set_defaults(fn=_cmd_eval)
    _common_flags(p)

    p = sub.add_parser("lfactor", help="L-factor of a value, or of a pairing")
    p.add_argument("expr")
    p.add_argument("against", nargs="?",
                   help="GL(2) parameter for the pairing factor")
    p.set_defaults(fn=_cmd_lfactor)
    _common_flags(p)

    p = sub.add_parser("poles", help="classified pole report")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--exceptional", nargs=2, metavar=("PI", "SIGMA"))
    g.add_argument("--subregular", metavar="PI")
    p.set_defaults(fn=_cmd_poles)
    _common_flags(p)

    p = sub.add_parser("split", help="factor an L-function along its "
                                     "classified poles")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--nov", nargs=2, metavar=("PI", "SIGMA"))
    g.add_argument("--ps", metavar="PI")
    p.set_defaults(fn=_cmd_split)
    _common_flags(p)

    p = sub.add_parser("ideals", help="the two integral ideal generators "
                                      "against Steinberg")
    p.add_argument("pi")
    p.set_defaults(fn=_cmd_ideals)
    _common_flags(p)

    p = sub.add_parser("verify", help="run randomized identity suites")
    p.add_argument("--suite", choices=list(SUITE_NAMES) + ["all"],
                   default="all")
    p.add_argument("--trials", type=_at_least(0), default=100)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--budget", type=_at_least(1), default=4,
                   help="block budget per random representation "
                        "(lemma71 only; a draw w whose w (x) sp(1) has "
                        "more than %d blocks is refused)" % BLOCK_MAX)
    p.add_argument("--pool", type=_at_least(1), default=4,
                   help="number of distinct Satake symbols, at most 23 "
                        "(all suites)")
    p.add_argument("--irred", action="store_true",
                   help="allow irreducible parts in random draws "
                        "(lemma71 and theoremA)")
    p.set_defaults(fn=_cmd_verify)
    _common_flags(p, catalog=False)
    return top


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        status = _run(args)
        # a closed stdout shows here rather than in the flush at exit
        sys.stdout.flush()
        return status
    except BrokenPipeError as e:
        # nothing more can reach stdout, in either format; stdout then goes
        # to devnull, so the flush at exit has nothing left to fail on
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: %s" % e, file=sys.stderr)
        return 2


def _run(args) -> int:
    try:
        # read --catalog once, inside the try so a bad file exits 2
        path = getattr(args, "catalog", None)
        args.shapes = cat.load_catalog(path) if path else None
        return args.fn(args)
    except LfacSyntaxError as e:
        return _error(args, "syntax", str(e))
    except LfacError as e:
        return _error(args, type(e).__name__, str(e))
    except BrokenPipeError:
        raise
    except OSError as e:
        return _error(args, "io", str(e))


def _error(args, kind: str, message: str) -> int:
    if args.format == "json":
        print(json.dumps({"schema": render.SCHEMA, "error":
                          {"type": kind, "message": message}},
                         sort_keys=True, indent=2))
    else:
        print("error: %s" % message, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())

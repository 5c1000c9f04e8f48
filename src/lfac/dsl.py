"""The expression language: one line of text to one exact value.

Every renderable value kind has a constructor expression here, and the
renderer emits exactly these forms, so text output re-parses to an equal
value.  The operators follow the math reading: '+' is scalar addition or
direct sum, '*' is multiplication of scalars and characters or a character
twist of a representation, 'x' is the tensor product (binding between '+'
and '*'), '^' is an integer power, and a parenthesized group directly after
a value multiplies it, so factored denominators like
(1 - a*X)(1 - b*v^-1*X) read back in.  The lone subtraction producing a
factored object is 1 - beta*X.

The reader lexes the text in one regex pass into (kind, piece, offset)
tokens; the line and column of a syntax error are worked out from its
offset only when the error is raised.  The three binary operator levels
('+'/'-', 'x', '*'/'/' with the implicit '*') share one loop over _LEVELS,
and a run of one level's operators parses to one flat chain that evaluates
in a loop, so its length is not limited.  Unary minus signs and '^'
exponents are read in loops too, so the parser recurses only into groups
and calls; the evaluator recurses once per call or unary minus.

Every function is one row of the _SIMPLE table: a callable and a signature
that _fn turns into the handler, with the arity check and the argument
coercions.

Catalog data files evaluate their block and similitude expressions through
evaluate_text with the declared parameters bound in env.
"""

from __future__ import annotations

import re
from fractions import Fraction

from . import catalog as cat
from . import poles as _poles
from .chars import Character
from .errors import LfacEvalError, LfacSyntaxError
from .scalar import Scalar, half_integer
from .splitrat import SplitRational
from .wdrep import (Block, IrredPart, WDRep, char_rep, dual, lfactor, sp,
                    tensor, twist)

__all__ = ["evaluate_text", "lfactor_of", "parse_scalar"]

# whitespace and comments are the unnamed alternatives; "bad" catches any
# other character
_TOKEN_RE = re.compile(r"""
    \s+ | \#[^\n]*
  | (?P<number>\d+)
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*(?:\.[A-Za-z0-9_]+)?)
  | (?P<op>[-+*/^(),])
  | (?P<bad>.)
""", re.VERBOSE | re.DOTALL)

# the binary operator levels, loosest first; at the last one a group
# directly after a value is an implicit '*'
_LEVELS = (("+", "-"), ("x",), ("*", "/", "("))


class _Parser:
    """Recursive descent over (kind, piece, offset) tokens.  A run of one
    level's operators parses to one flat chain node, so only nesting
    recurses.  No name or number spells an operator, so a token is tested
    by its piece alone."""

    def __init__(self, text: str):
        self.text = text
        self.toks = [(m.lastgroup, m.group(), m.start())
                     for m in _TOKEN_RE.finditer(text) if m.lastgroup]
        self.toks.append(("end", "", len(text)))
        self.i = 0
        for kind, piece, offset in self.toks:
            if kind == "bad":
                raise self.error("unexpected character %r" % piece, offset)

    def error(self, msg, offset=None) -> LfacSyntaxError:
        """msg at the line and column of offset (the current token's by
        default), worked out only here."""
        if offset is None:
            offset = self.toks[self.i][2]
        return LfacSyntaxError(msg, self.text.count("\n", 0, offset) + 1,
                               offset - self.text.rfind("\n", 0, offset))

    def at(self, *pieces) -> bool:
        return self.toks[self.i][1] in pieces

    def expect(self, op):
        if not self.at(op):
            raise self.error("expected %r" % op)
        self.i += 1

    def parse(self):
        node = self.expr()
        kind, piece, _ = self.toks[self.i]
        if kind != "end":
            raise self.error("trailing input %r" % piece)
        return node

    def expr(self, level=0):
        if level == len(_LEVELS):
            return self.unary()
        ops = _LEVELS[level]
        first, rest = self.expr(level + 1), []
        while self.at(*ops):
            op = self.toks[self.i][1]
            if op == "(":
                op = "*"
            else:
                self.i += 1
            rest.append((op, self.expr(level + 1)))
        return ("chain", first, rest) if rest else first

    def unary(self):
        # unary minus signs, an atom and its '^' exponents
        signs = 0
        while self.at("-"):
            self.i += 1
            signs += 1
        node = self.atom()
        while self.at("^"):
            self.i += 1
            node = ("pow", node, self.exponent())
        for _ in range(signs):
            node = ("neg", node)
        return node

    def exponent(self) -> int:
        paren = self.at("(")
        self.i += paren
        sign = -1 if self.at("-") else 1
        self.i += sign < 0
        digits = self.i
        if self.toks[digits][0] != "number":
            raise self.error("exponent must be an integer")
        self.i += 1
        if paren:
            self.expect(")")
        return sign * self.literal(digits)

    def literal(self, i: int) -> int:
        _, piece, offset = self.toks[i]
        try:
            return int(piece)
        except ValueError:  # past the interpreter's limit on integer digits
            raise self.error("integer literal of %d digits is too long"
                             % len(piece), offset) from None

    def atom(self):
        kind, piece, _ = self.toks[self.i]
        if kind not in ("number", "name") and piece != "(":
            raise self.error("expected a value")
        self.i += 1
        if kind == "number":
            return ("num", Scalar.from_rational(self.literal(self.i - 1)))
        if kind == "name":
            # only known or dotted function names consume a following '(';
            # anything else leaves it to juxtaposition, so X(1 - a*X)^2 groups right
            if not (self.at("(") and (piece in _SIMPLE or "." in piece)):
                return ("name", piece)
            self.i += 1
            args = [] if self.at(")") else [self.expr()]
            while args and self.at(","):
                self.i += 1
                args.append(self.expr())
            self.expect(")")
            return ("call", piece, args)
        node = self.expr()
        self.expect(")")
        return node


# ----------------------------------------------------------------- coercion

_KINDS = {Scalar: "a scalar", SplitRational: "a factored function",
          Character: "a character", WDRep: "a representation",
          cat.Gl2Param: "a GL(2) parameter",
          cat.Gsp4Param: "a GSp(4) parameter",
          _poles.PoleReport: "a pole report",
          _poles.PoleEntry: "a pole entry"}


def _kind(v) -> str:
    return _KINDS.get(type(v), type(v).__name__)


def _expected(cls, v) -> LfacEvalError:
    return LfacEvalError("expected %s, got %s" % (_KINDS[cls], _kind(v)))


def _of(cls):
    """The coercion admitting exactly the values of cls."""
    def coerce(v):
        if isinstance(v, cls):
            return v
        raise _expected(cls, v)
    return coerce


_as_scalar = _of(Scalar)
_as_char = _of(Character)


def _as_split(v) -> SplitRational:
    if isinstance(v, SplitRational):
        return v
    if isinstance(v, Scalar):
        return SplitRational(unit=v)
    raise _expected(SplitRational, v)


def _as_rep(v) -> WDRep:
    if isinstance(v, WDRep):
        return v
    if isinstance(v, Character):
        return char_rep(v)
    raise _expected(WDRep, v)


def _as_int(v) -> int:
    f = _as_scalar(v).as_fraction()
    if f.denominator != 1:
        raise LfacEvalError("expected an integer, got %s" % f)
    return int(f)


def _as_half(v) -> Fraction:
    return half_integer(_as_scalar(v).as_fraction())


# ---------------------------------------------------------------- evaluation

class _Evaluator:
    def __init__(self, env, fns):
        self.env = dict(env or {})
        self.fns = fns

    def run(self, node):
        tag = node[0]
        if tag == "chain":
            acc = self.run(node[1])
            for op, rhs in node[2]:
                acc = _binop(op, acc, self.run(rhs))
            return acc
        if tag == "num":
            return node[1]
        if tag == "name":
            return self.lookup(node[1])
        if tag == "call":
            if node[1] not in self.fns:
                raise LfacEvalError("unknown function %s" % node[1])
            return self.fns[node[1]](self, node[2])
        if tag == "neg":
            return -_as_scalar(self.run(node[1]))
        if tag == "pow":
            base = self.run(node[1])
            if isinstance(base, (Scalar, SplitRational, Character)):
                return base ** node[2]
            raise LfacEvalError("cannot raise %s to a power" % _kind(base))
        raise LfacEvalError("unhandled node %r" % (tag,))

    def lookup(self, name):
        if name in self.env:
            return self.env[name]
        if name == "v":
            return Scalar.v_power(1)
        if name == "q":
            return Scalar.v_power(2)
        if name == "X":
            return SplitRational(xpower=1)
        try:
            return Scalar.symbol(name)
        except ValueError as e:
            raise LfacEvalError(str(e)) from None


def _binop(op, a, b):
    if op == "x":
        return tensor(_as_rep(a), _as_rep(b))
    scalars = isinstance(a, Scalar) and isinstance(b, Scalar)
    if op == "+":
        if scalars:
            return a + b
        if isinstance(a, (Character, WDRep)) and isinstance(b, (Character, WDRep)):
            return _as_rep(a) + _as_rep(b)
        raise LfacEvalError("cannot add %s and %s" % (_kind(a), _kind(b)))
    if op == "-":
        if scalars:
            return a - b
        if isinstance(b, SplitRational) and not b.factors and b.xpower == 1 \
                and isinstance(a, Scalar) and a == Scalar.one:
            return SplitRational(factors=((b.unit, 1),))
        raise LfacEvalError("subtraction is for scalars and the "
                            "1 - beta*X factor form")
    if op == "*":
        if scalars or isinstance(a, Character) and isinstance(b, Character):
            return a * b
        if isinstance(a, WDRep) and isinstance(b, Character):
            return twist(a, b)
        if isinstance(a, Character) and isinstance(b, WDRep):
            return twist(b, a)
        if isinstance(a, (Scalar, SplitRational)) \
                and isinstance(b, (Scalar, SplitRational)):
            return _as_split(a) * _as_split(b)
        raise LfacEvalError("cannot multiply %s and %s" % (_kind(a), _kind(b)))
    if scalars:
        return a / b
    if isinstance(a, Character) and isinstance(b, Character):
        return a * b.inverse()
    if isinstance(a, (Scalar, SplitRational)) \
            and isinstance(b, (Scalar, SplitRational)):
        return _as_split(a) / _as_split(b)
    raise LfacEvalError("cannot divide %s by %s" % (_kind(a), _kind(b)))


# ---------------------------------------------------------------- functions

_TAGS = {"exceptional": _poles.EXCEPTIONAL, "sub1": _poles.SUBREGULAR1,
         "sub2": _poles.SUBREGULAR2, "regular": _poles.REGULAR}
TAG_NAMES = {v: k for k, v in _TAGS.items()}


def _tag_pairs(node, out):
    # the ram tag is a product of named generators with integer powers
    if node[0] == "name":
        out.append((node[1], 1))
    elif node[0] == "pow" and node[1][0] == "name":
        out.append((node[1][1], node[2]))
    elif node[0] == "chain" and all(op == "*" for op, _ in node[2]):
        _tag_pairs(node[1], out)
        for _, factor in node[2]:
            _tag_pairs(factor, out)
    else:
        raise LfacEvalError("the ram tag must be a product of names")
    return out


def _det(v) -> Character:
    if isinstance(v, Character):
        return v
    out = Character.trivial()
    for b in _as_rep(v).blocks:
        if b.n != 0:
            raise LfacEvalError("det is only defined without sp factors here")
        out = out * b.part.det()
    return out


def lfactor_of(v) -> SplitRational:
    """L(v): the L-factor of a GL(2) or GSp(4) parameter, a representation or
    a character."""
    if isinstance(v, (cat.Gl2Param, cat.Gsp4Param)):
        return v.lfactor()
    return lfactor(_as_rep(v))


def _star(w: WDRep) -> WDRep:
    if len(w.blocks) == 1 and w.blocks[0].n == 0 \
            and isinstance(w.blocks[0].part, IrredPart):
        part = w.blocks[0].part
        return WDRep([Block(part.replace(starred=not part.starred), 0)])
    raise LfacEvalError("star needs a lone irreducible summand")


def _irr(dim, label, det=Character.trivial(), selfdual_twist=None) -> WDRep:
    return WDRep([Block(IrredPart(dim, label, base_det=det,
                                  selfdual_twist=selfdual_twist), 0)])


def _gl2_ps(chi1, chi2, flag=None):
    if flag not in (None, "red"):
        raise LfacEvalError("the third gl2.ps argument is the flag 'red'")
    return cat.principal_series(chi1, chi2, flag == "red")


def _entry(root, tagname, *extra):
    if tagname not in _TAGS:
        raise LfacEvalError("unknown classification %r" % tagname)
    bessel = [v for v in extra if isinstance(v, tuple)]
    sums = [_as_rep(v) for v in extra if not isinstance(v, tuple)]
    if len(bessel) > 1 or len(sums) > 1:
        raise LfacEvalError("entry takes at most one witness sum and one "
                            "bessel(...)")
    return _poles.PoleEntry(root, _TAGS[tagname],
                            sums[0].blocks if sums else (),
                            bessel[0] if bessel else None)


# how _fn reads an argument that is evaluated, by signature letter
_COERCE = {"s": _as_scalar, "i": _as_int, "h": _as_half, "f": _as_split,
           "c": _as_char, "r": _as_rep, "g": _of(cat.Gl2Param),
           "p": _of(cat.Gsp4Param), "e": _of(_poles.PoleEntry),
           "v": lambda v: v}


def _arity(low: int, high: float) -> str:
    if high == low:
        return "%d argument%s" % (low, "" if low == 1 else "s")
    if high == float("inf"):
        return "at least %d argument%s" % (low, "" if low == 1 else "s")
    return "%d to %d arguments" % (low, high)


def _fn(ctor, name, sig, optional=0):
    """The handler of the function `name`: one letter of sig per argument,
    the last `optional` of which may be left out, and a trailing '*' repeats
    the letter before it.  Labels ("l") and ram tags ("t") are read from the
    parse node; every other argument is evaluated and coerced by _COERCE.
    The handler closes over ctor itself."""
    letters = sig.rstrip("*")
    repeat = sig.endswith("*")
    last = len(letters) - 1
    low = len(letters) - optional - repeat
    high = float("inf") if repeat else len(letters)
    want = "%s takes %s" % (name, _arity(low, high))

    def fn(ev, args):
        if not low <= len(args) <= high:
            raise LfacEvalError(want)
        vals = []
        for i, node in enumerate(args):
            k = letters[min(i, last)]
            if k == "l":
                if node[0] != "name":
                    raise LfacEvalError("argument %d of %s must be a bare "
                                        "name" % (i + 1, name))
                vals.append(node[1])
            elif k == "t":
                vals.append(_tag_pairs(node, []))
            else:
                vals.append(_COERCE[k](ev.run(node)))
        return ctor(*vals)
    return fn


def _gsp4_fns(types) -> dict:
    return {"gsp4." + t.name: _fn(t.ctor, "gsp4." + t.name, t.sig, t.optional)
            for t in types.values()}


_SIMPLE = {name: _fn(ctor, name, *sig) for name, ctor, *sig in (
    ("unr", Character.unramified, "s"),
    ("ram", Character, "ts", 1),
    ("abs", Character.absval, "h"),
    ("sp", sp, "i"),
    ("irr", _irr, "ilcc", 2),
    ("irr4", lambda label, sim: cat.sc_irred4(label, sim).rep, "lc"),
    ("dual", dual, "r"),
    ("twist", twist, "rc"),
    ("tensor", tensor, "rr"),
    ("star", _star, "r"),
    ("det", _det, "v"),
    ("L", lfactor_of, "v"),
    ("shift", SplitRational.shift, "fh"),
    ("gl2.ps", _gl2_ps, "ccl", 1),
    ("gl2.st", cat.steinberg, "c", 1),
    ("gl2.sc", cat.supercuspidal, "lc", 1),
    ("theta", cat.theta_lift, "gg"),
    ("exceptional", _poles.exceptional_poles, "pg"),
    ("subregular", _poles.subregular_poles, "p"),
    ("homdim", lambda pi, sigma, root: Scalar.from_rational(
        _poles.hom_dim(pi, sigma, root)), "pgs"),
    ("entry", _entry, "slvv", 2),
    ("bessel", lambda chi1, chi2: (chi1, chi2), "cc"),
    ("polereport", lambda *entries: _poles.PoleReport(entries), "e*"),
)} | _gsp4_fns(cat.GSP4_TYPES)


def evaluate_text(text: str, env=None, catalog=None):
    """Parse and evaluate one expression; env maps names to bound values and
    the types of the shape table catalog replace the builtin ones."""
    fns = _SIMPLE if catalog is None else {
        **{k: f for k, f in _SIMPLE.items() if not k.startswith("gsp4.")},
        **_gsp4_fns(cat.gsp4_types(catalog))}
    try:
        return _Evaluator(env, fns).run(_Parser(text).parse())
    except RecursionError:
        # the parser recurses once per group or call, the evaluator once
        # per call or unary minus; operator chains are flat at any length
        raise LfacSyntaxError("expression nested too deeply", 1, 1) from None


def parse_scalar(text: str) -> Scalar:
    value = evaluate_text(text)
    if not isinstance(value, Scalar):
        raise LfacEvalError("expected a scalar expression, got %s"
                            % _kind(value))
    return value

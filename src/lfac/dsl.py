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

The reader lexes the text with one regex pass into a list of pieces,
whose kind is their first character, and parses them with one frame per
operand: expr reads the three binary operator levels ('+'/'-', 'x',
'*'/'/' with the implicit '*') in one loop, and a run of one level's
operators parses to one flat chain that evaluates in a loop, so its length
is not limited.  Unary minus signs are read in a loop too, and a run of
'^' exponents parses to one power node, so the parser recurses only into
groups and calls; the evaluator, which looks up its handler by the node
tag, recurses once per call or unary minus.  Only when the parse stops is
the text searched for a refused character, and the line and column of the
error worked out.  Groups, calls and unary minus signs nest at most
NEST_MAX deep, a fixed bound that does not depend on how deep the caller's
stack already is.

Every function is one row of the _SIMPLE table: a callable and a signature
that _fn turns into the handler, with the arity check and the argument
coercions.

A catalog shape reads its expressions through _evaluate, with one
_Evaluator per instantiation, and keeps each parse once made; under a
catalog, evaluate_text adds handlers for the file's own types only.
"""

from __future__ import annotations

import math
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

# a piece is the group: a number, a name (the catalog's _NAME, the form of a
# label), an operator, or any other character but whitespace, which the
# parser refuses; a comment leaves the group empty, and the search skips
# whitespace
_TOKEN_RE = re.compile(r"\#.*|(\d+|%s|[-+*/^(),]|\S)" % cat._NAME)
# the pieces but the last, each as long as the lexer takes it, so that a
# match ends at the first refused character, in time linear in the text;
# only an error compiles it
_CLEAN = (r"(?:\s+(?!\s)|\#.*(?!.)|\d+(?!\d)|%s(?![A-Za-z0-9_])|[-+*/^(),])*"
          % cat._NAME)
_NAME_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZ"
                        "abcdefghijklmnopqrstuvwxyz_")
# the operators of the last level, where a group directly after a value is
# an implicit '*'
_TIGHT = frozenset("*/(")

# the deepest nesting of groups, calls and unary minus signs: at two parser
# frames a level, and three evaluator frames a call, 160 leave room under
# the default recursion limit of 1000
NEST_MAX = 160


class _Parser:
    """Recursive descent over the pieces, "" at the end.  No name or number
    spells an operator, so a piece is tested by its text alone."""

    def __init__(self, text: str):
        self.text = text
        self.pieces = _TOKEN_RE.findall(text)
        if "#" in text:
            self.pieces = [p for p in self.pieces if p]
        self.pieces.append("")
        self.i = 0
        self.depth = 0  # the groups, calls and minus signs around expr

    def error(self, msg, i=None, offset=None) -> LfacSyntaxError:
        """msg at offset, by default at the start of piece i, or else of the
        current piece, whose offset is lexed again only here."""
        if offset is None:
            offset = ([m.start() for m in _TOKEN_RE.finditer(self.text)
                       if m.lastindex] + [len(self.text)])[
                self.i if i is None else i]
        return LfacSyntaxError(msg, self.text.count("\n", 0, offset) + 1,
                               offset - self.text.rfind("\n", 0, offset))

    def expect(self, op):
        if self.pieces[self.i] != op:
            raise self.error("expected %r" % op)
        self.i += 1

    def parse(self):
        try:
            node = self.expr()
            if self.pieces[self.i]:
                raise self.error("trailing input %r" % self.pieces[self.i])
            return node
        except (LfacSyntaxError, RecursionError):
            # a refused character is reported first, wherever the parse
            # stopped
            end = re.match(_CLEAN, self.text).end()
            if end == len(self.text):
                raise
            raise self.error("unexpected character %r" % self.text[end],
                             offset=end) from None

    def expr(self):
        # '+'/'-' chains of 'x' chains of '*'/'/' chains; the first operand
        # is as deep as the expression
        if self.depth > NEST_MAX:
            raise LfacSyntaxError("expression nested too deeply", 1, 1)
        p, operand = self.pieces, self.operand
        node, terms, factors, op = operand(), [], [], None
        while True:
            if p[self.i] in _TIGHT:
                rest = []
                while p[self.i] in _TIGHT:
                    tight = p[self.i]
                    self.i += tight != "("
                    rest.append(("*" if tight == "(" else tight, operand()))
                node = ("chain", node, rest)
            factors.append(("x", node))
            if p[self.i] != "x":
                terms.append((op, _flat(factors)))
                op = p[self.i]
                if op != "+" and op != "-":
                    return _flat(terms)
                factors = []
            self.i += 1
            node = operand()

    def operand(self):
        # unary minus signs, an atom and its '^' exponents; each minus sign
        # nests one level, and a group or a call's arguments one more
        p, i, signs = self.pieces, self.i, 0
        while p[i] == "-":
            i += 1
            signs += 1
        if signs and self.depth + signs > NEST_MAX:
            raise LfacSyntaxError("expression nested too deeply", 1, 1)
        piece = p[i]
        self.i = i + 1
        if piece.isdecimal():
            node = ("num", Scalar.from_rational(self.literal(i)))
        elif piece != "(" and piece[:1] not in _NAME_START:
            self.i = i
            raise self.error("expected a value")
        # only known or dotted function names consume a following '(', so
        # X(1 - a*X)^2 is X times a group raised to 2
        elif piece == "(" or p[i + 1] == "(" and (piece in _SIMPLE
                                                  or "." in piece):
            call = piece != "("
            self.i += call
            self.depth += signs + 1
            args = [] if call and p[self.i] == ")" else [self.expr()]
            while call and p[self.i] == ",":
                self.i += 1
                args.append(self.expr())
            self.depth -= signs + 1
            self.expect(")")
            node = ("call", piece, args) if call else args[0]
        else:
            node = ("name", piece)
        if p[self.i] == "^":
            # one node for the run, raised left to right: 2^3^2 is 64
            exps = []
            while p[self.i] == "^":
                self.i += 1
                exps.append(self.exponent())
            node = ("pow", node, exps)
        for _ in range(signs):
            node = ("neg", node)
        return node

    def exponent(self) -> int:
        p = self.pieces
        paren = p[self.i] == "("
        self.i += paren
        sign = -1 if p[self.i] == "-" else 1
        self.i += sign < 0
        digits = self.i
        if not p[digits].isdecimal():
            raise self.error("exponent must be an integer")
        self.i += 1
        if paren:
            self.expect(")")
        return sign * self.literal(digits)

    def literal(self, i: int) -> int:
        try:
            return int(self.pieces[i])
        except ValueError:  # past the interpreter's limit on integer digits
            raise self.error("integer literal of %d digits is too long"
                             % len(self.pieces[i]), i) from None


def _flat(pairs):
    # one level's [(op, operand), ...] as one chain node, or its lone operand
    return ("chain", pairs[0][1], pairs[1:]) if len(pairs) > 1 else pairs[0][1]


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
        self.env = env or {}  # read only, so the caller's dict is not copied
        self.fns = fns

    def run(self, node):
        return _RUN[node[0]](self, node)

    def chain(self, node):
        acc = self.run(node[1])
        for op, rhs in node[2]:
            acc = _binop(op, acc, self.run(rhs))
        return acc

    def name(self, node):
        name = node[1]
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

    def call(self, node):
        if node[1] not in self.fns:
            raise LfacEvalError("unknown function %s" % node[1])
        return self.fns[node[1]](self, node[2])

    def power(self, node):
        base = self.run(node[1])
        if not isinstance(base, (Scalar, SplitRational, Character)):
            raise LfacEvalError("cannot raise %s to a power" % _kind(base))
        for n in node[2]:
            base = base ** n
        return base


# the handler of each node tag
_RUN = {"chain": _Evaluator.chain, "num": lambda ev, node: node[1],
        "name": _Evaluator.name, "call": _Evaluator.call,
        "neg": lambda ev, node: -_as_scalar(ev.run(node[1])),
        "pow": _Evaluator.power}


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
    if scalars or isinstance(a, Character) and isinstance(b, Character):
        return a / b
    if isinstance(a, (Scalar, SplitRational)) \
            and isinstance(b, (Scalar, SplitRational)):
        return _as_split(a) / _as_split(b)
    raise LfacEvalError("cannot divide %s by %s" % (_kind(a), _kind(b)))


# ---------------------------------------------------------------- functions

def _tag_pairs(node, out):
    # the ram tag is a product of named generators with integer powers; a
    # run of exponents raises left to right, so eta^2^3 is eta^6
    if node[0] == "name":
        out.append((node[1], 1))
    elif node[0] == "pow" and node[1][0] == "name":
        out.append((node[1][1], math.prod(node[2])))
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
    if tagname not in _poles.TAGS:
        raise LfacEvalError("unknown classification %r" % tagname)
    bessel = [v for v in extra if isinstance(v, tuple)]
    sums = [_as_rep(v) for v in extra if not isinstance(v, tuple)]
    if len(bessel) > 1 or len(sums) > 1:
        raise LfacEvalError("entry takes at most one witness sum and one "
                            "bessel(...)")
    return _poles.PoleEntry(root, _poles.TAGS[tagname],
                            sums[0].blocks if sums else (),
                            bessel[0] if bessel else None)


# how _fn reads an argument that is evaluated, by signature letter
_COERCE = {"s": _as_scalar, "i": _as_int, "h": _as_half, "f": _as_split,
           "c": _as_char, "r": _as_rep, "g": _of(cat.Gl2Param),
           "p": _of(cat.Gsp4Param), "e": _of(_poles.PoleEntry),
           "v": lambda v: v}


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
    want = "%s takes %s" % (name, cat._arity(low, high))

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
            for t in types}


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
)} | _gsp4_fns(cat.GSP4_TYPES.values())


def evaluate_text(text: str, env=None, catalog=None):
    """Parse and evaluate one expression; env maps names to bound values and
    the types of the shape table catalog are layered over the shipped ones."""
    fns = _SIMPLE if catalog is None else {**_SIMPLE, **_gsp4_fns(
        map(cat.gsp4_types(catalog).get, catalog))}
    return _evaluate(_Evaluator(env, fns), text, {})


def _evaluate(ev, text: str, trees: dict):
    """ev's value of text, whose parse is looked up in, or kept in, trees."""
    try:
        tree = trees.get(text)
        if tree is None:
            tree = trees[text] = _Parser(text).parse()
        return ev.run(tree)
    except RecursionError:
        # the parser refuses nesting past NEST_MAX itself, and a run of '^'
        # is one node; this is left for a caller whose own stack is nearly
        # full
        raise LfacSyntaxError("expression nested too deeply", 1, 1) from None


def parse_scalar(text: str) -> Scalar:
    value = evaluate_text(text)
    if not isinstance(value, Scalar):
        raise LfacEvalError("expected a scalar expression, got %s"
                            % _kind(value))
    return value

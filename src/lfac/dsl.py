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

Catalog data files evaluate their block and similitude expressions through
evaluate_text with the declared parameters bound in env.
"""

from __future__ import annotations

import re
from dataclasses import replace
from fractions import Fraction

from . import catalog as cat
from . import poles as _poles
from .chars import Character
from .errors import LfacEvalError, LfacSyntaxError
from .scalar import Scalar, half_integer
from .splitrat import SplitRational
from .wdrep import (Block, CharPart, IrredPart, WDRep, char_rep, dual,
                    lfactor, sp, tensor, twist)

__all__ = ["evaluate_text", "parse_scalar"]

_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+)
  | (?P<comment>\#[^\n]*)
  | (?P<number>\d+)
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*(?:\.[A-Za-z0-9_]+)?)
  | (?P<op>[-+*/^(),])
""", re.VERBOSE)


def _tokenize(text: str):
    line, col, pos = 1, 1, 0
    out = []
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise LfacSyntaxError("unexpected character %r" % text[pos],
                                  line, col)
        kind = m.lastgroup
        piece = m.group()
        if kind not in ("ws", "comment"):
            out.append((kind, piece, line, col))
        nl = piece.count("\n")
        if nl:
            line += nl
            col = len(piece) - piece.rfind("\n")
        else:
            col += len(piece)
        pos = m.end()
    out.append(("end", "", line, col))
    return out


class _Parser:
    """Recursive descent over the token list; every node carries the position
    of its first token for error reporting."""

    def __init__(self, tokens):
        self.toks = tokens
        self.i = 0

    def peek(self):
        return self.toks[self.i]

    def next(self):
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, op):
        kind, piece, line, col = self.peek()
        if kind == "op" and piece == op:
            return self.next()
        raise LfacSyntaxError("expected %r" % op, line, col)

    def fail(self, msg):
        _, _, line, col = self.peek()
        raise LfacSyntaxError(msg, line, col)

    # expr := tens (("+" | "-") tens)*
    def expr(self):
        node = self.tens()
        while self.at_op("+", "-"):
            op = self.next()[1]
            node = ("binop", op, node, self.tens())
        return node

    # tens := mul ("x" mul)*
    def tens(self):
        node = self.mul()
        while self.peek()[0] == "name" and self.peek()[1] == "x":
            self.next()
            node = ("tensorop", node, self.mul())
        return node

    # mul := unary (("*" | "/") unary | group)*   -- group = implicit '*'
    def mul(self):
        node = self.unary()
        while True:
            if self.at_op("*", "/"):
                op = self.next()[1]
                node = ("binop", op, node, self.unary())
            elif self.at_op("("):
                node = ("binop", "*", node, self.unary())
            else:
                return node

    def unary(self):
        if self.at_op("-"):
            self.next()
            return ("neg", self.unary())
        return self.power()

    def power(self):
        node = self.atom()
        while self.at_op("^"):
            self.next()
            node = ("pow", node, self.int_exponent())
        return node

    def int_exponent(self) -> int:
        paren = self.at_op("(")
        if paren:
            self.next()
        sign = 1
        if self.at_op("-"):
            self.next()
            sign = -1
        kind, piece, line, col = self.peek()
        if kind != "number":
            raise LfacSyntaxError("exponent must be an integer", line, col)
        self.next()
        if paren:
            self.expect(")")
        return sign * int(piece)

    def atom(self):
        kind, piece, line, col = self.peek()
        if kind == "number":
            self.next()
            return ("num", int(piece), line, col)
        if kind == "name":
            self.next()
            # only known function names consume a following '('; anything
            # else leaves it to juxtaposition, so X(1 - a*X)^2 groups right
            if self.at_op("(") and (piece in _SIMPLE or piece in _SPECIAL):
                self.next()
                args = []
                if not self.at_op(")"):
                    args.append(self.expr())
                    while self.at_op(","):
                        self.next()
                        args.append(self.expr())
                self.expect(")")
                return ("call", piece, args, line, col)
            return ("name", piece, line, col)
        if kind == "op" and piece == "(":
            self.next()
            node = self.expr()
            self.expect(")")
            return node
        self.fail("expected a value")

    def at_op(self, *ops) -> bool:
        kind, piece, _, _ = self.peek()
        return kind == "op" and piece in ops


def _parse(text: str):
    p = _Parser(_tokenize(text))
    node = p.expr()
    kind, piece, line, col = p.peek()
    if kind != "end":
        raise LfacSyntaxError("trailing input %r" % piece, line, col)
    return node


# ----------------------------------------------------------------- coercion

def _as_scalar(v) -> Scalar:
    if isinstance(v, int):
        return Scalar.from_rational(v)
    if isinstance(v, Scalar):
        return v
    raise LfacEvalError("expected a scalar, got %s" % _kind(v))


def _as_split(v) -> SplitRational:
    if isinstance(v, SplitRational):
        return v
    if isinstance(v, (int, Scalar)):
        return SplitRational(unit=_as_scalar(v))
    raise LfacEvalError("expected a factored function, got %s" % _kind(v))


def _as_char(v) -> Character:
    if isinstance(v, Character):
        return v
    raise LfacEvalError("expected a character, got %s" % _kind(v))


def _as_rep(v) -> WDRep:
    if isinstance(v, WDRep):
        return v
    if isinstance(v, Character):
        return char_rep(v)
    raise LfacEvalError("expected a representation, got %s" % _kind(v))


def _as_int(v) -> int:
    if isinstance(v, int):
        return v
    f = _as_scalar(v).as_fraction()
    if f.denominator != 1:
        raise LfacEvalError("expected an integer, got %s" % f)
    return int(f)


def _as_half(v) -> Fraction:
    if isinstance(v, int):
        return Fraction(v)
    return half_integer(_as_scalar(v).as_fraction())


def _kind(v) -> str:
    return {Scalar: "a scalar", SplitRational: "a factored function",
            Character: "a character", WDRep: "a representation",
            cat.Gl2Param: "a GL(2) parameter",
            cat.Gsp4Param: "a GSp(4) parameter",
            _poles.PoleReport: "a pole report",
            _poles.PoleEntry: "a pole entry",
            }.get(type(v), type(v).__name__)


def _only_irred_block(w: WDRep, what: str) -> IrredPart:
    if len(w.blocks) == 1 and w.blocks[0].n == 0 \
            and isinstance(w.blocks[0].part, IrredPart):
        return w.blocks[0].part
    raise LfacEvalError("%s needs a lone irreducible summand" % what)


def _det(v) -> Character:
    if isinstance(v, Character):
        return v
    w = _as_rep(v)
    out = Character.trivial()
    for b in w.blocks:
        if b.n != 0:
            raise LfacEvalError("det is only defined without sp factors here")
        out = out * b.part.det()
    return out


# ---------------------------------------------------------------- functions

def _name_arg(node, what: str) -> str:
    if node[0] == "name":
        return node[1]
    raise LfacEvalError("%s must be a bare name" % what)


_TAGS = {"exceptional": _poles.EXCEPTIONAL, "sub1": _poles.SUBREGULAR1,
         "sub2": _poles.SUBREGULAR2, "regular": _poles.REGULAR}
TAG_NAMES = {v: k for k, v in _TAGS.items()}


def _need(args, low, high, name):
    if not (low <= len(args) <= high):
        if low == high:
            want = "%d argument%s" % (low, "" if low == 1 else "s")
        else:
            want = "%d to %d arguments" % (low, high)
        raise LfacEvalError("%s takes %s" % (name, want))


class _Evaluator:
    def __init__(self, env, catalog=None):
        self.env = dict(env or {})
        self.catalog = catalog

    def run(self, node):
        tag = node[0]
        if tag == "num":
            return node[1]
        if tag == "name":
            return self.lookup(node[1])
        if tag == "neg":
            return -_as_scalar(self.run(node[1]))
        if tag == "pow":
            return self.power(self.run(node[1]), node[2])
        if tag == "binop":
            return self.binop(node[1], node[2], node[3])
        if tag == "tensorop":
            return tensor(_as_rep(self.run(node[1])),
                          _as_rep(self.run(node[2])))
        if tag == "call":
            return self.call(node[1], node[2])
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

    def power(self, base, e: int):
        if isinstance(base, (int, Scalar)):
            return _as_scalar(base) ** e
        if isinstance(base, (SplitRational, Character)):
            return base ** e
        raise LfacEvalError("cannot raise %s to a power" % _kind(base))

    def binop(self, op, lnode, rnode):
        a = self.run(lnode)
        b = self.run(rnode)
        if op == "+":
            if isinstance(a, (int, Scalar)) and isinstance(b, (int, Scalar)):
                return _as_scalar(a) + _as_scalar(b)
            if isinstance(a, (Character, WDRep)) and isinstance(b, (Character, WDRep)):
                return _as_rep(a) + _as_rep(b)
            raise LfacEvalError("cannot add %s and %s" % (_kind(a), _kind(b)))
        if op == "-":
            if isinstance(a, (int, Scalar)) and isinstance(b, (int, Scalar)):
                return _as_scalar(a) - _as_scalar(b)
            if isinstance(b, SplitRational) and not b.factors and b.xpower == 1 \
                    and isinstance(a, (int, Scalar)) and _as_scalar(a) == Scalar.one:
                return SplitRational(factors=((b.unit, 1),))
            raise LfacEvalError("subtraction is for scalars and the "
                               "1 - beta*X factor form")
        if op == "*":
            if isinstance(a, (int, Scalar)) and isinstance(b, (int, Scalar)):
                return _as_scalar(a) * _as_scalar(b)
            if isinstance(a, Character) and isinstance(b, Character):
                return a * b
            if isinstance(a, WDRep) and isinstance(b, Character):
                return twist(a, b)
            if isinstance(a, Character) and isinstance(b, WDRep):
                return twist(b, a)
            if isinstance(a, (int, Scalar, SplitRational)) \
                    and isinstance(b, (int, Scalar, SplitRational)):
                return _as_split(a) * _as_split(b)
            raise LfacEvalError("cannot multiply %s and %s"
                                % (_kind(a), _kind(b)))
        if op == "/":
            if isinstance(a, (int, Scalar)) and isinstance(b, (int, Scalar)):
                return _as_scalar(a) / _as_scalar(b)
            if isinstance(a, Character) and isinstance(b, Character):
                return a * b.inverse()
            if isinstance(a, (int, Scalar, SplitRational)) \
                    and isinstance(b, (int, Scalar, SplitRational)):
                return _as_split(a) / _as_split(b)
            raise LfacEvalError("cannot divide %s by %s" % (_kind(a), _kind(b)))
        raise LfacEvalError("unhandled operator %r" % op)

    # ------------------------------------------------------------- calls

    def call(self, name, args):
        special = _SPECIAL.get(name)
        if special is not None:
            return special(self, args)
        fn = _SIMPLE.get(name)
        if fn is None:
            raise LfacEvalError("unknown function %r" % name)
        return fn(self, [self.run(a) for a in args])


def _fn_unr(ev, vals):
    _need(vals, 1, 1, "unr")
    return Character.unramified(_as_scalar(vals[0]))


def _fn_abs(ev, vals):
    _need(vals, 1, 1, "abs")
    return Character.absval(_as_half(vals[0]))


def _fn_sp(ev, vals):
    _need(vals, 1, 1, "sp")
    return sp(_as_int(vals[0]))


def _fn_dual(ev, vals):
    _need(vals, 1, 1, "dual")
    return dual(_as_rep(vals[0]))


def _fn_twist(ev, vals):
    _need(vals, 2, 2, "twist")
    return twist(_as_rep(vals[0]), _as_char(vals[1]))


def _fn_tensor(ev, vals):
    _need(vals, 2, 2, "tensor")
    return tensor(_as_rep(vals[0]), _as_rep(vals[1]))


def _fn_det(ev, vals):
    _need(vals, 1, 1, "det")
    return _det(vals[0])


def _fn_L(ev, vals):
    _need(vals, 1, 1, "L")
    v = vals[0]
    if isinstance(v, (cat.Gl2Param, cat.Gsp4Param)):
        return v.lfactor()
    return lfactor(_as_rep(v))


def _fn_shift(ev, vals):
    _need(vals, 2, 2, "shift")
    return _as_split(vals[0]).shift(_as_half(vals[1]))


def _fn_star(ev, vals):
    _need(vals, 1, 1, "star")
    part = _only_irred_block(_as_rep(vals[0]), "star")
    return WDRep([Block(replace(part, starred=not part.starred), 0)])


def _fn_gl2_st(ev, vals):
    _need(vals, 0, 1, "gl2.st")
    return cat.steinberg(_as_char(vals[0])) if vals else cat.steinberg()


def _fn_theta(ev, vals):
    _need(vals, 2, 2, "theta")
    t1, t2 = vals
    if not (isinstance(t1, cat.Gl2Param) and isinstance(t2, cat.Gl2Param)):
        raise LfacEvalError("theta takes two GL(2) parameters")
    return cat.theta_lift(t1, t2)


def _fn_exceptional(ev, vals):
    _need(vals, 2, 2, "exceptional")
    pi, sigma = vals
    if not (isinstance(pi, cat.Gsp4Param) and isinstance(sigma, cat.Gl2Param)):
        raise LfacEvalError("exceptional takes a GSp(4) and a GL(2) parameter")
    return _poles.exceptional_poles(pi, sigma)


def _fn_subregular(ev, vals):
    _need(vals, 1, 1, "subregular")
    if not isinstance(vals[0], cat.Gsp4Param):
        raise LfacEvalError("subregular takes a GSp(4) parameter")
    return _poles.subregular_poles(vals[0])


def _fn_homdim(ev, vals):
    _need(vals, 3, 3, "homdim")
    pi, sigma, root = vals
    if not (isinstance(pi, cat.Gsp4Param) and isinstance(sigma, cat.Gl2Param)):
        raise LfacEvalError("homdim takes a GSp(4) parameter, a GL(2) "
                            "parameter and a root")
    return Scalar.from_rational(_poles.hom_dim(pi, sigma, _as_scalar(root)))


def _fn_bessel(ev, vals):
    _need(vals, 2, 2, "bessel")
    return (_as_char(vals[0]), _as_char(vals[1]))


def _fn_polereport(ev, vals):
    for v in vals:
        if not isinstance(v, _poles.PoleEntry):
            raise LfacEvalError("polereport takes entry(...) values")
    return _poles.PoleReport(tuple(vals))


_SIMPLE = {
    "unr": _fn_unr, "abs": _fn_abs, "sp": _fn_sp, "dual": _fn_dual,
    "twist": _fn_twist, "tensor": _fn_tensor, "det": _fn_det, "L": _fn_L,
    "shift": _fn_shift, "star": _fn_star, "gl2.st": _fn_gl2_st,
    "theta": _fn_theta,
    "exceptional": _fn_exceptional, "subregular": _fn_subregular,
    "homdim": _fn_homdim, "bessel": _fn_bessel, "polereport": _fn_polereport,
}


def _tag_pairs(node, out):
    # the tag argument is a product of named generators with integer powers
    if node[0] == "name":
        out.append((node[1], 1))
    elif node[0] == "pow" and node[1][0] == "name":
        out.append((node[1][1], node[2]))
    elif node[0] == "binop" and node[1] == "*":
        _tag_pairs(node[2], out)
        _tag_pairs(node[3], out)
    else:
        raise LfacEvalError("the ram tag must be a product of names")
    return out


def _sp_ram(ev, args):
    _need(args, 1, 2, "ram")
    tag = _tag_pairs(args[0], [])
    satake = _as_scalar(ev.run(args[1])) if len(args) == 2 else Scalar.one
    return Character(tuple(tag), satake)


def _sp_irr(ev, args):
    _need(args, 2, 4, "irr")
    dim = _as_int(ev.run(args[0]))
    label = _name_arg(args[1], "the irr label")
    det = _as_char(ev.run(args[2])) if len(args) > 2 else Character.trivial()
    sd = _as_char(ev.run(args[3])) if len(args) > 3 else None
    return WDRep([Block(IrredPart(dim, label, base_det=det,
                                  selfdual_twist=sd), 0)])


def _sp_irr4(ev, args):
    _need(args, 2, 2, "irr4")
    label = _name_arg(args[0], "the irr4 label")
    sim = _as_char(ev.run(args[1]))
    return cat.sc_irred4(label, sim).rep


def _sp_gl2_ps(ev, args):
    _need(args, 2, 3, "gl2.ps")
    reducible = False
    if len(args) == 3:
        if _name_arg(args[2], "the gl2.ps flag") != "red":
            raise LfacEvalError("the third gl2.ps argument is the flag 'red'")
        reducible = True
    return cat.principal_series(_as_char(ev.run(args[0])),
                                _as_char(ev.run(args[1])), reducible)


def _sp_gl2_sc(ev, args):
    _need(args, 1, 2, "gl2.sc")
    label = _name_arg(args[0], "the gl2.sc label")
    if len(args) == 1:
        return cat.supercuspidal(label)
    return cat.supercuspidal(label, _as_char(ev.run(args[1])))


def _sp_entry(ev, args):
    _need(args, 2, 4, "entry")
    root = _as_scalar(ev.run(args[0]))
    tagname = _name_arg(args[1], "the classification")
    if tagname not in _TAGS:
        raise LfacEvalError("unknown classification %r" % tagname)
    witnesses = ()
    bessel = None
    for a in args[2:]:
        v = ev.run(a)
        if isinstance(v, tuple):
            bessel = v
        else:
            witnesses = tuple(_as_rep(v).blocks)
    return _poles.PoleEntry(root, _TAGS[tagname], witnesses, bessel)


_SPECIAL = {
    "ram": _sp_ram, "irr": _sp_irr, "irr4": _sp_irr4, "gl2.ps": _sp_gl2_ps,
    "gl2.sc": _sp_gl2_sc, "entry": _sp_entry,
}

_VALUE_ARG = {"c": _as_char, "r": _as_rep}


def _gsp4_fn(ctor, name, sig, optional, from_catalog):
    """The gsp4.<name> handler of one cat.GSP4_TYPES entry.  A type with
    labels is _SPECIAL and sees argument nodes, the others are _SIMPLE and
    see values; either way it closes over the constructor itself."""
    nlabels = sig.count("l")

    def fn(ev, args):
        _need(args, len(sig) - optional, len(sig), name)
        labels = [_name_arg(a, "the %s label" % name) for a in args[:nlabels]]
        vals = [ev.run(a) for a in args[nlabels:]] if nlabels else args
        vals = [_VALUE_ARG[k](v) for k, v in zip(sig[nlabels:], vals)]
        if from_catalog:
            return ctor(*labels, *vals, catalog=ev.catalog)
        return ctor(*labels, *vals)
    return fn


for _t in cat.GSP4_TYPES.values():
    (_SPECIAL if "l" in _t.sig else _SIMPLE)["gsp4." + _t.name] = _gsp4_fn(
        _t.ctor, "gsp4." + _t.name, _t.sig, _t.optional, _t.catalog)


def evaluate_text(text: str, env=None, catalog=None):
    """Parse and evaluate one expression; env maps names to bound values and
    catalog overrides the builtin shape table."""
    try:
        value = _Evaluator(env, catalog).run(_parse(text))
    except RecursionError:
        # parser and evaluator recurse once per nesting level, and a flat
        # a + b + ... is a left-nested tree
        raise LfacSyntaxError("expression nested too deeply", 1, 1) from None
    if isinstance(value, int):
        return Scalar.from_rational(value)
    return value


def parse_scalar(text: str) -> Scalar:
    value = evaluate_text(text)
    if not isinstance(value, Scalar):
        raise LfacEvalError("expected a scalar expression, got %s"
                            % _kind(value))
    return value

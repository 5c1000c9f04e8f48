"""The expression reader as it was before the one-frame reader of
lfac.dsl: a recursive descent over (kind, piece, offset) tokens with one
frame per operator level, kept as the reference the tests compare the
package's reader against (tests/test_reader.py).  It builds the same trees
and raises the same LfacSyntaxError texts, positions included."""

from __future__ import annotations

import re

from lfac import dsl
from lfac.catalog import _NAME
from lfac.errors import LfacSyntaxError
from lfac.scalar import Scalar

# whitespace and comments are the unnamed alternatives; "bad" catches any
# other character; a name is the catalog's _NAME, the form of a label
_TOKEN_RE = re.compile(r"""
    \s+ | \#[^\n]*
  | (?P<number>\d+)
  | (?P<name>%s)
  | (?P<op>[-+*/^(),])
  | (?P<bad>.)
""" % _NAME, re.VERBOSE | re.DOTALL)

# the binary operator levels, loosest first; at the last one a group
# directly after a value is an implicit '*'
_LEVELS = (("+", "-"), ("x",), ("*", "/", "("))


class ReferenceParser:
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
        self.depth = -1  # the outermost operand is not nested
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
        # unary reads the last level's operands directly: a frame less a level
        ops = _LEVELS[level]
        last = level + 1 == len(_LEVELS)
        first = self.unary() if last else self.expr(level + 1)
        rest = []
        while self.at(*ops):
            op = self.toks[self.i][1]
            if op == "(":
                op = "*"
            else:
                self.i += 1
            rest.append((op, self.unary() if last else self.expr(level + 1)))
        return ("chain", first, rest) if rest else first

    def unary(self):
        # unary minus signs, an atom and its '^' exponents; every operand
        # but the outermost is one level inside a group or call, and each
        # minus sign nests one more
        signs = 0
        while self.at("-"):
            self.i += 1
            signs += 1
        self.depth += signs + 1
        if self.depth > dsl.NEST_MAX:
            raise LfacSyntaxError("expression nested too deeply", 1, 1)
        node = self.atom()
        self.depth -= signs + 1
        exps = []
        while self.at("^"):
            self.i += 1
            exps.append(self.exponent())
        if exps:
            # one node for the run, raised left to right: 2^3^2 is 64
            node = ("pow", node, exps)
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
            if not (self.at("(") and (piece in dsl._SIMPLE or "." in piece)):
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

"""The expression reader of lfac.dsl against the reference reader kept in
reference_reader: over a seeded generator of expressions, and over
hypothesis texts with refused characters, comments and unbalanced groups,
both readers build equal trees or raise the same syntax error, at the same
line and column; and every value the generator builds reads back equal
from its text."""

import random
import re

from hypothesis import given, settings
from hypothesis import strategies as st

from lfac import dsl, render
from lfac.catalog import GSP4_TYPES
from lfac.errors import LfacError, LfacSyntaxError
from reference_reader import ReferenceParser

_SEPARATORS = (" ", " ", " ", "\n", "\t", "  # a note, (unbalanced\n",
               " #\n\n")
_EXPONENTS = ("2", "-1", "(-2)", "0", "1", "3")


class _Exprs:
    """Seeded expression text of each value kind.  A maker called at depth
    d nests calls and operators at most d further levels, and at depth 0
    gives a leaf; some of what it makes is refused, which both readers
    must agree on as well."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)

    def one(self, depth: int) -> str:
        r = self.rng
        kind = r.choice((self.scalar, self.char, self.rep, self.split,
                         self.gl2, self.gsp4, self.report))
        # the generator's spaces become newlines, tabs and comments, and one
        # text in ten loses a character or gains a stray one
        text = re.sub(" ", lambda m: r.choice(_SEPARATORS), kind(depth))
        if r.random() < 0.1:
            i = r.randrange(len(text))
            text = text[:i] + r.choice(("", "$", ")", ",", "^", ".")) \
                + text[i + 1:]
        return text

    def _pick(self, depth: int, leaves, nodes) -> str:
        makers = leaves if depth <= 0 or self.rng.random() < 0.3 else nodes
        return self.rng.choice(makers)(depth - 1)

    def _power(self, base: str) -> str:
        # a run of one to three exponents
        return base + "".join("^" + self.rng.choice(_EXPONENTS)
                              for _ in range(self.rng.randint(1, 3)))

    def _binary(self, make, depth, ops) -> str:
        return "%s %s %s" % (make(depth), self.rng.choice(ops), make(depth))

    def scalar(self, depth: int) -> str:
        r = self.rng
        return self._pick(depth, [
            lambda d: r.choice(("a", "b", "v", "q", "2", "3", "1/2")),
        ], [
            lambda d: self._binary(self.scalar, d, "+-*/"),
            lambda d: "-" + self.scalar(d),
            lambda d: self._power(r.choice(("a", "v", "2", "(a + b)"))),
            lambda d: "(%s)" % self.scalar(d),
            lambda d: "homdim(%s, %s, a)" % (self.gsp4(d), self.gl2(d)),
        ])

    def char(self, depth: int) -> str:
        r = self.rng
        return self._pick(depth, [
            lambda d: "unr(%s)" % r.choice(("a", "b*v", "a^-1")),
            lambda d: "ram(%s, a)" % r.choice(("eta", "eta^2*xi", "xi^2^-1")),
            lambda d: "abs(%s)" % r.choice(("1/2", "1", "-3/2")),
        ], [
            lambda d: "unr(%s)" % self.scalar(d),
            lambda d: "ram(eta, %s)" % self.scalar(d),
            lambda d: self._binary(self.char, d, "*/"),
            lambda d: self._power("unr(a)"),
            lambda d: "det(%s)" % self.rep(d),
        ])

    def rep(self, depth: int) -> str:
        r = self.rng
        return self._pick(depth, [
            lambda d: "sp(%d)" % r.randint(0, 2),
            lambda d: "irr(2, l)",
            self.char,
        ], [
            lambda d: self._binary(self.rep, d, ("+", "x")),
            lambda d: "%s*%s" % (self.char(d), self.rep(d)),
            lambda d: "%s * %s" % (self.rep(d), self.char(d)),
            lambda d: "dual(%s)" % self.rep(d),
            lambda d: "twist(%s, %s)" % (self.rep(d), self.char(d)),
            lambda d: "tensor(%s, %s)" % (self.rep(d), self.rep(d)),
            lambda d: "star(irr(2, %s))" % r.choice(("l", "m")),
            lambda d: "irr(2, l, %s)" % self.char(d),
            lambda d: "irr4(l, %s)" % self.char(d),
            lambda d: "(%s)" % self.rep(d),
        ])

    def split(self, depth: int) -> str:
        r = self.rng
        return self._pick(depth, [
            lambda d: r.choice(("1 - a*X", "X", "X(1 - a*X)^2",
                                "(1 - a*X)(1 - b*v^-1*X)")),
        ], [
            lambda d: "L(%s)" % r.choice((self.rep, self.gl2, self.gsp4))(d),
            lambda d: "shift(%s, %s)" % (self.split(d),
                                         r.choice(("1/2", "1", "-1/2"))),
            lambda d: self._binary(self.split, d, "*/"),
            lambda d: "1/(%s)" % self.split(d),
            lambda d: "2*X(%s)" % self.split(d),
        ])

    def gl2(self, depth: int) -> str:
        r = self.rng
        return self._pick(depth, [
            lambda d: r.choice(("gl2.st()", "gl2.sc(l)", "gl2.sc(m)")),
        ], [
            lambda d: "gl2.ps(%s, %s)" % (self.char(d), self.char(d)),
            lambda d: "gl2.ps(unr(a), unr(a*v^-2), red)",
            lambda d: "gl2.st(%s)" % self.char(d),
            lambda d: "gl2.sc(l, %s)" % self.char(d),
        ])

    def gsp4(self, depth: int) -> str:
        r = self.rng
        labels = iter(("l", "m"))

        def arg(letter: str, d: int) -> str:
            return {"c": lambda: self.char(d), "l": lambda: next(labels),
                    "r": lambda: self.rep(d)}[letter]()

        def typed(d: int) -> str:
            name = r.choice(sorted(GSP4_TYPES))
            row = GSP4_TYPES[name]
            return "gsp4.%s(%s)" % (name, ", ".join(
                arg(k, d) for k in row.sig[:len(row.sig) - r.randint(
                    0, row.optional)]))
        return self._pick(depth, [
            lambda d: "gsp4.VIa(unr(a))",
            lambda d: "gsp4.sc4(l, unr(a))",
        ], [
            typed,
            typed,
            lambda d: "theta(%s, %s)" % (self.gl2(d), self.gl2(d)),
        ])

    def report(self, depth: int) -> str:
        r = self.rng
        entry = lambda d: "entry(%s, %s%s%s)" % (  # noqa: E731
            self.scalar(d), r.choice(("exceptional", "sub1", "sub2",
                                      "regular")),
            r.choice(("", ", " + self.rep(d))),
            r.choice(("", ", bessel(%s, %s)" % (self.char(d),
                                                self.char(d)))))
        return self._pick(depth, [
            lambda d: "polereport()",
            lambda d: "bessel(unr(a), unr(b))",
        ], [
            lambda d: "exceptional(%s, %s)" % (self.gsp4(d), self.gl2(d)),
            lambda d: "subregular(%s)" % self.gsp4(d),
            lambda d: "polereport(%s)" % ", ".join(
                entry(d) for _ in range(r.randint(1, 2))),
            entry,
        ])


def _read(parser, text):
    """The tree of text, or the syntax error the parser raises for it."""
    try:
        return parser(text).parse()
    except LfacSyntaxError as e:
        return str(e)


def _value(tree):
    """The value of a tree, or the type and text of the refusal."""
    try:
        return dsl._Evaluator(None, dsl._SIMPLE).run(tree)
    except LfacError as e:
        return type(e).__name__, str(e)


def _walk(node, out):
    # the call names, operators and node tags of a tree
    out.add(node[0])
    if node[0] == "call":
        out.add(node[1])
        for arg in node[2]:
            _walk(arg, out)
    elif node[0] == "chain":
        _walk(node[1], out)
        for op, rhs in node[2]:
            out.add(op)
            _walk(rhs, out)
    elif node[0] in ("neg", "pow"):
        _walk(node[1], out)
    return out


def test_the_reader_matches_the_reference_on_generated_expressions():
    exprs, seen, values, errors = _Exprs(33), set(), 0, 0
    for _ in range(2500):
        text = exprs.one(4)
        tree = _read(dsl._Parser, text)
        assert tree == _read(ReferenceParser, text), text
        if isinstance(tree, str):  # the same syntax error
            errors += 1
            continue
        _walk(tree, seen)
        value = _value(tree)
        assert value == _value(ReferenceParser(text).parse()), text
        if isinstance(value, tuple) and isinstance(value[0], str):
            continue  # refused alike
        values += 1
        # hard invariant 3: the value's text reads back to an equal value
        assert dsl.evaluate_text(render.text(value)) == value, text
    # every function and operator was read, most texts built a value, and
    # some were refused as syntax
    assert set(dsl._SIMPLE) | {"+", "-", "x", "*", "/", "neg", "pow"} <= seen
    assert values > 1500 and errors > 100


_PIECES = st.sampled_from([
    "a", "b", "x", "X", "v", "_", "gl2.ps", "unr", "dual", "L", "a.b",
    "ab.cd.ef", "1", "0", "23", "9" * 40, "9" * 4400, ".", "$", "#", "# c\n",
    "\n", " ", "\t", "(", ")", "((", "))", ",", "+", "-", "*", "/", "^",
    "^(-", "é", "٣", "²"])


@settings(max_examples=1500, deadline=None)
@given(st.lists(_PIECES, max_size=16).map("".join))
def test_syntax_errors_and_positions_match_the_reference(text):
    # refused characters are found only once the parse stops, and a
    # position only then worked out; an error's text ends in its position
    assert _read(dsl._Parser, text) == _read(ReferenceParser, text)

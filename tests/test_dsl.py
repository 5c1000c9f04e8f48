from fractions import Fraction

import pytest

from lfac.catalog import (Gl2Param, Gsp4Param, load_catalog, principal_series,
                          steinberg, type_IVa, type_VIa)
from lfac import render
from lfac.chars import Character
from lfac.dsl import evaluate_text, parse_scalar
from lfac.errors import LfacEvalError, LfacSyntaxError
from lfac.poles import PoleEntry, PoleReport, SUBREGULAR2
from lfac.scalar import Scalar
from lfac.splitrat import SplitRational
from lfac.wdrep import WDRep, char_rep, lfactor, sp, tensor

a = Scalar.symbol("a")
b = Scalar.symbol("b")
v = Scalar.v_power(1)
unr = Character.unramified
ev = evaluate_text


# ----------------------------------------------------------------- scalars

def test_scalar_arithmetic():
    assert ev("2 + 3*4") == Scalar.from_rational(14)
    assert ev("1/2*a") == a / 2
    assert ev("a^2 - b^2") == a * a - b * b
    assert ev("-a^2") == -(a ** 2)
    assert ev("a^(-2)") == a ** -2
    assert ev("q") == Scalar.v_power(2)
    assert ev("v^-3") == Scalar.v_power(-3)


def test_parse_scalar_guard():
    assert parse_scalar("(a + b)/(a*b)") == (a + b) / (a * b)
    with pytest.raises(LfacEvalError):
        parse_scalar("unr(a)")


def test_reserved_names():
    for name in ("x", "sp"):
        with pytest.raises(LfacEvalError):
            ev(name)


# ---------------------------------------------------------------- factored

def test_factor_forms():
    assert ev("1 - a*X") == SplitRational(factors=((a, 1),))
    two_poles = ev("1/((1 - a*X)(1 - b*X))")
    assert sorted(map(str, two_poles.pole_roots())) == ["a", "b"]
    assert ev("X(1 - a*X)^2").xpower == 1
    assert str(ev("2*X(1 - a*X)^2/(1 - b*X)")) == "2*X(1 - a*X)^2/(1 - b*X)"


def test_shift():
    assert ev("shift(1/(1 - a*X), 1)") == ev("1/(1 - a*v^-2*X)")
    assert ev("shift(1/(1 - a*X), 1/2)") == ev("1/(1 - a*v^-1*X)")


def test_subtraction_is_restricted():
    with pytest.raises(LfacEvalError):
        ev("2 - a*X")
    with pytest.raises(LfacEvalError):
        ev("1 - a*X^2")


# -------------------------------------------------------------- characters

def test_characters():
    assert ev("unr(a*b)") == unr(a * b)
    assert ev("abs(1)") == Character.absval(1)
    assert ev("abs(1/2)") == Character.absval(Fraction(1, 2))
    assert ev("ram(eta)") == Character.ramified("eta")
    assert ev("ram(eta^-1*xi, a)") \
        == Character.ramified("eta").inverse() * Character.ramified("xi", a)
    assert ev("unr(a)/unr(b)") == unr(a) * unr(b).inverse()
    assert ev("unr(a)^-1") == unr(a).inverse()
    with pytest.raises(LfacEvalError):
        ev("ram(a + b)")


# ----------------------------------------------------------------- reps

def test_rep_construction():
    w = ev("unr(a) x sp(1) + unr(b) x sp(0)")
    assert isinstance(w, WDRep) and w.dim == 3
    assert w == char_rep(unr(a), 1) + char_rep(unr(b))
    # the tensor keyword binds between '+' and '*'
    assert ev("unr(a) + unr(b) x sp(1)").dim == 3


def test_rep_operations():
    assert ev("dual(unr(a) x sp(1))") == ev("unr(a)^-1 x sp(1)")
    assert ev("unr(b)*(unr(a) x sp(1))") == ev("unr(a*b) x sp(1)")
    assert ev("det(unr(a) + unr(b))") == unr(a * b)
    assert ev("L(unr(a) x sp(2))") == ev("1/(1 - a*v^-2*X)")
    assert ev("tensor(unr(a) x sp(1), unr(b) x sp(1))") \
        == tensor(char_rep(unr(a), 1), char_rep(unr(b), 1))


def test_irred_parts():
    w = ev("irr(2, l, unr(a))")
    assert isinstance(w, WDRep) and w.dim == 2
    assert w.blocks[0].part.det() == unr(a)
    assert ev("star(irr(2, l))") != ev("irr(2, l)")
    assert ev("irr4(l, unr(a))").dim == 4


# ------------------------------------------------------------- parameters

def test_gl2_expressions():
    assert ev("gl2.ps(unr(a), unr(b))") == principal_series(unr(a), unr(b))
    assert ev("gl2.ps(unr(a), unr(a)*abs(1), red)").reducible == "sub"
    assert ev("gl2.st(unr(a))") == steinberg(unr(a))
    assert ev("gl2.sc(l, unr(a))").kind == "supercuspidal"
    with pytest.raises(LfacEvalError):
        ev("gl2.ps(unr(a), unr(b), blue)")


def test_gsp4_expressions():
    assert ev("gsp4.IVa(unr(a))") == type_IVa(unr(a))
    assert ev("gsp4.VIa(unr(a))") == type_VIa(unr(a))
    assert str(ev("L(gsp4.IVa(unr(a)))")) == "1/(1 - a*v^-3*X)"
    assert ev("gsp4.X(l, unr(b), unr(a))").st_type == "X"
    assert ev("gsp4.sc4(l)").similitude.is_trivial
    assert ev("gsp4.scpair(l, m, unr(a))").st_type == "SC"
    free = ev("gsp4.free(unr(a) x sp(1) + unr(a) x sp(1), unr(a^2))")
    assert free.st_type == "FREE"
    assert free.rep == type_VIa(unr(a)).rep
    assert free.similitude == type_VIa(unr(a)).similitude


def test_theta_and_pole_functions():
    lift = ev("theta(gl2.st(unr(a)), gl2.ps(unr(a*b), unr(a/b)))")
    assert isinstance(lift, Gsp4Param) and lift.theta is not None
    report = ev("exceptional(gsp4.VIa(unr(a)), gl2.st())")
    assert isinstance(report, PoleReport)
    assert [str(r) for r in report.exceptional_roots()] == ["a"]
    assert isinstance(ev("subregular(gsp4.I(unr(a), unr(b), unr(a*b)))"),
                      PoleReport)
    assert ev("homdim(gsp4.VIa(unr(a)), gl2.st(), a)") == Scalar.one
    assert ev("homdim(gsp4.VIa(unr(a)), gl2.st(), b)") == Scalar.zero


def test_entry_and_report_literals():
    e = ev("entry(a*v^-1, sub2, unr(a) x sp(1), bessel(unr(a), unr(a)))")
    assert isinstance(e, PoleEntry) and e.classification == SUBREGULAR2
    assert e.bessel == (unr(a), unr(a))
    rep = ev("polereport(entry(a, regular))")
    assert isinstance(rep, PoleReport) and len(rep.entries) == 1
    with pytest.raises(LfacEvalError):
        ev("entry(a, special)")


# ------------------------------------------------------------ environment

def test_env_binding():
    assert ev("sigma^2", env={"sigma": unr(a)}) == unr(a) ** 2
    assert ev("sigma", env={"sigma": unr(a)}) == unr(a)
    # unbound names fall back to scalar symbols
    assert ev("sigma") == Scalar.symbol("sigma")


def test_catalog_override(tmp_path):
    f = tmp_path / "cat.txt"
    f.write_text("catalog-format 1\n"
                 "type VIa\n"
                 "params sigma:char\n"
                 "block sigma sp 3\n"
                 "similitude sigma^2\n")
    shapes = load_catalog(f)
    p = ev("gsp4.VIa(unr(a))", catalog=shapes)
    assert str(lfactor(p.rep)) == "1/(1 - a*v^-3*X)"


# ---------------------------------------------------------------- errors

@pytest.mark.parametrize("text, line, col", [
    ("a +", 1, 4),
    ("(a", 1, 3),
    ("a b", 1, 3),
    ("a^b", 1, 3),
    ("a $", 1, 3),
    ("(1 - a*X)\n(1 - $*X)", 2, 6),
])
def test_syntax_error_positions(text, line, col):
    with pytest.raises(LfacSyntaxError) as ex:
        ev(text)
    assert (ex.value.line, ex.value.col) == (line, col)


def test_eval_errors():
    with pytest.raises(LfacEvalError):
        ev("unr(a, b)")
    with pytest.raises(LfacEvalError):
        ev("L(a)")
    with pytest.raises(LfacEvalError):
        ev("unr(a) + X")
    with pytest.raises(LfacEvalError):
        ev("shift(unr(a), 1)")


@pytest.mark.parametrize("text", [
    "(" * 3000 + "1" + ")" * 3000,
    "-" * 3000 + "1",
    "+".join(["1"] * 3000),
], ids=["parens", "minus-chain", "flat-sum"])
def test_deep_input_is_a_syntax_error(text):
    with pytest.raises(LfacSyntaxError):
        ev(text)


def test_long_rendered_sum_parses_back():
    w = WDRep([b for k in range(150) for b in char_rep(unr(a * v ** k)).blocks])
    assert ev(render.text(w)) == w


def test_unknown_names_juxtapose():
    # an unrecognized name before parens is a symbol times a group, the same
    # rule that makes X(1 - a*X) read as a product
    assert ev("frobnicate(a)") == Scalar.symbol("frobnicate") * a


def test_comments_and_newlines():
    assert ev("1/( (1 - a*X) # pole at a\n (1 - b*X) )") \
        == ev("1/((1 - a*X)(1 - b*X))")


def test_int_promotes_to_scalar():
    assert isinstance(ev("3"), Scalar)
    assert ev("3") == Scalar.from_rational(3)

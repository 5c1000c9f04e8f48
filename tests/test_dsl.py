from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lfac.catalog import (Gl2Param, Gsp4Param, load_catalog, principal_series,
                          steinberg, type_IVa, type_VIa)
from lfac import render
from lfac.chars import Character
from lfac.dsl import _SIMPLE, evaluate_text, parse_scalar
from lfac.errors import (LfacError, LfacEvalError, LfacSyntaxError,
                         ScalarDomainError)
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
    assert ev("gl2.sc(l, unr(a))").entry == "gl2.sc"
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
    assert isinstance(lift, Gsp4Param) and lift.entry == "theta"
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
    # past the interpreter's limit on integer digits, at the literal
    pytest.param("1" * 5000, 1, 1, id="long-literal"),
    pytest.param("a + 2^" + "1" * 5000, 1, 7, id="long-exponent"),
    pytest.param("a^(-" + "1" * 5000 + ")", 1, 5, id="long-negative-exponent"),
    # the line after a comment line, and the very end of multi-line text
    pytest.param("# a note\n  a + $", 2, 7, id="after-comment-line"),
    pytest.param("a +  # a note\n# more\n )", 3, 2, id="after-two-comments"),
    pytest.param("(a +\n b", 2, 3, id="end-of-second-line"),
    pytest.param("a +\n\n", 3, 1, id="end-after-newline"),
    pytest.param("a +\n# a note", 2, 9, id="end-in-comment"),
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
], ids=["parens", "minus-chain"])
def test_deep_input_is_a_syntax_error(text):
    with pytest.raises(LfacSyntaxError):
        ev(text)


# text nested the given number of levels deep, and the value at 160 levels
_NESTINGS = {
    "groups": (lambda k: "(" * k + "a" + ")" * k, "a"),
    "calls": (lambda k: "dual(" * (k - 1) + "unr(a)" + ")" * (k - 1),
              "unr(a^-1) x sp(0)"),
    "minus": (lambda k: "-" * k + "a", "a"),
}


@pytest.mark.parametrize("text, value", [
    (_NESTINGS[k][0](160), _NESTINGS[k][1]) for k in ("groups", "calls")
], ids=["groups", "calls"])
def test_160_nesting_levels_evaluate(fresh_python, text, value):
    # in a fresh interpreter, as on the command line
    proc = fresh_python("-m", "lfac", "eval", text)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, value + "\n", "")


def _with_frames(extra: int, fn):
    """fn() called with extra more frames on the stack."""
    return fn() if extra == 0 else _with_frames(extra - 1, fn)


@pytest.mark.parametrize("extra", [0, 100])
@pytest.mark.parametrize("kind", sorted(_NESTINGS))
def test_nesting_bound_does_not_depend_on_the_caller(kind, extra):
    # 160 levels evaluate and 161 are refused, however deep the caller is
    nest, value = _NESTINGS[kind]
    assert render.text(_with_frames(extra, lambda: ev(nest(160)))) == value
    with pytest.raises(LfacSyntaxError) as ex:
        _with_frames(extra, lambda: ev(nest(161)))
    assert str(ex.value) == "expression nested too deeply (line 1, col 1)"


def test_minus_chain_limit_is_a_syntax_error():
    with pytest.raises(LfacSyntaxError) as ex:
        ev("-" * 3000 + "1")
    assert str(ex.value) == "expression nested too deeply (line 1, col 1)"


@pytest.mark.parametrize("text, value", [
    ("+".join(["1"] * 3000), Scalar.from_rational(3000)),
    ("*".join(["a"] * 3000), a ** 3000),
    ("unr(a)" + " x sp(0)" * 3000, char_rep(unr(a))),
    ("a" + "^1" * 3000, a),
], ids=["flat-sum", "flat-product", "flat-tensor", "power-run"])
def test_long_chains_evaluate(text, value):
    # operator chains and runs of exponents parse flat, so their length is
    # not limited
    assert ev(text) == value


def test_power_runs_associate_left():
    # a run of exponents is one node raised in a loop, left to right, at
    # any depth of the caller
    assert _with_frames(100, lambda: ev("a" + "^1" * 3000)) == a
    assert ev("2^3^2") == 64
    assert ev("a^2^-1") == 1 / a ** 2
    with pytest.raises(ScalarDomainError):
        ev("0^-1^0")
    assert ev("ram(eta^2)") == Character.ramified("eta") ** 2


def test_ram_tag_folds_a_power_run():
    # a run of exponents on a tag name folds left to right into one, as
    # everywhere else (eta^2^3 is eta^6), and the value round-trips
    chi = ev("ram(eta^2^3*xi^(-1)^2, a)")
    assert chi == ev("ram(eta^6*xi^-2, a)")
    assert ev("ram(eta^2^3)") == ev("ram(eta^6)") \
        == Character.ramified("eta") ** 6
    assert render.text(chi) == "ram(eta^6*xi^-2, a)"
    assert ev(render.text(chi)) == chi
    assert ev("ram(eta^2^0)").is_trivial


def test_long_rendered_sum_parses_back():
    w = WDRep([b for k in range(600) for b in char_rep(unr(a * v ** k)).blocks])
    assert ev(render.text(w)) == w


@pytest.mark.parametrize("text", [
    "entry(a, regular, unr(a) x sp(0), unr(b) x sp(0))",
    "entry(a, sub2, bessel(unr(a), unr(a)), bessel(unr(b), unr(b)))",
], ids=["two-witness-sums", "two-bessel"])
def test_entry_takes_one_witness_sum_and_one_bessel(text):
    with pytest.raises(LfacEvalError):
        ev(text)


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


# ------------------------------------------------------------------ fuzzing

_ATOMS = ["a", "b", "0", "1", "2", "v", "q", "X", "x", "l", "red", "regular",
          "sub2", "eta"]
_atoms = st.one_of(st.sampled_from(_ATOMS),
                   st.builds("{}^{}".format, st.sampled_from(_ATOMS),
                             st.sampled_from(["2", "-1", "0", "(-2)"])))


def _grow(inner):
    return st.one_of(
        st.builds("{}({})".format, st.sampled_from(sorted(_SIMPLE)),
                  st.lists(inner, max_size=4).map(", ".join)),
        st.builds("{}{}{}".format, inner,
                  st.sampled_from([" + ", " - ", "*", "/", " x ", ""]), inner),
        inner.map("({})".format), inner.map("-{}".format))


# grammatical nestings of the table's functions, plus token soup
_fuzz_text = st.one_of(
    st.recursive(_atoms, _grow, max_leaves=10),
    st.lists(st.sampled_from(sorted(_SIMPLE) + _ATOMS + list("+-*/^(),")),
             max_size=12).map(" ".join))


@settings(max_examples=300, deadline=None)
@given(_fuzz_text)
def test_fuzzed_text_yields_a_value_or_an_lfac_error(text):
    try:
        ev(text)
    except LfacError:
        pass

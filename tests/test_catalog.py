import itertools
import json
import pathlib
import re

import pytest

from lfac.catalog import (GSP4_TYPES, Gl2Param, Gsp4Param, default_catalog,
                          free, gsp4_param, gsp4_types, load_catalog,
                          nov_lfactor, principal_series, rs_lfactor,
                          sc_irred4, sc_pair, steinberg, supercuspidal,
                          theta_lift, type_I, type_IIa, type_IIIa, type_IVa,
                          type_IXa, type_VIa, type_VII, type_VIIIa, type_Va,
                          type_X, type_XIa)
from lfac import catalog as cat, dsl, render
from lfac.chars import Character
from lfac.cli import main
from lfac.dsl import evaluate_text
from lfac.errors import (CatalogFormatError, CentralCharacterMismatch,
                         LfacError, SimilitudeViolation,
                         TypeConstraintViolation, UnsupportedPair)
from lfac.scalar import Scalar
from lfac.wdrep import char_rep, lfactor, tensor_lfactor

a = Scalar.symbol("a")
b = Scalar.symbol("b")
c = Scalar.symbol("c")
v = Scalar.v_power(1)
unr = Character.unramified
ram = Character.ramified
absval = Character.absval


# ------------------------------------------------------------------- GL(2)

def test_principal_series():
    p = principal_series(unr(a), unr(b))
    assert p.entry == "gl2.ps" and p.reducible is None
    assert p.central == unr(a * b)
    assert str(p.lfactor()) == "1/((1 - a*X)(1 - b*X))"


def test_principal_series_reducible_flag():
    with pytest.raises(TypeConstraintViolation):
        principal_series(unr(a), unr(a) * absval(1))
    # chi1/chi2 = |.|^{-1} puts the 1-dimensional piece in the sub position
    assert principal_series(unr(a), unr(a) * absval(1),
                            reducible=True).reducible == "sub"
    assert principal_series(unr(a), unr(a) * absval(-1),
                            reducible=True).reducible == "quot"
    # a ramified ratio is never reducible, the flag is then a no-op
    assert principal_series(ram("eta"), unr(b), reducible=True).reducible is None


def test_steinberg():
    p = steinberg(unr(a))
    assert p.entry == "gl2.st"
    assert p.central == unr(a) ** 2
    assert str(p.lfactor()) == "1/(1 - a*v^-1*X)"
    assert p.rep.blocks[0].n == 1
    assert steinberg().central.is_trivial


def test_supercuspidal():
    p = supercuspidal("l", det=unr(a))
    assert p.entry == "gl2.sc"
    assert p.central == unr(a)
    assert p.lfactor() == 1
    assert p.rep.dim == 2


# ------------------------------------------------------------------ GSp(4)

def test_type_I():
    p = type_I(unr(a), unr(b), unr(c))
    assert p.st_type == "I" and p.rep.dim == 4
    assert p.similitude == unr(a * b * c ** 2)
    assert str(p.lfactor()) \
        == "1/((1 - a*b*c*X)(1 - a*c*X)(1 - b*c*X)(1 - c*X))"


def test_type_I_excluded_ratios():
    for c1, c2 in [(absval(1), unr(b)),            # chi1 = |.|
                   (unr(a), absval(-1)),           # chi2 = |.|^{-1}
                   (unr(a), absval(1) * unr(a).inverse()),  # chi1*chi2 = |.|
                   (unr(a), unr(a) * absval(1))]:  # chi1/chi2 = |.|^{-1}
        with pytest.raises(TypeConstraintViolation):
            type_I(c1, c2, unr(c))


def test_type_IIIa():
    p = type_IIIa(unr(a), unr(b))
    assert p.similitude == unr(a * b)
    assert str(p.lfactor()) == "1/((1 - a*v^-1*X)(1 - b*v^-1*X))"
    with pytest.raises(TypeConstraintViolation):
        type_IIIa(unr(a), unr(a))
    with pytest.raises(TypeConstraintViolation):
        type_IIIa(unr(a), unr(a) * absval(2))


def test_type_IVa():
    p = type_IVa(unr(a))
    assert p.similitude == unr(a) ** 2
    assert str(p.lfactor()) == "1/(1 - a*v^-3*X)"
    assert [blk.n for blk in p.rep.blocks] == [3]


def test_type_VII_needs_nontrivial_twist():
    p = type_VII("l", unr(a), ram("eta"))
    assert p.lfactor() == 1 and p.rep.dim == 4
    with pytest.raises(TypeConstraintViolation):
        type_VII("l", unr(a), Character.trivial())


def test_type_VIIIa_IXa_shapes():
    p8 = type_VIIIa("l", unr(a))
    assert [blk.n for blk in p8.rep.blocks] == [0, 0]
    p9 = type_IXa("l", unr(a))
    assert [blk.n for blk in p9.rep.blocks] == [1]
    assert p8.similitude == p9.similitude == unr(a)


def test_supercuspidal_shapes():
    p = sc_irred4("l", unr(a))
    assert p.st_type == "SC" and p.rep.dim == 4 and p.lfactor() == 1
    assert p.similitude == unr(a)
    q = sc_pair("l", "m", unr(b))
    assert q.rep.dim == 4 and q.similitude == unr(b)
    with pytest.raises(TypeConstraintViolation):
        sc_pair("l", "l")


def test_transcribed_types():
    assert str(type_IIa(unr(a), unr(b)).lfactor()) \
        == "1/((1 - a^2*b*X)(1 - a*b*v^-1*X)(1 - b*X))"
    assert type_IIa(unr(a), unr(b)).similitude == unr(a ** 2 * b ** 2)
    assert str(type_Va(unr(a)).lfactor()) \
        == "1/((1 - (-a*v^-1)*X)(1 - a*v^-1*X))"
    assert str(type_VIa(unr(a)).lfactor()) == "1/(1 - a*v^-1*X)^2"
    assert str(type_X("l", unr(b), unr(a)).lfactor()) \
        == "1/((1 - a*X)(1 - a*b*X))"
    assert str(type_XIa("l", unr(a)).lfactor()) == "1/(1 - a*v^-1*X)"
    assert type_XIa("l", unr(a)).similitude == unr(a) ** 2


def test_free_checks_similitude():
    p = type_VIa(unr(a))
    assert free(p.rep, p.similitude).st_type == "FREE"
    with pytest.raises(SimilitudeViolation):
        free(p.rep, unr(b))


def test_gsp4_dispatch():
    assert gsp4_param("IVa", unr(a)) == type_IVa(unr(a))
    assert gsp4_param("sc4", "l").st_type == "SC"
    with pytest.raises(TypeConstraintViolation):
        gsp4_param("IVb", unr(a))


def test_theta_lift():
    tau1 = principal_series(unr(a), unr(b))
    tau2 = steinberg(unr(c))
    with pytest.raises(CentralCharacterMismatch):
        theta_lift(tau1, tau2)
    tau2 = principal_series(unr(a * b) * unr(c).inverse(), unr(c))
    lift = theta_lift(tau1, tau2)
    assert lift.st_type == "FREE"
    assert (lift.entry, lift.args) == ("theta", (tau1, tau2))
    assert lift.similitude == tau1.central
    assert lift.rep == tau1.rep + tau2.rep


# -------------------------------------------------------------- data file

def test_default_catalog_shapes():
    shapes = default_catalog()
    assert set(shapes) == {"I", "IIa", "IIIa", "IVa", "Va", "VIa", "VII",
                           "VIIIa", "IXa", "X", "XIa"}
    assert set(GSP4_TYPES) == set(shapes) | {"sc4", "scpair", "free"}
    assert shapes["X"].params == (("rho", "irred"), ("sigma", "char"))
    assert shapes["XIa"].requires == (("trivial-det", "rho"),)
    assert shapes["IIIa"].requires == (("not-absval", "chi1/chi2", 0),
                                       ("not-absval", "chi1/chi2", 4))


def test_docs_table_lists_the_shipped_shapes():
    # the hand-kept table of catalog-format.md against the data file: one
    # row per type, in file order, with its params in order
    doc = (pathlib.Path(__file__).parents[1] / "docs" / "catalog-format.md") \
        .read_text(encoding="utf-8")
    table = doc.split("## The shipped shapes", 1)[1].split("\n\n")[1]
    rows = [re.split(r"(?<!\\)\|", line)[1:3]
            for line in table.splitlines()[2:]]
    # a param cell may annotate a param, as in "rho (trivial det)"
    assert [(name.strip(), [p.split()[0] for p in params.split(",")])
            for name, params in rows] \
        == [(name, [p for p, _ in shape.params])
            for name, shape in default_catalog().items()]


def test_load_catalog_roundtrip(tmp_path):
    f = tmp_path / "cat.txt"
    f.write_text("catalog-format 1\n"
                 "type T  # a comment\n"
                 "params sigma:char\n"
                 "block sigma sp 2\n"
                 "similitude sigma^2\n")
    shapes = load_catalog(f)
    p = gsp4_param("T", unr(a), catalog=shapes)
    assert str(p.lfactor()) == "1/(1 - a*v^-2*X)"
    assert p.similitude == unr(a) ** 2


@pytest.mark.parametrize("body, fragment", [
    ("nonsense\n", "header"),
    ("catalog-format 1\nparams x:char\n", ":2:"),
    ("catalog-format 1\ntype T\nparams x:vector\n", "bad param"),
    ("catalog-format 1\ntype T\nrequire unitary x\n", "unknown requirement"),
    ("catalog-format 1\ntype T\nblock sigma\n", "'sp N'"),
    ("catalog-format 1\ntype T\nparams s:char\nfrobnicate s\n", ":4:"),
    ("catalog-format 1\ntype T\nparams s:char\nblock s sp 0\n", "similitude"),
    pytest.param("catalog-format 1\ntype T\nparams s:char\n"
                 "require trivial-det rho\n",
                 ":4: require names undeclared param 'rho'",
                 id="undeclared-require"),
    pytest.param("catalog-format 1\ntype T\nparams s:char\nblock s sp %s\n"
                 % ("9" * 5000), ":4: sp index of 5000 digits", id="long-sp"),
    pytest.param("catalog-format 1\ntype T\nparams s:char\nblock s sp 1001\n",
                 ":4: sp index must be at most 1000", id="sp-past-bound"),
    pytest.param("catalog-format 1\ntype T\nparams s:char\nblock s sp 0\n"
                 "similitude s^2\ntype T\n", ":6: type T is already declared",
                 id="repeated-type"),
    pytest.param("catalog-format 1\ntype T\nparams s:char s:char\n",
                 ":3: param s declared twice", id="repeated-param"),
    pytest.param("catalog-format 1\ntype T\nparams s:char r:irred\n"
                 "params s:irred\n", ":4: param s declared twice",
                 id="repeated-param-line"),
    pytest.param("catalog-format 1\ntype T\nparams s:char\nsimilitude s^2\n"
                 "similitude s^4\n", ":5: type T has a second similitude",
                 id="repeated-similitude"),
    pytest.param("catalog-format 1\ntype foo bar\n",
                 ":2: type name 'foo bar'", id="unspellable-type"),
    pytest.param("catalog-format 1\ntype sc4\n",
                 ":2: type sc4 is already declared", id="coded-type-sc4"),
    pytest.param("catalog-format 1\ntype T\nparams s:char\n"
                 "require not-absval s\n",
                 ":4: require not-absval needs an expression and an integer K",
                 id="not-absval-without-K"),
    pytest.param("catalog-format 1\ntype T\nparams s:char\n"
                 "require not-absval s -2\n",
                 ":4: require not-absval needs", id="not-absval-negative-K"),
    pytest.param("catalog-format 1\ntype free\n",
                 ":2: type free is already declared", id="coded-type-free"),
])
def test_load_catalog_rejects(tmp_path, body, fragment):
    f = tmp_path / "cat.txt"
    f.write_text(body)
    with pytest.raises(CatalogFormatError) as ex:
        load_catalog(f)
    assert fragment in str(ex.value)


@pytest.mark.parametrize("body, message", [
    ("block unr(a sp 0\nsimilitude sigma^2",
     "Z block 'unr(a': expected ')' (line 1, col 6)"),
    ("block sigma sp 0\nsimilitude tensor(sigma)",
     "Z similitude 'tensor(sigma)': tensor takes 2 arguments"),
    ("require not-absval unr(a 0\nblock sigma sp 0\nsimilitude sigma^2",
     "Z require 'unr(a': expected ')' (line 1, col 6)"),
    ("require not-absval sigma x sigma 2\nblock sigma sp 0\n"
     "similitude sigma^2",
     "Z require 'sigma x sigma': expression is not a character"),
], ids=["block-syntax", "similitude-eval", "require-syntax", "require-kind"])
def test_expression_errors_name_type_and_text(tmp_path, capsys, body, message):
    f = tmp_path / "cat.txt"
    f.write_text("catalog-format 1\ntype Z\nparams sigma:char\n" + body + "\n")
    shapes = load_catalog(f)  # expressions are read on instantiation
    with pytest.raises(CatalogFormatError) as ex:
        gsp4_param("Z", unr(a), catalog=shapes)
    assert str(ex.value) == message
    argv = ["eval", "gsp4.Z(unr(a))", "--catalog", str(f)]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", "error: %s\n" % message)
    assert main(argv + ["--format", "json"]) == 2
    out, err = capsys.readouterr()
    assert json.loads(out)["error"] == {"type": "CatalogFormatError",
                                        "message": message}
    assert err == ""


def test_types_generated_from_params(three_shape_catalog):
    shapes = load_catalog(three_shape_catalog)
    types = gsp4_types(shapes)
    # the file's types are layered over the shipped ones
    assert set(types) == set(GSP4_TYPES) | {"T", "Y", "Z"}
    assert [GSP4_TYPES[n].sig for n in ("I", "IIa", "IIIa", "IVa", "Va", "VIa",
                                        "VII", "VIIIa", "IXa", "X", "XIa")] \
        == ["ccc", "cc", "cc", "c", "c", "c", "lcc", "lc", "lc", "lcc", "lc"]
    assert [types[n].sig for n in "TYZ"] == ["c", "lcc", "cl"]
    p = gsp4_param("Z", unr(a), "l", catalog=shapes)
    assert (p.st_type, p.entry, p.args) == ("Z", "gsp4.Z", (unr(a), "l"))
    assert gsp4_param("Y", "l", unr(b), unr(a), catalog=shapes).rep \
        == type_X("l", unr(b), unr(a)).rep
    assert gsp4_param("IIa", unr(a), unr(b), catalog=shapes) \
        == type_IIa(unr(a), unr(b))
    with pytest.raises(TypeConstraintViolation):
        types["Y"].ctor("l", unr(a))
    with pytest.raises(TypeConstraintViolation):
        type_X("l", unr(a))


def test_type_binding_errors():
    with pytest.raises(TypeConstraintViolation):
        gsp4_param("nope")
    with pytest.raises(TypeConstraintViolation) as ex:
        type_VIa(a)  # a scalar is not a character
    assert str(ex.value) == "param sigma of VIa must be a character"


@pytest.mark.parametrize("build", [
    lambda: type_VII(unr(a), unr(a), unr(a)),  # a character as a label
    lambda: sc_irred4(unr(a)),
    lambda: supercuspidal(unr(a)),
    lambda: supercuspidal("x y"),  # prints as text that does not parse
    lambda: sc_irred4("2l"),
    lambda: type_VII("l", a, unr(a)),  # a scalar as a determinant
    lambda: sc_pair("l", "m", a),
    lambda: type_X(1, unr(a), unr(a)),  # an int as a label
], ids=["VII-char-label", "sc4-char-label", "sc-char-label",
        "sc-spaced-label", "sc4-digit-label", "VII-scalar-det",
        "scpair-scalar-det", "X-int-label"])
def test_library_labels_and_determinants_are_checked(build):
    # each of these once built text the expression reader refuses, or
    # raised an untyped error
    with pytest.raises(TypeConstraintViolation,
                       match="must be a bare name|must be a character"):
        build()


@pytest.mark.parametrize("build, text", [
    (lambda: free(unr(a), unr(a ** 2)),
     "gsp4.free takes a representation and a character"),
    (lambda: free(char_rep(unr(a), 1), "l"),
     "gsp4.free takes a representation and a character"),
    (lambda: sc_irred4(), "type sc4 takes 1 to 2 arguments"),
    (lambda: sc_pair("l"), "type scpair takes 2 to 3 arguments"),
    (lambda: GSP4_TYPES["sc4"].ctor("l", "m", "n"),
     "type sc4 takes 1 to 2 arguments"),
    (lambda: free(), "type free takes 2 arguments"),
    (lambda: type_VIa(), "type VIa takes 1 argument"),
], ids=["free-char-rep", "free-label-similitude", "sc4-none", "scpair-one",
        "sc4-three", "free-none", "VIa-none"])
def test_coded_rows_refuse_as_the_shape_rows_do(build, text):
    with pytest.raises(TypeConstraintViolation) as ex:
        build()
    assert str(ex.value) == text


# one argument of each kind a caller might pass: a character, a label, a
# scalar, an int, a representation (closed under its dual twisted by the
# character) and a GL(2) parameter
_ROW_ARGS = (unr(a), "l", a, 2,
             char_rep(unr(a)) + char_rep(Character.trivial()),
             steinberg(unr(a)))


@pytest.mark.parametrize("name", sorted(GSP4_TYPES))
def test_every_row_builds_a_value_or_refuses_typed(name):
    # 259 calls a row, every tuple of 0-3 arguments drawn from _ROW_ARGS:
    # none raises an untyped error, and what is built reads back equal
    for n in range(4):
        for args in itertools.product(_ROW_ARGS, repeat=n):
            try:
                p = GSP4_TYPES[name].ctor(*args)
            except LfacError:
                continue
            assert evaluate_text(render.text(p)) == p


def test_valid_labels_still_build():
    for p in (supercuspidal("t.1", unr(a)), sc_irred4("u_2", unr(a)),
              sc_pair("l", "m.x", ram("eta")),
              type_VII("rho.1", unr(a), unr(b)), type_X("x", unr(b), unr(a)),
              type_XIa("A9", unr(a))):
        assert evaluate_text(render.text(p)) == p


def test_trivial_det_requirement():
    # an irred param under trivial-det takes no determinant argument
    assert GSP4_TYPES["XIa"].sig == "lc"
    p = type_XIa("l", unr(a))
    assert [b.part.base_det for b in p.rep.blocks if b.part.dim == 2] \
        == [Character.trivial()]
    with pytest.raises(TypeConstraintViolation):
        type_XIa("l", ram("eta"), unr(a))


def test_trivial_det_requirement_on_a_char_param(tmp_path):
    # a character is its own determinant
    f = tmp_path / "cat.txt"
    f.write_text("catalog-format 1\ntype T\nparams s:char\n"
                 "require trivial-det s\nblock s sp 1\nsimilitude s^2\n")
    shapes = load_catalog(f)
    p = evaluate_text("gsp4.T(unr(1))", catalog=shapes)
    assert (p.st_type, p.rep) == ("T", char_rep(unr(1), 1))
    with pytest.raises(TypeConstraintViolation) as ex:
        evaluate_text("gsp4.T(unr(a))", catalog=shapes)
    assert str(ex.value) == "shape T requires det(s) trivial"


# one row per not-absval line of the shipped file: the type, the condition,
# the arguments of the points on it (|.|^{K/2} and its mirror |.|^{-K/2})
# and of a generic point
NOT_ABSVAL_ROWS = [
    ("I", "chi1", 2, ["unr(v^-2), unr(b), unr(c)", "unr(v^2), unr(b), unr(c)"],
     "unr(a), unr(b), unr(c)"),
    ("I", "chi2", 2, ["unr(a), unr(v^-2), unr(c)", "unr(a), unr(v^2), unr(c)"],
     "unr(a), unr(b), unr(c)"),
    ("I", "chi1*chi2", 2, ["unr(a), unr(a^-1*v^-2), unr(c)",
                           "unr(a), unr(a^-1*v^2), unr(c)"],
     "unr(a), ram(eta, b), unr(c)"),
    ("I", "chi1/chi2", 2, ["unr(a), unr(a*v^2), unr(c)",
                           "unr(a), unr(a*v^-2), unr(c)"],
     "ram(eta, a), unr(b), unr(c)"),
    ("IIa", "chi^2", 2, ["unr(v^-1), unr(b)", "unr(v), unr(b)"],
     "unr(a), unr(b)"),
    ("IIa", "chi", 3, ["unr(v^-3), unr(b)", "unr(v^3), unr(b)"],
     "unr(a*v^-3), unr(b)"),
    ("IIIa", "chi1/chi2", 0, ["unr(a), unr(a)", "ram(eta, a), ram(eta, a)"],
     "unr(a), unr(b)"),
    ("IIIa", "chi1/chi2", 4, ["unr(a), unr(a*v^4)", "unr(a), unr(a*v^-4)"],
     "unr(a), unr(a*v^2)"),
    ("VII", "chi", 0, ["t1, unr(a), unr(1)"], "t1, unr(a), ram(eta, b)"),
    ("X", "det(rho)", 2, ["t1, unr(v^-2), unr(b)", "t1, unr(v^2), unr(b)"],
     "t1, unr(a), unr(b)"),
]


def test_not_absval_rows_cover_the_shipped_file():
    shipped = [(name, req) for name, shape in default_catalog().items()
               for req in shape.requires]
    rows = [(name, ("not-absval", text, k))
            for name, text, k, _, _ in NOT_ABSVAL_ROWS]
    # trivial-det, which the constructors cannot break, is tested above
    assert sorted(shipped) == sorted(rows + [("XIa", ("trivial-det", "rho"))])


def _library_args(name: str, text: str) -> list:
    # labels as the signature reads them, every other argument evaluated
    args = re.split(r",\s*(?![^()]*\))", text)  # commas outside calls
    return [arg if kind == "l" else evaluate_text(arg)
            for kind, arg in zip(GSP4_TYPES[name].sig, args)]


@pytest.mark.parametrize("name, cond, k, refused, generic", NOT_ABSVAL_ROWS,
                         ids=["%s-%s-%d" % row[:3] for row in NOT_ABSVAL_ROWS])
def test_not_absval_refuses_its_points(capsys, name, cond, k, refused,
                                       generic):
    told = ("nontrivial" if k == 0 else "away from |.|^{+-%s}"
            % (k // 2 if k % 2 == 0 else "%d/2" % k))
    message = "shape %s requires %s %s" % (name, cond, told)
    for args in refused:
        with pytest.raises(TypeConstraintViolation) as ex:
            gsp4_param(name, *_library_args(name, args))
        assert str(ex.value) == message
        assert main(["eval", "gsp4.%s(%s)" % (name, args)]) == 2
        assert capsys.readouterr() == ("", "error: %s\n" % message)
    text = "gsp4.%s(%s)" % (name, generic)
    p = gsp4_param(name, *_library_args(name, generic))
    assert render.text(p) == text and evaluate_text(text) == p
    assert main(["eval", text]) == 0
    assert capsys.readouterr().out == text + "\n"


def test_catalog_file_layers_over_the_shipped_types(tmp_path):
    f = tmp_path / "cat.txt"
    f.write_text("catalog-format 1\ntype IIa\nparams sigma:char\n"
                 "block sigma sp 3\nsimilitude sigma^2\n")
    shapes = load_catalog(f)
    assert set(shapes) == {"IIa"}
    p = gsp4_param("IIa", unr(a), catalog=shapes)
    assert p.rep == char_rep(unr(a), 3) and p.st_type == "IIa"
    # the types the file does not name are the shipped ones
    assert gsp4_param("I", unr(a), unr(b), unr(c), catalog=shapes) \
        == type_I(unr(a), unr(b), unr(c))
    assert gsp4_param("VIa", unr(a), catalog=shapes) == type_VIa(unr(a))


def test_shape_expressions_parse_once(monkeypatch):
    type_I(unr(a), unr(b), unr(c))
    parsed = []
    parser = dsl._Parser
    monkeypatch.setattr(dsl, "_Parser",
                        lambda text: parsed.append(text) or parser(text))
    assert type_I(unr(b), unr(c), unr(a)).st_type == "I"
    assert parsed == []


def test_file_rows_layer_over_the_shared_table(tmp_path, monkeypatch):
    f = tmp_path / "cat.txt"
    f.write_text("catalog-format 1\n"
                 "type T\nparams sigma:char\nblock sigma sp 2\n"
                 "similitude sigma^2\n"
                 "type IIa\nparams sigma:char\nblock sigma sp 3\n"
                 "similitude sigma^2\n")
    shapes = load_catalog(f)
    types = gsp4_types(shapes)
    assert all(types[n] is GSP4_TYPES[n] for n in GSP4_TYPES if n != "IIa")
    assert types["IIa"] is not GSP4_TYPES["IIa"]
    expected = types["T"].ctor(unr(a))
    assert evaluate_text("gsp4.T(unr(a))", catalog=shapes) == expected
    assert gsp4_param("T", unr(a), catalog=shapes) == expected
    assert gsp4_param("IIa", unr(b), catalog=shapes).rep == char_rep(unr(b), 3)
    rows, parsed = [], []
    shape_type, parser = cat._shape_type, dsl._Parser
    monkeypatch.setattr(cat, "_shape_type",
                        lambda shape: rows.append(shape) or shape_type(shape))
    monkeypatch.setattr(dsl, "_Parser",
                        lambda text: parsed.append(text) or parser(text))
    for _ in range(3):
        assert evaluate_text("gsp4.T(unr(a))", catalog=shapes) == expected
        assert gsp4_param("T", unr(a), catalog=shapes) == expected
        assert evaluate_text("gsp4.IIa(unr(b))", catalog=shapes).rep \
            == char_rep(unr(b), 3)
    # a row is asked for the file's own shapes only, and no shape
    # expression is parsed again: only the texts evaluate_text was given
    assert rows and all(shapes[s.name] is s for s in rows)
    assert parsed == ["gsp4.T(unr(a))", "gsp4.IIa(unr(b))"] * 3


def test_reducible_principal_series_names_both_flags(capsys):
    with pytest.raises(TypeConstraintViolation) as ex:
        principal_series(unr(a), unr(a * v ** 2))
    assert "reducible=True" in str(ex.value)
    assert main(["eval", "gl2.ps(unr(a), unr(a*v^2))"]) == 2
    err = capsys.readouterr().err
    assert "red as the third argument of gl2.ps" in err
    assert main(["eval", "gl2.ps(unr(a), unr(a*v^2), red)"]) == 0


# ------------------------------------------------------------------ pairing

def test_nov_lfactor_matches_tensor():
    pi = type_IIa(unr(a), unr(b))
    sigma = steinberg(unr(c))
    assert nov_lfactor(pi, sigma) == tensor_lfactor(pi.rep, sigma.rep)


def test_rs_lfactor():
    t1 = supercuspidal("l")
    ps = principal_series(unr(a), unr(b))
    st = steinberg(unr(c))
    assert str(rs_lfactor(ps, st)) \
        == "1/((1 - a*c*v^-1*X)(1 - b*c*v^-1*X))"
    assert rs_lfactor(t1, st) == 1
    assert rs_lfactor(t1, supercuspidal("m")) == 1
    with pytest.raises(UnsupportedPair):
        rs_lfactor(t1, supercuspidal("l"))


def test_substitute_threads_through():
    p = type_IIIa(unr(a), unr(b))
    q = p.substitute({"a": 2, "b": 3})
    assert q.similitude == unr(Scalar.from_rational(6))
    assert str(q.lfactor()) == "1/((1 - 2*v^-1*X)(1 - 3*v^-1*X))"


@pytest.mark.parametrize("values", [{"a": 3}, {"a": 2, "b": 5}],
                         ids=["a", "ab"])
@pytest.mark.parametrize("build", [
    # a theta field holding two GL(2) parameters
    lambda a, b: theta_lift(principal_series(unr(a), unr(b)),
                            supercuspidal("l", unr(a * b))),
    # an args tuple mixing a label with characters
    lambda a, b: type_X("l", unr(b), unr(a)),
    # an irreducible part with a selfdual_twist
    lambda a, b: sc_irred4("l4", unr(a)),
    # a reducible principal series, its orientation kept
    lambda a, b: principal_series(unr(a), unr(a * v ** 2), reducible=True),
], ids=["theta", "label-args", "selfdual-twist", "reducible"])
def test_substitute_equals_the_substituted_build(build, values):
    x = build(a, b)
    want = build(a.substitute(values), b.substitute(values))
    assert x.substitute(values) == want and want != x

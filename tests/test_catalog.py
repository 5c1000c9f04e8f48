import json

import pytest

from lfac.catalog import (GSP4_TYPES, Gl2Param, Gsp4Param, default_catalog,
                          free, from_catalog, gl2_param, gsp4_param,
                          gsp4_types, load_catalog,
                          nov_lfactor, principal_series, rs_lfactor,
                          sc_irred4, sc_pair, steinberg, supercuspidal,
                          theta_lift, type_I, type_IIa, type_IIIa, type_IVa,
                          type_IXa, type_VIa, type_VII, type_VIIIa, type_Va,
                          type_X, type_XIa)
from lfac.chars import Character
from lfac.cli import main
from lfac.errors import (CatalogFormatError, CentralCharacterMismatch,
                         SimilitudeViolation, TypeConstraintViolation,
                         UnsupportedPair)
from lfac.scalar import Scalar
from lfac.wdrep import IrredPart, char_rep, lfactor, tensor_lfactor

a = Scalar.symbol("a")
b = Scalar.symbol("b")
c = Scalar.symbol("c")
unr = Character.unramified
ram = Character.ramified
absval = Character.absval


# ------------------------------------------------------------------- GL(2)

def test_principal_series():
    p = principal_series(unr(a), unr(b))
    assert p.kind == "principal-series" and p.reducible is None
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
    assert p.kind == "steinberg-twist"
    assert p.central == unr(a) ** 2
    assert str(p.lfactor()) == "1/(1 - a*v^-1*X)"
    assert p.rep.blocks[0].n == 1
    assert steinberg().central.is_trivial


def test_supercuspidal():
    p = supercuspidal("l", det=unr(a))
    assert p.kind == "supercuspidal"
    assert p.central == unr(a)
    assert p.lfactor() == 1
    assert p.rep.dim == 2


def test_gl2_dispatch():
    assert gl2_param("st", unr(a)) == steinberg(unr(a))
    assert gl2_param("principal-series", unr(a), unr(b)) \
        == principal_series(unr(a), unr(b))
    with pytest.raises(TypeConstraintViolation):
        gl2_param("borel", unr(a))


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
    assert lift.st_type == "FREE" and lift.theta == (tau1, tau2)
    assert lift.similitude == tau1.central
    assert lift.rep == tau1.rep + tau2.rep


# -------------------------------------------------------------- data file

def test_default_catalog_shapes():
    shapes = default_catalog()
    assert set(shapes) == {"IIa", "Va", "VIa", "X", "XIa"}
    assert shapes["X"].params == (("rho", "irred"), ("sigma", "char"))
    assert shapes["XIa"].requires == (("trivial-det", "rho"),)


def test_load_catalog_roundtrip(tmp_path):
    f = tmp_path / "cat.txt"
    f.write_text("catalog-format 1\n"
                 "type T  # a comment\n"
                 "params sigma:char\n"
                 "block sigma sp 2\n"
                 "similitude sigma^2\n")
    shapes = load_catalog(f)
    p = from_catalog("T", {"sigma": unr(a)}, catalog=shapes)
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
    pytest.param("catalog-format 1\ntype I\n",
                 ":2: type I is already declared", id="coded-type-I"),
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
], ids=["block-syntax", "similitude-eval"])
def test_expression_errors_name_type_and_text(tmp_path, capsys, body, message):
    f = tmp_path / "cat.txt"
    f.write_text("catalog-format 1\ntype Z\nparams sigma:char\n" + body + "\n")
    shapes = load_catalog(f)  # expressions are read on instantiation
    with pytest.raises(CatalogFormatError) as ex:
        from_catalog("Z", {"sigma": unr(a)}, shapes)
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
    data_file = {"IIa", "Va", "VIa", "X", "XIa"}
    assert set(types) == set(GSP4_TYPES) - data_file | {"T", "Y", "Z"}
    assert [GSP4_TYPES[n].sig for n in sorted(data_file)] \
        == ["cc", "c", "c", "lcc", "lc"]
    assert [types[n].sig for n in "TYZ"] == ["c", "lcc", "cl"]
    p = gsp4_param("Z", unr(a), "l", catalog=shapes)
    assert p == from_catalog("Z", {"sigma": unr(a), "rho": IrredPart(2, "l")},
                             shapes, (unr(a), "l"))
    assert (p.st_type, p.entry) == ("Z", "Z")
    assert gsp4_param("Y", "l", unr(b), unr(a), catalog=shapes).rep \
        == type_X("l", unr(b), unr(a)).rep
    with pytest.raises(TypeConstraintViolation):
        gsp4_param("IIa", unr(a), unr(b), catalog=shapes)
    with pytest.raises(TypeConstraintViolation):
        types["Y"].ctor("l", unr(a))
    with pytest.raises(TypeConstraintViolation):
        type_X("l", unr(a))


def test_from_catalog_binding_errors():
    with pytest.raises(TypeConstraintViolation):
        from_catalog("nope", {})
    with pytest.raises(TypeConstraintViolation):
        from_catalog("VIa", {"tau": unr(a)})
    with pytest.raises(TypeConstraintViolation):
        from_catalog("VIa", {"sigma": a})  # a scalar is not a character
    with pytest.raises(TypeConstraintViolation):
        from_catalog("X", {"rho": unr(a), "sigma": unr(b)})


def test_trivial_det_requirement():
    from lfac.wdrep import IrredPart
    rho = IrredPart(2, "l", base_det=ram("eta"))
    with pytest.raises(TypeConstraintViolation):
        from_catalog("XIa", {"rho": rho, "sigma": unr(a)})


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

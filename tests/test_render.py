import json
import pathlib
import random

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from lfac.catalog import (GSP4_TYPES, Gsp4Param, free, gsp4_types,
                          load_catalog, principal_series, sc_irred4, sc_pair,
                          steinberg, supercuspidal, theta_lift, type_IIIa,
                          type_VIa, type_X)
from lfac.chars import Character
from lfac.dsl import _SIMPLE, evaluate_text
from lfac.errors import LfacValueError, TypeConstraintViolation
from lfac.poles import exceptional_poles, ideals_JK, subregular_poles
from lfac.render import SCHEMA, text, to_json, unicodize
from lfac.scalar import Scalar
from lfac.splitrat import SplitRational, ideal_generator
from lfac.verify import _matched_gl2_pair, random_gl2, random_pairing
from lfac.wdrep import WDRep, char_rep

a = Scalar.symbol("a")
b = Scalar.symbol("b")
unr = Character.unramified


def test_text_forms():
    assert text(a ** 2 / 2) == "1/2*a^2"
    assert text(unr(a * b)) == "unr(a*b)"
    assert text(char_rep(unr(a))) == "unr(a) x sp(0)"
    assert text(type_VIa(unr(a))) == "gsp4.VIa(unr(a))"
    assert text(type_X("l", unr(b), unr(a))) == "gsp4.X(l, unr(b), unr(a))"
    assert text(sc_pair("l", "m", unr(a))) == "gsp4.scpair(l, m, unr(a))"
    assert text(sc_irred4("l", unr(a))) == "gsp4.sc4(l, unr(a))"
    assert text(steinberg(unr(a))) == "gl2.st(unr(a))"
    assert text(supercuspidal("l")) == "gl2.sc(l)"


def test_text_theta_and_free():
    lift = theta_lift(steinberg(unr(a)), steinberg(unr(-a)))
    assert text(lift) == "theta(gl2.st(unr(a)), gl2.st(unr(-a)))"
    p = type_VIa(unr(a))
    assert text(free(p.rep, p.similitude)) \
        == "gsp4.free(unr(a) x sp(1) + unr(a) x sp(1), unr(a^2))"


def test_catalog_type_without_args_has_no_text():
    # a record built directly names no constructor call to print
    p = type_VIa(unr(a))
    bare = Gsp4Param(p.rep, p.similitude, "VIa")
    for render in (text, to_json):
        with pytest.raises(LfacValueError):
            render(bare)
    assert evaluate_text(text(p)) == p


def test_empty_rep_has_no_text():
    for render in (text, to_json):
        with pytest.raises(LfacValueError):
            render(WDRep())


@pytest.mark.parametrize("value", [
    Scalar.from_rational(2 ** 20000), a ** (10 ** 5000),
    unr(a) ** (10 ** 5000), SplitRational(xpower=10 ** 5000)],
    ids=["coefficient", "exponent", "character", "xpower"])
def test_unprintable_integers_are_value_errors(value):
    for render in (text, to_json):
        with pytest.raises(LfacValueError):
            render(value)


def test_text_reducible_orientation():
    sub = principal_series(unr(a), unr(a) * Character.absval(1),
                           reducible=True)
    assert text(sub) == "gl2.ps(unr(a), unr(a*v^-2), red)"
    quot = principal_series(unr(a) * Character.absval(1), unr(a),
                            reducible=True)
    assert evaluate_text(text(quot)).reducible == "quot"


def test_text_polereport():
    report = subregular_poles(type_VIa(unr(a)))
    assert text(report) == ("polereport(entry(a*v^-1, sub2, "
                            "unr(a) x sp(1) + unr(a) x sp(1), "
                            "bessel(unr(a), unr(a))))")


def test_roundtrip_samples():
    values = [a ** 2 - b, SplitRational(factors=((a, -2), (b, 1))),
              unr(a) * Character.ramified("eta"),
              char_rep(unr(a), 2) + char_rep(unr(b)),
              type_IIIa(unr(a), unr(b)), steinberg(unr(b)),
              subregular_poles(type_VIa(unr(a)))]
    for value in values:
        assert evaluate_text(text(value)) == value


satakes = st.builds(lambda s, e, k: Scalar.symbol(s) ** e * Scalar.v_power(k),
                    st.sampled_from("ab"), st.sampled_from([1, 2, -1]),
                    st.integers(-3, 3))
chars = st.one_of(st.builds(unr, satakes),
                  st.builds(Character.ramified, st.sampled_from(["eta", "xi"]),
                            satakes))


@st.composite
def registry_params(draw, name, types=GSP4_TYPES):
    t = types[name]
    if name == "free":
        # chi x sp(1) + mu + chi^2/mu is dual-twist closed for chi^2
        chi, mu = draw(chars), draw(chars)
        rep = (char_rep(chi, 1) + char_rep(mu)
               + char_rep(chi ** 2 * mu.inverse()))
        return free(rep, chi ** 2)
    keep = len(t.sig) - draw(st.integers(0, t.optional))
    args = [draw(st.sampled_from(["l", "m", "t1"])) if k == "l"
            else draw(chars) for k in t.sig[:keep]]
    try:
        return t.ctor(*args)
    except TypeConstraintViolation:
        reject()


def _assert_roundtrip(p, st_type):
    back = evaluate_text(text(p))
    assert back == p
    assert to_json(back)["type"] == to_json(p)["type"] == st_type


@pytest.mark.parametrize("name", sorted(GSP4_TYPES))
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_registry_types_roundtrip(name, data):
    p = data.draw(registry_params(name))
    _assert_roundtrip(p, p.st_type)
    q = p.substitute({"a": 3})
    assert q.st_type == p.st_type
    try:
        _assert_roundtrip(q, p.st_type)
    except TypeConstraintViolation:
        # a substitution may land on a type's own excluded values
        reject()


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_catalog_file_types_roundtrip(three_shape_catalog, data):
    # the file's types replace the data-file ones; the coded ones stay
    shapes = load_catalog(three_shape_catalog)
    types = gsp4_types(shapes)
    p = data.draw(registry_params(data.draw(st.sampled_from(sorted(types))),
                                  types))
    assert evaluate_text(text(p), catalog=shapes) == p


def _gl2_roundtrip(p, family):
    back = evaluate_text(text(p))
    assert back == p and back.reducible == p.reducible
    assert text(back) == text(p)
    assert to_json(p)["family"] == family
    # a = 1 may make a character trivial or reorder the blocks; the
    # substituted parameter is rebuilt by its constructor, so it still
    # reads back equal, or it is refused as a newly reducible gl2.ps
    try:
        q = p.substitute({"a": 1})
    except TypeConstraintViolation:
        assert p.entry == "gl2.ps" and p.reducible is None
        return
    assert evaluate_text(text(q)) == q and q.reducible == p.reducible


@settings(max_examples=60, deadline=None)
@given(chi=chars, mu=chars, ratio=st.sampled_from([None, 1, -1]))
def test_gl2_ps_prints_as_its_call(chi, mu, ratio):
    # ratio 1 or -1 makes mu = chi |.|^ratio, a reducible principal series
    if ratio is not None:
        mu = chi * Character.absval(ratio)
    p = principal_series(chi, mu, reducible=True)
    q = principal_series(mu, chi, reducible=True)
    for x in (p, q):
        _gl2_roundtrip(x, "principal-series")
    if p.reducible is None:
        # both orders are one value, printed in block order
        assert p == q and text(p) == text(q) and q.reducible is None
        assert text(p) == "gl2.ps(%s, %s)" % tuple(
            b.part for b in p.rep.blocks)
    else:
        # the order tells the 1-dimensional sub from the quotient
        assert {p.reducible, q.reducible} == {"sub", "quot"}
        assert text(p) == "gl2.ps(%s, %s, red)" % (chi, mu)
        assert text(q) == "gl2.ps(%s, %s, red)" % (mu, chi)


@settings(max_examples=30, deadline=None)
@given(chi=st.one_of(st.just(Character.trivial()), chars),
       det=st.one_of(st.just(Character.trivial()), chars),
       label=st.sampled_from(["l", "t1", "rho.2"]))
def test_gl2_st_and_sc_print_as_their_call(chi, det, label):
    st_, sc = steinberg(chi), supercuspidal(label, det)
    _gl2_roundtrip(st_, "steinberg-twist")
    _gl2_roundtrip(sc, "supercuspidal")
    assert text(st_) == ("gl2.st()" if chi.is_trivial else "gl2.st(%s)" % chi)
    assert text(sc) == ("gl2.sc(%s)" % label if det.is_trivial
                        else "gl2.sc(%s, %s)" % (label, det))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_generated_values_roundtrip(seed):
    # the FREE parameters, GL(2) parameters and theta lifts the verify
    # suites draw, and the pole reports of the drawn pairings
    pi, sigma = random_pairing(seed)
    rng = random.Random(seed)
    syms = ["a", "b", "c", "d"]
    lift = theta_lift(*_matched_gl2_pair(rng, syms))
    for value in (pi, sigma, random_gl2(rng, syms), lift,
                  exceptional_poles(pi, sigma), subregular_poles(pi),
                  subregular_poles(lift)):
        assert evaluate_text(text(value)) == value


def test_docs_list_every_registry_type():
    # every DSL function, the gsp4.* registry types among them
    doc = (pathlib.Path(__file__).parents[1] / "docs" / "expressions.md") \
        .read_text(encoding="utf-8")
    assert {"gsp4." + name for name in GSP4_TYPES} <= set(_SIMPLE)
    for name in _SIMPLE:
        assert "`%s(" % name in doc, name


def test_unicodize_is_display_only():
    assert unicodize("1/((1 - a*v^-2*X)(1 - a^3*X)) x sp(2)") \
        == "1/((1 - a·v⁻²·X)(1 - a³·X)) ⊗ sp(2)"


def test_json_shapes():
    blob = to_json(type_VIa(unr(a)))
    assert blob["kind"] == "gsp4" and blob["type"] == "VIa"
    assert blob["similitude"] == "unr(a^2)"
    assert blob["rep"]["dim"] == 4
    assert [b["sp"] for b in blob["rep"]["blocks"]] == [1, 1]
    assert json.dumps(blob)  # serializable as is


def test_json_polereport():
    blob = to_json(subregular_poles(type_VIa(unr(a))))
    assert blob["kind"] == "polereport"
    entry = blob["entries"][0]
    assert entry["classification"] == "subregular-case2"
    assert entry["root"] == "a*v^-1"
    assert entry["bessel"] == ["unr(a)", "unr(a)"]


def test_json_ideal():
    _, k = ideals_JK(type_VIa(unr(a)))
    gen = ideal_generator([k])
    blob = to_json(gen)
    assert blob == {"kind": "ideal", "generator": "(1 - a*v^-1*X)",
                    "lfactor": False, "units": False}
    assert text(gen) == "(1 - a*v^-1*X)"


def test_schema_tag():
    assert SCHEMA == "lfac-1"


def test_unrenderable():
    with pytest.raises(TypeError):
        text(object())

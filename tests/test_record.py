"""The value records keep the behaviour of the frozen dataclasses they
replaced: field order, repr, equality within one class, the hash of the
field tuple, refusal of assignment, replace() and __post_init__ checks;
and each substitutes symbol values through the one Record.substitute."""

import typing

import pytest

from lfac.catalog import (CatalogShape, Gl2Param, Gsp4Param, Gsp4Type,
                          default_catalog, gsp4_types, steinberg, type_VIa)
from lfac.chars import Character
from lfac.errors import LfacValueError
from lfac.poles import (NovSplit, PoleEntry, PoleReport, PsSplit,
                        exceptional_poles, nov_split, ps_split)
from lfac.record import Record
from lfac.scalar import Scalar
from lfac.splitrat import IdealGen, ideal_generator
from lfac.verify import CheckReport, Failure, TrialProfile
from lfac.wdrep import SP_MAX, Block, IrredPart

unr = Character.unramified(Scalar.symbol("a"))
VIA, ST = type_VIa(unr), steinberg()

# every former dataclass with its fields in declaration order, and a value
FIELDS = {
    IrredPart: ("dim", "label", "starred", "twist", "base_det",
                "selfdual_twist"),
    Block: ("part", "n"),
    Gl2Param: ("rep", "central", "entry", "args", "reducible"),
    Gsp4Param: ("rep", "similitude", "st_type", "entry", "args"),
    CatalogShape: ("name", "params", "requires", "blocks", "similitude"),
    Gsp4Type: ("name", "ctor", "sig", "optional"),
    PoleEntry: ("root", "classification", "witnesses", "bessel"),
    PoleReport: ("entries",),
    NovSplit: ("full", "regular", "exceptional", "report"),
    PsSplit: ("full", "exceptional", "subregular", "kirillov", "report"),
    IdealGen: ("generator",),
    TrialProfile: ("seed", "block_budget", "max_sp", "symbol_pool",
                   "allow_irred"),
    Failure: ("trial", "seed", "detail"),
    CheckReport: ("suite", "trials", "failures"),
}


def _examples():
    report = exceptional_poles(VIA, ST)
    return {
        IrredPart: IrredPart(2, "t1", base_det=unr),
        Block: Block(unr, 1),
        Gl2Param: ST,
        Gsp4Param: VIA,
        CatalogShape: default_catalog()["VIa"],
        Gsp4Type: gsp4_types(default_catalog())["IVa"],
        PoleEntry: report.entries[0],
        PoleReport: report,
        NovSplit: nov_split(VIA, ST),
        PsSplit: ps_split(VIA),
        IdealGen: ideal_generator([VIA.lfactor(), ST.lfactor()]),
        TrialProfile: TrialProfile(3, max_sp=2),
        Failure: Failure(1, 7, "routes disagree"),
        CheckReport: CheckReport("lemma71", 2, [Failure(1, 7, "x")]),
    }


EXAMPLES = _examples()
CLASSES = list(FIELDS)


def test_every_record_is_listed():
    assert len(CLASSES) == 14
    assert all(issubclass(cls, Record) for cls in CLASSES)
    assert all(type(EXAMPLES[cls]) is cls for cls in CLASSES)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_fields_repr_eq(cls):
    x = EXAMPLES[cls]
    values = tuple(getattr(x, f) for f in FIELDS[cls])
    assert cls._fields == FIELDS[cls]
    assert repr(x) == "%s(%s)" % (cls.__name__, ", ".join(
        "%s=%r" % (f, val) for f, val in zip(FIELDS[cls], values)))
    # rebuilt by position and by keyword: equal, not the same object
    for y in (cls(*values), cls(**dict(zip(FIELDS[cls], values)))):
        assert y == x and y is not x and not y != x
    # equality holds within one class only
    assert x != values and x.__eq__(values) is NotImplemented
    assert x != object()


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_annotations_resolve(cls):
    # every field annotation names a type its module imports
    assert set(FIELDS[cls]) <= set(typing.get_type_hints(cls))


def test_repr_examples():
    assert repr(EXAMPLES[Block]) == \
        "Block(part=Character(unr(a)), n=1)"
    assert repr(TrialProfile(3)) == ("TrialProfile(seed=3, block_budget=4, "
                                     "max_sp=3, symbol_pool=4, "
                                     "allow_irred=False)")


@pytest.mark.parametrize("cls", [c for c in CLASSES if c is not CheckReport],
                         ids=lambda c: c.__name__)
def test_frozen_hash_and_assignment(cls):
    x = EXAMPLES[cls]
    assert hash(x) == hash(tuple(getattr(x, f) for f in FIELDS[cls]))
    name = FIELDS[cls][0]
    with pytest.raises(AttributeError, match="cannot assign to field"):
        setattr(x, name, None)
    with pytest.raises(AttributeError, match="cannot delete field"):
        delattr(x, name)
    with pytest.raises(AttributeError):
        x.extra = 1
    assert getattr(x, name) is not None


def test_check_report_is_mutable_and_unhashable():
    r = CheckReport("soudry")
    assert r.trials == 0 and r.failures == []
    assert CheckReport("soudry").failures is not r.failures  # a new list each
    r.trials = 3
    r.record(1, 9, "x")
    assert r == CheckReport("soudry", 3, [Failure(1, 9, "x")])
    assert not r.passed
    with pytest.raises(TypeError):
        hash(r)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_replace(cls):
    x = EXAMPLES[cls]
    # the last field, but Block's n is checked by __post_init__
    name = "part" if cls is Block else FIELDS[cls][-1]
    other = [f for f in FIELDS[cls] if f != name]
    marker = object()
    y = x.replace(**{name: marker})
    assert type(y) is cls and getattr(y, name) is marker
    assert all(getattr(y, f) is getattr(x, f) for f in other)
    assert x.replace() == x
    with pytest.raises(TypeError, match="no field 'nope'"):
        x.replace(nope=1)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_substitute(cls):
    # a field that substitutes is substituted, a tuple item by item, and
    # any other field is kept as the same object
    x = EXAMPLES[cls]
    y = x.substitute({"a": 3})
    assert type(y) is cls
    for f in FIELDS[cls]:
        old, new = getattr(x, f), getattr(y, f)
        if hasattr(old, "substitute"):
            assert new == old.substitute({"a": 3})
        elif isinstance(old, tuple):
            assert len(new) == len(old)
        else:
            assert new is old
    assert EXAMPLES[Block].substitute({"a": 3}) \
        == Block(Character.unramified(Scalar.from_rational(3)), 1)


def test_construction_errors():
    with pytest.raises(TypeError, match="missing argument 'detail'"):
        Failure(1, 2)
    with pytest.raises(TypeError):
        Block(unr)
    with pytest.raises(TypeError):
        Failure(1, 2, "x", 4)
    with pytest.raises(TypeError, match="unexpected or repeated"):
        Failure(1, 2, detail="x", trial=1)
    with pytest.raises(TypeError, match="unexpected or repeated"):
        TrialProfile(1, budget=2)
    # defaults fill the trailing fields, by position or around a keyword
    assert TrialProfile(1, 4, 3) == TrialProfile(1) \
        == TrialProfile(seed=1, allow_irred=False)


def test_post_init_checks():
    b = EXAMPLES[Block]
    with pytest.raises(LfacValueError, match="sp index must be at most"):
        Block(b.part, SP_MAX + 1)
    with pytest.raises(LfacValueError, match="sp index must be >= 0"):
        b.replace(n=-1)
    with pytest.raises(LfacValueError, match="dimension >= 2"):
        EXAMPLES[IrredPart].replace(dim=1)
    with pytest.raises(LfacValueError, match="dimension >= 2"):
        IrredPart(dim=1, label="t")

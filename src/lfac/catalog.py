"""Local parameter catalog for GL(2) and GSp(4), and the pairing L-factors.

GL(2) parameters come in three kinds (principal series, Steinberg twist,
supercuspidal).  GSp(4) parameters carry their block representation, a
similitude character chi with rep^vee (x) chi = rep, and a type tag.  The
shapes this package states itself (I, IIIa, IVa, VII, VIIIa, IXa, the two
supercuspidal shapes) are coded below; types IIa, Va, VIa, X and XIa are
generated at import from the params lines of the transcribed data file
data/catalog_types.txt, and gsp4_types does the same for another file.

nov_lfactor is the pairing factor computed on the parameter side; for a
principal-series sigma it automatically agrees with the product over the two
inducing characters, and for theta lifts with the product of the two GL(2)
pairing factors (those agreements are what the verify module rechecks).
"""

from __future__ import annotations

import os
import re

from .chars import Character
from .errors import (CatalogFormatError, CentralCharacterMismatch,
                     LfacEvalError, LfacSyntaxError, LfacValueError,
                     SimilitudeViolation, TypeConstraintViolation,
                     UnsupportedPair, UnsupportedTensor)
from .record import Record
from .scalar import Scalar
from .splitrat import SplitRational
from .wdrep import (Block, CharPart, IrredPart, WDRep, lfactor, char_rep,
                    check_sp_index, similitude_check, tensor_lfactor)

__all__ = ["Gl2Param", "Gsp4Param", "Gsp4Type", "GSP4_TYPES", "gl2_param",
           "gsp4_param", "gsp4_types", "theta_lift", "nov_lfactor", "rs_lfactor",
           "load_catalog", "default_catalog", "principal_series", "steinberg",
           "supercuspidal"]

_TRIV = Character.trivial()


# --------------------------------------------------------------------- GL(2)

class Gl2Param(Record):
    rep: WDRep
    central: Character
    kind: str                     # principal-series | steinberg-twist | supercuspidal
    reducible: str | None = None  # None | "sub" | "quot" (1-dim sub/quotient)

    def lfactor(self) -> SplitRational:
        return lfactor(self.rep)

    def substitute(self, values) -> "Gl2Param":
        return Gl2Param(self.rep.substitute(values),
                        self.central.substitute(values),
                        self.kind, self.reducible)


def _is_absval_square(chi: Character, k: int) -> bool:
    # chi == |.|^{k/2} as characters, i.e. unramified with value v^{-k}
    return chi.is_unramified and chi.satake == Scalar.v_power(-k)


def principal_series(chi1: Character, chi2: Character,
                     reducible: bool = False) -> Gl2Param:
    """i(chi1, chi2); the ratio chi1/chi2 = |.|^{+-1} cases are reducible and
    need the explicit flag, which records which constituent is 1-dimensional
    ("sub" when the ratio is |.|^{-1}, "quot" when it is |.|)."""
    ratio = chi1 * chi2.inverse()
    tag = None
    if _is_absval_square(ratio, -2):
        tag = "sub"
    elif _is_absval_square(ratio, 2):
        tag = "quot"
    if tag and not reducible:
        raise TypeConstraintViolation(
            "principal series with ratio |.|^{+-1} is reducible; pass "
            "reducible=True to construct it anyway")
    return Gl2Param(char_rep(chi1) + char_rep(chi2), chi1 * chi2,
                    "principal-series", tag)


def steinberg(chi: Character = _TRIV) -> Gl2Param:
    """chi St, the twisted Steinberg; plain St for trivial chi."""
    return Gl2Param(char_rep(chi, 1), chi ** 2, "steinberg-twist")


def supercuspidal(label: str, det: Character = _TRIV) -> Gl2Param:
    part = IrredPart(2, label, base_det=det)
    return Gl2Param(WDRep([Block(part, 0)]), det, "supercuspidal")


_GL2 = {"ps": principal_series, "principal-series": principal_series,
        "st": steinberg, "steinberg-twist": steinberg,
        "sc": supercuspidal, "supercuspidal": supercuspidal}


def gl2_param(kind: str, *args, **kwargs) -> Gl2Param:
    if kind not in _GL2:
        raise TypeConstraintViolation("unknown GL(2) kind %r" % kind)
    return _GL2[kind](*args, **kwargs)


# -------------------------------------------------------------------- GSp(4)

class Gsp4Param(Record):
    rep: WDRep
    similitude: Character
    st_type: str                                  # catalog type tag or FREE
    theta: tuple[Gl2Param, Gl2Param] | None = None
    args: tuple | None = None                     # constructor data, for rendering
    entry: str | None = None                      # GSP4_TYPES name that built args

    def lfactor(self) -> SplitRational:
        return lfactor(self.rep)

    def substitute(self, values) -> "Gsp4Param":
        th = self.theta
        return Gsp4Param(self.rep.substitute(values),
                         self.similitude.substitute(values), self.st_type,
                         (th[0].substitute(values), th[1].substitute(values))
                         if th else None,
                         None if self.args is None else tuple(
                             a if isinstance(a, str) else a.substitute(values)
                             for a in self.args),
                         self.entry)


def _make(rep: WDRep, sim: Character, st_type: str, args=None, theta=None,
          entry=None) -> Gsp4Param:
    # the registry name defaults to the type tag; only SC has two entries
    if not similitude_check(rep, sim):
        raise SimilitudeViolation(
            "declared similitude %s fails the dual-twist check" % sim)
    return Gsp4Param(rep, sim, st_type, theta, args,
                     None if args is None else entry or st_type)


def free(rep: WDRep, similitude: Character) -> Gsp4Param:
    return _make(rep, similitude, "FREE")


def type_I(chi1: Character, chi2: Character, sigma: Character) -> Gsp4Param:
    """Irreducible Borel-induced type: four lines closed under dual-twist."""
    for c in (chi1, chi2, chi1 * chi2, chi1 * chi2.inverse()):
        if _is_absval_square(c, 2) or _is_absval_square(c, -2):
            raise TypeConstraintViolation(
                "type I needs chi1, chi2, chi1*chi2, chi1/chi2 away from |.|^{+-1}")
    rep = (char_rep(sigma) + char_rep(sigma * chi1) + char_rep(sigma * chi2)
           + char_rep(sigma * chi1 * chi2))
    return _make(rep, sigma ** 2 * chi1 * chi2, "I", (chi1, chi2, sigma))


def type_IIIa(chi1: Character, chi2: Character) -> Gsp4Param:
    """Two Steinberg blocks with distinct characters; similitude their product."""
    if chi1 == chi2:
        raise TypeConstraintViolation("type IIIa needs distinct block characters")
    ratio = chi1 * chi2.inverse()
    if _is_absval_square(ratio, 4) or _is_absval_square(ratio, -4):
        raise TypeConstraintViolation(
            "type IIIa needs the block-character ratio away from |.|^{+-2}")
    rep = char_rep(chi1, 1) + char_rep(chi2, 1)
    return _make(rep, chi1 * chi2, "IIIa", (chi1, chi2))


def type_IVa(chi: Character) -> Gsp4Param:
    """Steinberg type: a single (character) x sp(3) block, similitude chi^2."""
    return _make(char_rep(chi, 3), chi ** 2, "IVa", (chi,))


def type_VII(label: str, det: Character, chi: Character) -> Gsp4Param:
    if chi.is_trivial:
        raise TypeConstraintViolation("type VII needs a nontrivial twist "
                                      "(the trivial one is type VIIIa)")
    rho = IrredPart(2, label, base_det=det)
    rep = WDRep([Block(rho, 0), Block(rho.twisted(chi), 0)])
    return _make(rep, chi * det, "VII", (label, det, chi))


def type_VIIIa(label: str, det: Character) -> Gsp4Param:
    rho = IrredPart(2, label, base_det=det)
    rep = WDRep([Block(rho, 0), Block(rho, 0)])
    return _make(rep, det, "VIIIa", (label, det))


def type_IXa(label: str, det: Character) -> Gsp4Param:
    rho = IrredPart(2, label, base_det=det)
    return _make(WDRep([Block(rho, 1)]), det, "IXa", (label, det))


def sc_irred4(label: str, similitude: Character = _TRIV) -> Gsp4Param:
    """Supercuspidal with an irreducible 4-dimensional parameter; the declared
    similitude is recorded as self-duality data (det = similitude^2)."""
    part = IrredPart(4, label, base_det=similitude ** 2,
                     selfdual_twist=similitude.inverse())
    return _make(WDRep([Block(part, 0)]), similitude, "SC", (label, similitude),
                 entry="sc4")


def sc_pair(label1: str, label2: str, det: Character = _TRIV) -> Gsp4Param:
    """Supercuspidal with parameter a sum of two distinct 2-dimensional
    irreducibles sharing a determinant; similitude is that determinant."""
    if label1 == label2:
        raise TypeConstraintViolation("supercuspidal pair needs distinct labels")
    rep = WDRep([Block(IrredPart(2, label1, base_det=det), 0),
                 Block(IrredPart(2, label2, base_det=det), 0)])
    return _make(rep, det, "SC", (label1, label2, det), entry="scpair")


def theta_lift(tau1: Gl2Param, tau2: Gl2Param) -> Gsp4Param:
    """Parameter of the lift of a pair with equal central characters: the sum
    of the two GL(2) parameters, similitude the common central character."""
    if tau1.central != tau2.central:
        raise CentralCharacterMismatch(
            "central characters differ: %s vs %s" % (tau1.central, tau2.central))
    return _make(tau1.rep + tau2.rep, tau1.central, "FREE",
                 theta=(tau1, tau2))


# ------------------------------------------------------- transcribed catalog

class CatalogShape(Record):
    name: str
    params: tuple[tuple[str, str], ...]       # (param name, "char" | "irred")
    requires: tuple[tuple[str, str], ...]     # (constraint, param name)
    blocks: tuple[tuple[str, int], ...]       # (part expression text, n)
    similitude: str


# the shipped catalog, read next to this module rather than through
# importlib.resources, which would load pathlib, zipfile and tempfile
_BUILTIN_CATALOG = os.path.join(os.path.dirname(__file__), "data",
                                "catalog_types.txt")
_PARAM_RE = re.compile(r"\A([A-Za-z_][A-Za-z0-9_]*):(char|irred)\Z")
_TYPE_RE = re.compile(r"\A[A-Za-z0-9_]+\Z")   # what gsp4.NAME can spell


def load_catalog(path=None) -> dict[str, CatalogShape]:
    """Parse a catalog data file; default is the one shipped with the package."""
    if path is None:
        with open(_BUILTIN_CATALOG, encoding="utf-8") as fh:
            text = fh.read()
        where = "<builtin catalog>"
    else:
        where = str(path)
        try:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        except UnicodeDecodeError as e:
            raise CatalogFormatError("%s: not UTF-8 text (byte %d)"
                                     % (where, e.start)) from None

    lines = text.splitlines()
    if not lines or lines[0].strip() != "catalog-format 1":
        raise CatalogFormatError("%s: missing 'catalog-format 1' header" % where)

    shapes: dict[str, CatalogShape] = {}
    cur: dict | None = None

    def close():
        if cur is None:
            return
        if cur["sim"] is None or not cur["blocks"]:
            raise CatalogFormatError("%s: type %s needs blocks and a similitude"
                                     % (where, cur["name"]))
        shapes[cur["name"]] = CatalogShape(
            cur["name"], tuple(cur["params"]), tuple(cur["requires"]),
            tuple(cur["blocks"]), cur["sim"])

    for no, raw in enumerate(lines[1:], start=2):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        word, _, rest = line.partition(" ")
        rest = rest.strip()
        if word == "type":
            close()
            if not _TYPE_RE.match(rest):
                raise CatalogFormatError("%s:%d: type name %r is not a "
                                         "gsp4.NAME name" % (where, no, rest))
            if rest in _CODED or rest in shapes:
                raise CatalogFormatError("%s:%d: type %s is already declared"
                                         % (where, no, rest))
            cur = {"name": rest, "params": [], "requires": [], "blocks": [],
                   "sim": None}
            continue
        if cur is None:
            raise CatalogFormatError("%s:%d: content before first type" % (where, no))
        if word == "params":
            for tok in rest.split():
                m = _PARAM_RE.match(tok)
                if not m:
                    raise CatalogFormatError("%s:%d: bad param %r" % (where, no, tok))
                if m.group(1) in dict(cur["params"]):
                    raise CatalogFormatError("%s:%d: param %s declared twice"
                                             % (where, no, m.group(1)))
                cur["params"].append((m.group(1), m.group(2)))
        elif word == "require":
            kind, _, pname = rest.partition(" ")
            pname = pname.strip()
            if kind != "trivial-det" or not pname:
                raise CatalogFormatError("%s:%d: unknown requirement %r"
                                         % (where, no, rest))
            if pname not in dict(cur["params"]):
                raise CatalogFormatError("%s:%d: require names undeclared "
                                         "param %r" % (where, no, pname))
            cur["requires"].append((kind, pname))
        elif word == "block":
            m = re.match(r"\A(.*)\bsp\s+(\d+)\Z", rest)
            if not m:
                raise CatalogFormatError("%s:%d: block needs 'sp N'" % (where, no))
            try:
                n = int(m.group(2))
            except ValueError:  # past the interpreter's limit on integer digits
                raise CatalogFormatError("%s:%d: sp index of %d digits is too "
                                         "long" % (where, no, len(m.group(2)))) from None
            try:
                check_sp_index(n)
            except LfacValueError as e:
                raise CatalogFormatError("%s:%d: %s" % (where, no, e)) from None
            cur["blocks"].append((m.group(1).strip(), n))
        elif word == "similitude":
            if cur["sim"] is not None:
                raise CatalogFormatError("%s:%d: type %s has a second "
                                         "similitude" % (where, no, cur["name"]))
            cur["sim"] = rest
        else:
            raise CatalogFormatError("%s:%d: unknown directive %r" % (where, no, word))
    close()
    return shapes


def _as_part(value, where: str):
    if isinstance(value, Character):
        return CharPart(value)
    if isinstance(value, WDRep) and len(value.blocks) == 1 \
            and value.blocks[0].n == 0:
        return value.blocks[0].part
    raise CatalogFormatError("%s: expression is not a single part" % where)


def from_catalog(name: str, values: dict, catalog=None, args=None) -> Gsp4Param:
    """Instantiate a transcribed shape with the given parameter bindings."""
    from .dsl import evaluate_text  # local import, dsl builds on this module

    shapes = default_catalog() if catalog is None else catalog
    if name not in shapes:
        raise TypeConstraintViolation("no catalog shape named %r" % name)
    shape = shapes[name]
    if set(values) != {p for p, _ in shape.params}:
        raise TypeConstraintViolation(
            "shape %s takes params %s" % (name, [p for p, _ in shape.params]))
    env = {}
    for pname, kind in shape.params:
        val = values[pname]
        if kind == "char":
            if not isinstance(val, Character):
                raise TypeConstraintViolation(
                    "param %s of %s must be a character" % (pname, name))
            env[pname] = val
        else:
            if not isinstance(val, IrredPart):
                raise TypeConstraintViolation(
                    "param %s of %s must be an irreducible part" % (pname, name))
            env[pname] = WDRep([Block(val, 0)])
    for kind, pname in shape.requires:
        part = _as_part(env[pname], name)
        if kind == "trivial-det" and not part.det().is_trivial:
            raise TypeConstraintViolation(
                "shape %s requires det(%s) trivial" % (name, pname))

    def value(text, where):
        # the expressions of a shape are read only here, on instantiation
        try:
            return evaluate_text(text, env=env)
        except (LfacSyntaxError, LfacEvalError) as e:
            raise CatalogFormatError("%s: %s" % (where, e)) from None

    blocks = []
    for text, n in shape.blocks:
        where = "%s block %r" % (name, text)
        blocks.append(Block(_as_part(value(text, where), where), n))
    sim = value(shape.similitude, "%s similitude %r" % (name, shape.similitude))
    if not isinstance(sim, Character):
        raise CatalogFormatError("%s: similitude must be a character" % name)
    return _make(WDRep(blocks), sim, name, args)


class Gsp4Type(Record):
    """One GSp(4) constructor as the expression language spells it.

    sig has one letter per argument: "l" a bare-name label, "c" a
    character, "r" a representation; the last `optional` arguments may be
    left out.
    """
    name: str
    ctor: Callable[..., Gsp4Param]
    sig: str
    optional: int = 0


_CODED = {t.name: t for t in (
    Gsp4Type("I", type_I, "ccc"),
    Gsp4Type("IIIa", type_IIIa, "cc"),
    Gsp4Type("IVa", type_IVa, "c"),
    Gsp4Type("VII", type_VII, "lcc"),
    Gsp4Type("VIIIa", type_VIIIa, "lc"),
    Gsp4Type("IXa", type_IXa, "lc"),
    Gsp4Type("sc4", sc_irred4, "lc", optional=1),
    Gsp4Type("scpair", sc_pair, "llc", optional=1),
    Gsp4Type("free", free, "rc"),
)}


def _shape_type(shape: CatalogShape, shapes) -> Gsp4Type:
    """The registry row of a shape from its params: a char param is "c", an
    irred param a label and its determinant "lc", or "l" if trivial-det."""
    trivial = {p for kind, p in shape.requires if kind == "trivial-det"}
    sig = "".join("c" if kind == "char" else "l" if p in trivial else "lc"
                  for p, kind in shape.params)

    def ctor(*args) -> Gsp4Param:
        if len(args) != len(sig):
            raise TypeConstraintViolation("type %s takes %d arguments"
                                          % (shape.name, len(sig)))
        rest, values = iter(args), {}
        for p, kind in shape.params:
            if kind == "char":
                values[p] = next(rest)
            else:
                label = next(rest)
                det = _TRIV if p in trivial else next(rest)
                values[p] = IrredPart(2, label, base_det=det)
        return from_catalog(shape.name, values, shapes, args)
    return Gsp4Type(shape.name, ctor, sig)


def gsp4_types(shapes) -> dict[str, Gsp4Type]:
    """The coded GSp(4) types plus one generated row per catalog shape."""
    return {**_CODED, **{name: _shape_type(shape, shapes)
                         for name, shape in shapes.items()}}


_DEFAULT_CATALOG = load_catalog()


def default_catalog() -> dict[str, CatalogShape]:
    return _DEFAULT_CATALOG


GSP4_TYPES = gsp4_types(default_catalog())
type_IIa, type_Va, type_VIa, type_X, type_XIa = (
    GSP4_TYPES[name].ctor for name in ("IIa", "Va", "VIa", "X", "XIa"))


def gsp4_param(name: str, *args, catalog=None) -> Gsp4Param:
    """The GSp(4) type `name` of the registry, or of gsp4_types(catalog)."""
    types = GSP4_TYPES if catalog is None else gsp4_types(catalog)
    if name not in types:
        raise TypeConstraintViolation("unknown GSp(4) type %r" % name)
    return types[name].ctor(*args)


# ------------------------------------------------------------- pairing factors

def nov_lfactor(pi: Gsp4Param, sigma: Gl2Param) -> SplitRational:
    """Pairing L-factor of pi x sigma from the parameter tensor.

    Defined whenever no twin pair occurs; a supercuspidal sigma against a
    matching-up-to-unramified-twist dual constituent raises UnsupportedTensor.
    """
    return tensor_lfactor(pi.rep, sigma.rep)


def rs_lfactor(tau: Gl2Param, sigma: Gl2Param) -> SplitRational:
    """GL(2) x GL(2) pairing factor.

    Both supercuspidal: 1 unless sigma is a declared unramified twist of the
    dual of tau, which raises UnsupportedPair (the value is not pinned down
    by declared data there).
    """
    try:
        return tensor_lfactor(tau.rep, sigma.rep)
    except UnsupportedTensor:
        raise UnsupportedPair(
            "supercuspidal pair related by an unramified dual twist") from None

"""Local parameter catalog for GL(2) and GSp(4), and the pairing L-factors.

GL(2) parameters come in three kinds (principal series, Steinberg twist,
supercuspidal).  GSp(4) parameters carry their block representation, a
similitude character chi with rep^vee (x) chi = rep, and a type tag.  The
Sally-Tadic types I, IIa, IIIa, IVa, Va, VIa, VII, VIIIa, IXa, X and XIa are
shapes of the transcribed data file data/catalog_types.txt, irreducibility
conditions included as its require lines.  Each distinct shape compiles once
into its registry row, and gsp4_types layers the rows of another file over
GSP4_TYPES.  Only the shapes the file grammar cannot state are coded below:
the two supercuspidal shapes sc4 and scpair, and free.

nov_lfactor is the pairing factor computed on the parameter side; for a
principal-series sigma it automatically agrees with the product over the two
inducing characters, and for theta lifts with the product of the two GL(2)
pairing factors (those agreements are what the verify module rechecks).
"""

from __future__ import annotations

import functools
import os
import re
from collections.abc import Callable

from .chars import Character
from .errors import (CatalogFormatError, CentralCharacterMismatch,
                     LfacEvalError, LfacSyntaxError, LfacValueError,
                     SimilitudeViolation, TypeConstraintViolation,
                     UnsupportedPair, UnsupportedTensor)
from .record import Record
from .scalar import Scalar
from .splitrat import SplitRational
from .wdrep import (Block, IrredPart, WDRep, lfactor, char_rep,
                    check_sp_index, similitude_check, tensor_lfactor)

__all__ = ["Gl2Param", "Gsp4Param", "Gsp4Type", "GSP4_TYPES",
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


def _is_absval_square(chi: Character, k: int) -> bool:
    # chi == |.|^{k/2} as characters, i.e. unramified with value v^{-k}
    return chi.is_unramified and chi.satake == Scalar.v_power(-k)


def principal_series(chi1: Character, chi2: Character,
                     reducible: bool = False) -> Gl2Param:
    """i(chi1, chi2); the ratio chi1/chi2 = |.|^{+-1} cases are reducible and
    need the explicit flag, which records which constituent is 1-dimensional
    ("sub" when the ratio is |.|^{-1}, "quot" when it is |.|)."""
    ratio = chi1 / chi2
    tag = None
    if _is_absval_square(ratio, -2):
        tag = "sub"
    elif _is_absval_square(ratio, 2):
        tag = "quot"
    if tag and not reducible:
        raise TypeConstraintViolation(
            "principal series with ratio |.|^{+-1} is reducible; pass "
            "reducible=True, or red as the third argument of gl2.ps, to "
            "construct it anyway")
    return Gl2Param(WDRep([Block(chi1, 0), Block(chi2, 0)]), chi1 * chi2,
                    "principal-series", tag)


def steinberg(chi: Character = _TRIV) -> Gl2Param:
    """chi St, the twisted Steinberg; plain St for trivial chi."""
    return Gl2Param(char_rep(chi, 1), chi ** 2, "steinberg-twist")


def supercuspidal(label: str, det: Character = _TRIV) -> Gl2Param:
    part = IrredPart(2, label, base_det=det)
    return Gl2Param(WDRep([Block(part, 0)]), det, "supercuspidal")


# -------------------------------------------------------------------- GSp(4)

class Gsp4Param(Record):
    """A GSp(4) parameter and the call that built it: entry is the
    expression function (gsp4.VIa, gsp4.sc4, gsp4.free, theta, ...) and args
    its arguments, so entry(args...) is its text form.  A record built
    directly has no entry and no text form."""
    rep: WDRep
    similitude: Character
    st_type: str               # catalog type tag, SC or FREE
    entry: str | None = None
    args: tuple = ()

    def lfactor(self) -> SplitRational:
        return lfactor(self.rep)


def _make(rep: WDRep, sim: Character, st_type: str, entry: str,
          args: tuple) -> Gsp4Param:
    if not similitude_check(rep, sim):
        raise SimilitudeViolation(
            "declared similitude %s fails the dual-twist check" % sim)
    return Gsp4Param(rep, sim, st_type, entry, args)


def free(rep: WDRep, similitude: Character) -> Gsp4Param:
    return _make(rep, similitude, "FREE", "gsp4.free", (rep, similitude))


def sc_irred4(label: str, similitude: Character = _TRIV) -> Gsp4Param:
    """Supercuspidal with an irreducible 4-dimensional parameter; the declared
    similitude is recorded as self-duality data (det = similitude^2)."""
    part = IrredPart(4, label, base_det=similitude ** 2,
                     selfdual_twist=similitude.inverse())
    return _make(WDRep([Block(part, 0)]), similitude, "SC", "gsp4.sc4",
                 (label, similitude))


def sc_pair(label1: str, label2: str, det: Character = _TRIV) -> Gsp4Param:
    """Supercuspidal with parameter a sum of two distinct 2-dimensional
    irreducibles sharing a determinant; similitude is that determinant."""
    if label1 == label2:
        raise TypeConstraintViolation("supercuspidal pair needs distinct labels")
    rep = WDRep([Block(IrredPart(2, label1, base_det=det), 0),
                 Block(IrredPart(2, label2, base_det=det), 0)])
    return _make(rep, det, "SC", "gsp4.scpair", (label1, label2, det))


def theta_lift(tau1: Gl2Param, tau2: Gl2Param) -> Gsp4Param:
    """Parameter of the lift of a pair with equal central characters: the sum
    of the two GL(2) parameters, similitude the common central character."""
    if tau1.central != tau2.central:
        raise CentralCharacterMismatch(
            "central characters differ: %s vs %s" % (tau1.central, tau2.central))
    return _make(tau1.rep + tau2.rep, tau1.central, "FREE", "theta",
                 (tau1, tau2))


# ------------------------------------------------------- transcribed catalog

class CatalogShape(Record):
    name: str
    params: tuple[tuple[str, str], ...]       # (param name, "char" | "irred")
    # ("trivial-det", param name) or ("not-absval", expression text, K)
    requires: tuple[tuple, ...]
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
    where = "<builtin catalog>" if path is None else str(path)
    try:
        with open(_BUILTIN_CATALOG if path is None else path,
                  encoding="utf-8") as fh:
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
            kind, _, arg = rest.partition(" ")
            arg = arg.strip()
            if kind == "not-absval":
                # EXPR is read on instantiation, like the block expressions
                text, _, k = arg.rpartition(" ")
                if not text.strip() or not re.fullmatch(r"[0-9]{1,4}", k):
                    raise CatalogFormatError("%s:%d: require not-absval needs "
                                             "an expression and an integer K"
                                             % (where, no))
                cur["requires"].append((kind, text.strip(), int(k)))
                continue
            if kind != "trivial-det" or not arg:
                raise CatalogFormatError("%s:%d: unknown requirement %r"
                                         % (where, no, rest))
            if arg not in dict(cur["params"]):
                raise CatalogFormatError("%s:%d: require names undeclared "
                                         "param %r" % (where, no, arg))
            cur["requires"].append((kind, arg))
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


def _as_part(value, name: str, text: str):
    if isinstance(value, Character):
        return value
    if isinstance(value, WDRep) and len(value.blocks) == 1 \
            and value.blocks[0].n == 0:
        return value.blocks[0].part
    raise CatalogFormatError("%s block %r: expression is not a single part"
                             % (name, text))


def _not_absval_text(k: int) -> str:
    # the condition "not |.|^{+-k/2}" as a refusal names it
    if k == 0:
        return "nontrivial"
    return "away from |.|^{+-%s}" % (k // 2 if k % 2 == 0 else "%d/2" % k)


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
    Gsp4Type("sc4", sc_irred4, "lc", optional=1),
    Gsp4Type("scpair", sc_pair, "llc", optional=1),
    Gsp4Type("free", free, "rc"),
)}


@functools.lru_cache(maxsize=None)
def _shape_type(shape: CatalogShape) -> Gsp4Type:
    """The registry row of a shape, compiled once per distinct shape: a char
    param is "c", an irred param a label and its determinant "lc", or "l"
    if trivial-det.  Its ctor is the one instantiation of the shape: it
    binds the arguments and reads the expressions in file order with one
    evaluator, keeping each parse once made."""
    name = shape.name
    entry = "gsp4." + name
    trivial = {p for kind, p, *_ in shape.requires if kind == "trivial-det"}
    sig = "".join("c" if kind == "char" else "l" if p in trivial else "lc"
                  for p, kind in shape.params)
    trees: dict = {}

    def ctor(*args) -> Gsp4Param:
        from .dsl import _SIMPLE, _Evaluator, _evaluate  # dsl imports this module

        if len(args) != len(sig):
            raise TypeConstraintViolation("type %s takes %d arguments"
                                          % (name, len(sig)))
        rest, env = iter(args), {}
        for p, kind in shape.params:
            if kind == "irred":
                label = next(rest)
                det = _TRIV if p in trivial else next(rest)
                env[p] = WDRep([Block(IrredPart(2, label, base_det=det), 0)])
                continue
            env[p] = next(rest)
            if not isinstance(env[p], Character):
                raise TypeConstraintViolation("param %s of %s must be a "
                                              "character" % (p, name))
        ev = _Evaluator(env, _SIMPLE)

        def value(what, text):
            try:
                return _evaluate(ev, text, trees)
            except (LfacSyntaxError, LfacEvalError) as e:
                raise CatalogFormatError("%s %s %r: %s"
                                         % (name, what, text, e)) from None

        for kind, arg, *k in shape.requires:  # k is [K] for not-absval
            if kind == "trivial-det":
                # an irred param under it takes no determinant argument
                if isinstance(env[arg], Character) and not env[arg].is_trivial:
                    raise TypeConstraintViolation(
                        "shape %s requires det(%s) trivial" % (name, arg))
                continue
            chi = value("require", arg)
            if not isinstance(chi, Character):
                raise CatalogFormatError("%s require %r: expression is not a "
                                         "character" % (name, arg))
            if _is_absval_square(chi, k[0]) or _is_absval_square(chi, -k[0]):
                raise TypeConstraintViolation("shape %s requires %s %s" % (
                    name, arg, _not_absval_text(k[0])))

        blocks = [Block(_as_part(value("block", text), name, text), n)
                  for text, n in shape.blocks]
        sim = value("similitude", shape.similitude)
        if not isinstance(sim, Character):
            raise CatalogFormatError("%s: similitude must be a character" % name)
        return _make(WDRep(blocks), sim, name, entry, args)
    return Gsp4Type(name, ctor, sig)


_DEFAULT_CATALOG = load_catalog()


def default_catalog() -> dict[str, CatalogShape]:
    return _DEFAULT_CATALOG


GSP4_TYPES = {**_CODED, **{name: _shape_type(shape)
                           for name, shape in _DEFAULT_CATALOG.items()}}
(type_I, type_IIa, type_IIIa, type_IVa, type_Va, type_VIa, type_VII,
 type_VIIIa, type_IXa, type_X, type_XIa) = (
    GSP4_TYPES[name].ctor for name in ("I", "IIa", "IIIa", "IVa", "Va", "VIa",
                                       "VII", "VIIIa", "IXa", "X", "XIa"))


def gsp4_types(shapes) -> dict[str, Gsp4Type]:
    """GSP4_TYPES with the row of each shape of `shapes` layered over it;
    every row the file does not name is the registry's own."""
    return {**GSP4_TYPES, **{name: _shape_type(shape)
                             for name, shape in shapes.items()}}


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

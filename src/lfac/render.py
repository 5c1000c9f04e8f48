"""Canonical text and JSON for every value the engine produces.

The text form of a value is a constructor expression of the expression
language, chosen so that parsing it back yields an equal value.  JSON output
is a kind-tagged object; exact scalars travel as strings, never floats.
The unicode mode is display sugar on top of the canonical text and is not
meant to be parsed back.
"""

from __future__ import annotations

import re
import sys

from . import catalog as cat
from . import poles as _poles
from .chars import Character
from .errors import LfacValueError
from .scalar import Scalar
from .splitrat import IdealGen, SplitRational
from .wdrep import Block, WDRep

__all__ = ["SCHEMA", "text", "to_json", "unicodize"]

SCHEMA = "lfac-1"
_GL2_FAMILIES = {"gl2.ps": "principal-series", "gl2.st": "steinberg-twist",
                 "gl2.sc": "supercuspidal"}


# -------------------------------------------------------------------- text

def _is_check_report(value) -> bool:
    # a CheckReport exists only once verify is loaded, so never load it here
    verify = sys.modules.get(__package__ + ".verify")
    return verify is not None and isinstance(value, verify.CheckReport)


def _part_text(part) -> str:
    if isinstance(part, Character):
        return str(part)
    out = None
    sd = part.selfdual_twist
    if sd is not None:
        sim = sd.inverse()
        if part.dim == 4 and part.base_det == sim ** 2:
            out = "irr4(%s, %s)" % (part.label, sim)
        else:
            out = "irr(%d, %s, %s, %s)" % (part.dim, part.label,
                                           part.base_det, sd)
    elif part.base_det.is_trivial:
        out = "irr(%d, %s)" % (part.dim, part.label)
    else:
        out = "irr(%d, %s, %s)" % (part.dim, part.label, part.base_det)
    if part.starred:
        out = "star(%s)" % out
    if not part.twist.is_trivial:
        out = "twist(%s, %s)" % (out, part.twist)
    return out


def _block_text(b: Block) -> str:
    base = _part_text(b.part)
    return "%s x sp(%d)" % (base, b.n) if b.n else base


def _rep_text(w: WDRep) -> str:
    if not w.blocks:
        raise LfacValueError("an empty representation has no constructor form")
    if len(w.blocks) == 1 and isinstance(w.blocks[0].part, Character):
        # a lone line needs the explicit sp(0) to read back as a
        # representation rather than a character
        b = w.blocks[0]
        return "%s x sp(%d)" % (_part_text(b.part), b.n)
    return " + ".join(_block_text(b) for b in w.blocks)


def _call_text(p) -> str:
    if p.entry is None:
        raise LfacValueError("a parameter built without its constructor "
                             "arguments has no text form")
    return "%s(%s)" % (p.entry, ", ".join(
        [a if isinstance(a, str) else text(a) for a in p.args]))


def _entry_text(e: _poles.PoleEntry) -> str:
    parts = [str(e.root), _poles.TAG_NAMES[e.classification]]
    if e.witnesses:
        parts.append(_rep_text(WDRep(e.witnesses)))
    if e.bessel is not None:
        parts.append("bessel(%s, %s)" % e.bessel)
    return "entry(%s)" % ", ".join(parts)


def _report_text(r: _poles.PoleReport) -> str:
    return "polereport(%s)" % ", ".join(_entry_text(e) for e in r.entries)


def text(value) -> str:
    """The canonical constructor expression for one value."""
    if isinstance(value, (Scalar, SplitRational, Character)):
        return str(value)
    if isinstance(value, WDRep):
        return _rep_text(value)
    if isinstance(value, (cat.Gl2Param, cat.Gsp4Param)):
        return _call_text(value)
    if isinstance(value, _poles.PoleEntry):
        return _entry_text(value)
    if isinstance(value, _poles.PoleReport):
        return _report_text(value)
    if isinstance(value, IdealGen):
        return str(value.generator)
    if isinstance(value, tuple) and len(value) == 2 \
            and all(isinstance(c, Character) for c in value):
        return "bessel(%s, %s)" % value
    if _is_check_report(value):
        return value.summary()
    raise TypeError("no text form for %r" % type(value).__name__)


# ------------------------------------------------------------------ unicode

_SUPER = str.maketrans("0123456789-", "⁰¹²³⁴⁵"
                       "⁶⁷⁸⁹⁻")


def unicodize(s: str) -> str:
    """Display transform: superscript exponents, centered dots, a tensor
    sign; the result is for reading, not for parsing back."""
    # the closing paren belongs to the exponent only when the opening one did
    s = re.sub(r"\^\((-?\d+)\)|\^(-?\d+)",
               lambda m: (m.group(1) or m.group(2)).translate(_SUPER), s)
    s = s.replace(" x sp", " ⊗ sp").replace("*", "·")
    return s


# --------------------------------------------------------------------- json

def _splitrat_json(f: SplitRational) -> dict:
    return {"kind": "factored", "text": str(f), "unit": str(f.unit),
            "xpower": f.xpower,
            "factors": [{"beta": str(b), "power": e} for b, e in f.factors],
            "lfactor": f.is_lfactor}


def _char_json(c: Character) -> dict:
    return {"kind": "character", "text": str(c),
            "unramified": c.is_unramified,
            "tag": [[n, e] for n, e in c.tag], "satake": str(c.satake)}


def _rep_json(w: WDRep) -> dict:
    return {"kind": "rep", "text": _rep_text(w), "dim": w.dim,
            "blocks": [{"part": _part_text(b.part), "sp": b.n}
                       for b in w.blocks]}


def _entry_json(e: _poles.PoleEntry) -> dict:
    return {"root": str(e.root), "classification": e.classification,
            "witnesses": [_block_text(b) for b in e.witnesses],
            "bessel": None if e.bessel is None
            else [str(e.bessel[0]), str(e.bessel[1])]}


def to_json(value):
    """A JSON-ready object for one value; containers nest, scalars are
    strings."""
    if isinstance(value, Scalar):
        return {"kind": "scalar", "text": str(value)}
    if isinstance(value, SplitRational):
        return _splitrat_json(value)
    if isinstance(value, Character):
        return _char_json(value)
    if isinstance(value, WDRep):
        return _rep_json(value)
    if isinstance(value, cat.Gl2Param):
        return {"kind": "gl2", "text": _call_text(value),
                "family": _GL2_FAMILIES[value.entry],
                "reducible": value.reducible, "central": str(value.central),
                "rep": _rep_json(value.rep)}
    if isinstance(value, cat.Gsp4Param):
        return {"kind": "gsp4", "text": _call_text(value),
                "type": value.st_type, "similitude": str(value.similitude),
                "rep": _rep_json(value.rep)}
    if isinstance(value, _poles.PoleEntry):
        return _entry_json(value)
    if isinstance(value, _poles.PoleReport):
        return {"kind": "polereport", "text": _report_text(value),
                "entries": [_entry_json(e) for e in value.entries]}
    if isinstance(value, IdealGen):
        return {"kind": "ideal", "generator": str(value.generator),
                "lfactor": value.is_lfactor, "units": value.contains_units}
    if isinstance(value, tuple) and len(value) == 2 \
            and all(isinstance(c, Character) for c in value):
        return {"kind": "bessel", "pair": [str(value[0]), str(value[1])]}
    if _is_check_report(value):
        return {"kind": "checkreport", "suite": value.suite,
                "trials": value.trials, "passed": value.passed,
                "failures": [{"trial": f.trial, "seed": f.seed,
                              "detail": f.detail} for f in value.failures]}
    raise TypeError("no JSON form for %r" % type(value).__name__)

"""Exact local factors for GSp(4) and GSp(4) x GL(2).

Everything is symbolic: Satake parameters are free symbols, q^{1/2} is the
symbol v, and L-factors stay in factored form 1 / prod (1 - beta X) with
X = q^{-s}.  On top of the factor arithmetic sit the parameter catalog, the
pole classifications with their splittings, and seeded randomized checks of
the formula-level identities.
"""

import importlib

from .catalog import (Gl2Param, Gsp4Param, default_catalog, free,
                      gsp4_param, load_catalog, nov_lfactor, principal_series,
                      rs_lfactor, sc_irred4, sc_pair, steinberg, supercuspidal,
                      theta_lift, type_I, type_IIa, type_IIIa, type_IVa,
                      type_IXa, type_Va, type_VIa, type_VII, type_VIIIa,
                      type_X, type_XIa)
from .chars import Character
from .dsl import evaluate_text, parse_scalar
from .errors import (CatalogFormatError, CentralCharacterMismatch,
                     HalfIntegerError, LfacError, LfacEvalError,
                     LfacSyntaxError, LfacValueError, ScalarDomainError,
                     SimilitudeViolation, TypeConstraintViolation,
                     UnsupportedPair, UnsupportedTensor)
from .poles import (NovSplit, PoleEntry, PoleReport, PsSplit,
                    exceptional_poles, hom_dim, ideals_JK, nov_split,
                    ps_split, subregular_poles)
from .scalar import Scalar, half_integer
from .splitrat import IdealGen, SplitRational, ideal_generator
from .wdrep import (Block, IrredPart, WDRep, char_rep, dual,
                    lfactor, similitude_check, sp, sp_tensor, tensor,
                    tensor_lfactor, twist)

__version__ = "0.1.0"

# the names of the verify suites, here so that the CLI parser can offer them
# without loading the suites; verify.SUITES is built in this order
SUITE_NAMES = ("lemma71", "soudry", "theoremA")

# the verify suites load on first use, not here
_VERIFY_NAMES = frozenset({"CheckReport", "TrialProfile", "check_corollary62",
                           "check_lemma71", "check_soudry", "check_theoremA",
                           "run_suite"})


def __getattr__(name):
    if name in _VERIFY_NAMES or name == "verify":
        # import_module, since `from . import verify` would call back here
        verify = importlib.import_module(__name__ + ".verify")
        return verify if name == "verify" else getattr(verify, name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))

__all__ = [
    "Block", "CatalogFormatError", "CentralCharacterMismatch",
    "Character", "CheckReport", "Gl2Param", "Gsp4Param", "HalfIntegerError",
    "IdealGen", "IrredPart", "LfacError", "LfacEvalError", "LfacSyntaxError",
    "LfacValueError",
    "NovSplit", "PoleEntry", "PoleReport", "PsSplit", "Scalar",
    "ScalarDomainError", "SimilitudeViolation", "SplitRational",
    "TrialProfile", "TypeConstraintViolation", "UnsupportedPair",
    "UnsupportedTensor", "WDRep", "char_rep", "check_corollary62",
    "check_lemma71", "check_soudry", "check_theoremA", "default_catalog",
    "dual", "evaluate_text", "exceptional_poles", "free",
    "gsp4_param", "half_integer", "hom_dim", "ideal_generator",
    "ideals_JK", "lfactor", "load_catalog", "nov_lfactor", "nov_split",
    "parse_scalar", "principal_series", "ps_split", "rs_lfactor",
    "run_suite", "sc_irred4", "sc_pair",
    "similitude_check", "sp", "sp_tensor", "steinberg", "subregular_poles",
    "supercuspidal", "tensor", "tensor_lfactor",
    "theta_lift", "twist", "type_I", "type_IIa", "type_IIIa", "type_IVa",
    "type_IXa", "type_Va", "type_VIa", "type_VII", "type_VIIIa", "type_X",
    "type_XIa",
]

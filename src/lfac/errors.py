"""Exception types shared across the package.

Everything raised on purpose derives from LfacError so callers can catch one
base class.  Syntax errors carry a position; the CLI turns any of these into
exit code 2.
"""

import functools


class LfacError(Exception):
    pass


class ScalarDomainError(LfacError, ZeroDivisionError):
    """Division or inversion involving the zero scalar, or a specialization
    that sends a denominator (or a factor base) to zero."""


class HalfIntegerError(LfacError, ValueError):
    """A shift amount or twist exponent that is not an integer over two."""


class LfacValueError(LfacError, ValueError):
    """A value outside its domain: a zero character value, an irreducible
    part of dimension below 2, an sp index outside 0..SP_MAX, a
    representation of more than BLOCK_MAX blocks, a power of more than
    POWER_TERMS_MAX terms or with coefficients of more than POWER_DIGITS_MAX
    digits (estimated before it is computed, for a one-term base such as
    3^20000000 as for a sum), an exponent or sp index that is a number
    but not an integer (such as 1/2 or 1.5), a bad or reserved symbol
    name."""


def _printable(to_text):
    """Wrap a __str__ so an integer past the interpreter's limit on printed
    digits raises LfacValueError, not a bare ValueError."""
    @functools.wraps(to_text)
    def __str__(self):
        try:
            return to_text(self)
        except ValueError:
            raise LfacValueError("%s too large to print"
                                 % type(self).__name__) from None
    return __str__


class UnsupportedTensor(LfacError):
    """Tensor of two higher-dimensional irreducible parts whose block
    decomposition (or L-contribution) is not determined by declared data."""


class UnsupportedPair(LfacError):
    """Both inputs supercuspidal and one is a declared unramified twist of the
    other's dual, so the factor is not pinned down by the product formula."""


class SimilitudeViolation(LfacError):
    """Declared similitude character fails the dual-twist self-duality check."""


class CentralCharacterMismatch(LfacError):
    """Theta-lift inputs with unequal central characters."""


class TypeConstraintViolation(LfacError):
    """Catalog constructor arguments that violate the recorded constraints of
    the requested type (equal characters for IIIa, equal labels for the
    supercuspidal pair, a reducible principal series without the flag, ...)."""


class CatalogFormatError(LfacError, ValueError):
    """Malformed catalog data file."""


class LfacSyntaxError(LfacError, ValueError):
    """Expression text that does not lex or parse.

    line and col are 1-based.
    """

    def __init__(self, message, line, col):
        super().__init__("%s (line %d, col %d)" % (message, line, col))
        self.message = message
        self.line = line
        self.col = col


class LfacEvalError(LfacError, TypeError):
    """Well-formed expression applied to operands of the wrong kind or arity."""

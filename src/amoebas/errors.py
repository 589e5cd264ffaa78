"""Exception types shared across the package.

Every error carries a short machine-readable ``code`` so the CLI can surface
failures as structured JSON.
"""


class AmoebaError(Exception):
    code = "error"


class ZeroInput(AmoebaError):
    code = "zero-input"


class PlaceFieldMismatch(AmoebaError):
    code = "place-field-mismatch"


class InvalidPlace(AmoebaError):
    code = "invalid-place"


class PolySyntaxError(AmoebaError):
    """Parse failure; ``position`` is the 0-based offset into the input."""

    code = "syntax-error"

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class RankMismatch(AmoebaError):
    code = "rank-mismatch"


class RankTooLarge(AmoebaError):
    code = "rank-too-large"


class ExpansionTooLarge(AmoebaError):
    code = "expansion-too-large"


class EmptyPolynomial(AmoebaError):
    code = "empty-polynomial"


class MonomialInput(AmoebaError):
    code = "monomial-input"


class DimensionMismatch(AmoebaError):
    code = "dimension-mismatch"


class TermCountMismatch(AmoebaError):
    code = "term-count-mismatch"


class DegenerateSlice(AmoebaError):
    code = "degenerate-slice"


class ExponentSpreadTooLarge(AmoebaError):
    code = "exponent-spread-too-large"


class PointTooLarge(AmoebaError):
    code = "point-too-large"


class FactorizationTooLarge(AmoebaError):
    code = "factorization-too-large"


class CornerLocusTooLarge(AmoebaError):
    code = "corner-locus-too-large"


class DependentDirection(AmoebaError):
    code = "dependent-direction"


class MissingImagePresentation(AmoebaError):
    code = "missing-image-presentation"


class ArchimedeanNotSupported(AmoebaError):
    code = "archimedean-not-supported"


class InternalInvariantError(AmoebaError):
    code = "internal-invariant"

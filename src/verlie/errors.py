"""Exception types shared across the package."""


class VerlieError(Exception):
    """Base class for all package errors."""


class AxiomViolation(VerlieError):
    """A candidate Cartan matrix breaks one of the four GCM axioms."""

    def __init__(self, axiom: int, detail: str = ""):
        self.axiom = axiom
        super().__init__(f"Cartan matrix axiom {axiom} violated" + (f": {detail}" if detail else ""))


class NotFiniteType(VerlieError):
    """Reflection closure did not terminate within the configured bound."""


class NotNilpotent(VerlieError):
    """A matrix expected to be nilpotent is not."""


class BadModulus(VerlieError):
    """The characteristic is not an odd prime."""


class DimensionTooLarge(VerlieError):
    """The basis is too large for the int64 keys of the exact axiom checks."""


class DegreeExceedsP(VerlieError):
    """Nilpotent, but of degree > p, so not a representation of the height-p shift algebra."""


class IllegalSwap(VerlieError):
    """A requested recoloring is not a legal swap."""


class ParseError(VerlieError):
    def __init__(self, message: str, position: int):
        self.position = position
        super().__init__(f"{message} (at position {position})")


class UnknownGenerator(VerlieError):
    """An element expression references a generator the algebra does not have."""


class JacobiViolation(VerlieError):
    """A constructed bracket failed the (super) Jacobi identity."""


class NotAnIdeal(VerlieError):
    """The subspace handed to quotient() is not bracket-stable."""


class NotParityHomogeneous(VerlieError):
    """A subspace expected to split into even and odd parts does not."""


class PreconditionViolated(VerlieError):
    """Structured decomposition was called outside its supported setting."""


class MissingTags(VerlieError):
    """Generator-tagged chains were required but the decomposition carries none."""


class NotDiagonalizable(VerlieError):
    """A torus element does not act diagonalizably on the given algebra."""


class UnrecognizedType(VerlieError):
    """Eigenvalue data does not match any finite-type root system in the catalog."""

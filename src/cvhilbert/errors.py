"""Exception types shared across the package."""

from __future__ import annotations


class CvhilbertError(Exception):
    """Base class for all package errors."""


class SizeLimit(CvhilbertError):
    """A generated structure would exceed an order or memory bound."""


class NotASubgroup(CvhilbertError):
    pass


class NotPermissible(CvhilbertError):
    """Level sets of the variable are not respected by the acting group."""

    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"variable not permissible, witness={witness!r}")


class NotAccessible(CvhilbertError):
    pass


class NotMaximal(CvhilbertError):
    pass


class NotRelated(CvhilbertError):
    """No relating transformation: carries a witnessing domain point."""

    def __init__(self, witness_point: int):
        self.witness_point = witness_point
        super().__init__(f"variables not related, witness point {witness_point}")


class InvolutionViolation(CvhilbertError):
    """The relating transformation must square to the identity here."""


class NotTransitive(CvhilbertError):
    pass


class NontrivialIsotropy(CvhilbertError):
    pass


class IrreducibleInput(CvhilbertError):
    pass


class NumericalAmbiguity(CvhilbertError):
    """An overlap fell inside the tolerance band around a decision boundary."""


class NoResolution(CvhilbertError):
    """Operator construction requires coherent states that resolve the
    identity: for basis-vector states, all d of them."""


class NotWellDefined(CvhilbertError):
    """The generated matrix assignment is not a homomorphism.

    Carries two words for the same group element whose matrix products differ.
    """

    def __init__(self, element: int, word_a, word_b):
        self.element = element
        self.word_a = tuple(word_a)
        self.word_b = tuple(word_b)
        super().__init__(
            f"matrix assignment ill-defined at element {element}: "
            f"words {self.word_a} and {self.word_b} disagree"
        )


class CosetLabelingError(CvhilbertError):
    """The coset space does not factor into consistent (x, y) labels."""

    def __init__(self, reason: str, witness=None):
        self.reason = reason
        self.witness = witness
        super().__init__(f"coset labeling failed: {reason}, witness={witness!r}")


class NotHermitian(CvhilbertError):
    pass


class DegenerateSpectrum(CvhilbertError):
    pass


class DimensionMismatch(CvhilbertError):
    pass


class InvalidSpin(CvhilbertError):
    pass


class NonUnitAxis(CvhilbertError):
    pass


class ParseError(CvhilbertError):
    pass


class SchemaError(CvhilbertError):
    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("schema violations: " + "; ".join(self.violations))

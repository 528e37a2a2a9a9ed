"""Exception and warning types shared across the package.

Two broad families matter for the CLI: :class:`InputError` maps to exit
code 2 (malformed input or configuration), :class:`NumericalError` maps
to exit code 3 (a computation failed on well-formed input).
"""


class PpcaError(Exception):
    """Base class for all package errors."""


class InputError(PpcaError):
    """Malformed input data, shapes, or configuration."""


class NumericalError(PpcaError):
    """Numerical failure on structurally valid input."""


class ZeroVarianceError(InputError):
    def __init__(self, column: int):
        self.column = column
        super().__init__(f"covariate column {column} has zero variance")


class InvalidSpecError(InputError):
    pass


class DimensionMismatchError(InputError):
    pass


class KTooLargeError(InputError):
    pass


class RangeEmptyError(InputError):
    pass


class DegenerateBasisError(NumericalError):
    pass


class EigenFailureError(NumericalError):
    pass


class RankDeficientError(NumericalError):
    pass


class SingularWeightError(NumericalError):
    pass


class RankWarning(UserWarning):
    """A basis column became numerically zero after centering."""


class NearTieWarning(UserWarning):
    """Adjacent eigenvalues are nearly tied: the K-th and (K+1)-th, or two of whitened G'G."""


class BoundaryWarning(UserWarning):
    """Eigenvalue-ratio argmax landed on the boundary of the search range."""

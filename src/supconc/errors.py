"""Exception types shared across the package."""


class SupconcError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(SupconcError, ValueError):
    """Vector/matrix shapes are inconsistent with the declared local dimensions."""


class NotNormalized(SupconcError, ValueError):
    """State vector is not unit norm.

    The offending squared norm is stored in ``norm_squared``.
    """

    def __init__(self, norm_squared: float):
        self.norm_squared = float(norm_squared)
        super().__init__(
            f"state vector is not normalized: squared norm = {norm_squared!r}"
        )


class WeightsNotNormalized(SupconcError, ValueError):
    """Superposition weights do not satisfy |alpha|^2 + |beta|^2 = 1."""


class ZeroVector(SupconcError, ValueError):
    """Vector norm is below the degeneracy threshold (full cancellation)."""


class NotTwoQubit(SupconcError, ValueError):
    """Operation is defined only for 2x2 (two-qubit) states."""


class NotHermitian(SupconcError, ValueError):
    """Matrix is not Hermitian within tolerance."""


class NotUnitary(SupconcError, ValueError):
    """Matrix is not unitary within tolerance."""


class OutOfRange(SupconcError, ValueError):
    """Scalar argument lies outside its mathematical domain."""


class DeltaOutOfRange(SupconcError, ValueError):
    """Correction factor delta escaped [0, 1].

    Cannot occur for valid normalized inputs; kept as a defensive
    invariant guard.
    """


class InvalidSplit(SupconcError, ValueError):
    """Block split for biorthogonal construction is out of range."""


class UnknownFixture(SupconcError, KeyError):
    """No fixture state is registered under the requested name."""


class InternalError(SupconcError, RuntimeError):
    """An internal consistency check failed."""


class SanityFailure(SupconcError, RuntimeError):
    """Computed exact value escaped its own bounds: implementation bug.

    ``row`` is the index of the offending pair in the evaluated stack (0
    for a single report), ``None`` when no stack is named.
    """

    def __init__(self, message: str, row: int | None = None):
        super().__init__(message)
        self.row = row

"""Exception types raised by the simulation modules."""


class NonHermitianError(ValueError):
    """Matrix fails the Hermitian symmetry tolerance."""


class DimensionMismatchError(ValueError):
    """Matrix or subsystem dimensions are incompatible with the operation."""


class NotPositiveError(ValueError):
    """Matrix is not positive semidefinite within tolerance."""


class GridMismatchError(ValueError):
    """Time grids of trajectories that must be aligned differ."""


class EmptyTrajectoryError(ValueError):
    """Trajectory holds no samples."""


class EmptyInputError(ValueError):
    """A non-empty sequence was required."""


class MissingSubsetError(ValueError):
    """A slit experiment lacks a required subset probability."""


class InvalidModelError(ValueError):
    """A quantum slit model violates its structural constraints."""

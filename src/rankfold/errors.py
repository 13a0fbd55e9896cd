"""Exception types shared across the package.

Decoders never return a wrong answer silently: every failure mode raised
by the linear algebra or field layers is either handled or converted into
a DecodingFailure by the decoder that hit it.
"""


class RankfoldError(Exception):
    """Base class for all package-specific errors."""


class FieldMismatch(RankfoldError):
    """Two operands belong to different fields."""


class DegreeCollapse(RankfoldError):
    """A tower generator is already a square lower in the tower.

    Carries the 1-based index of the offending generator.
    """

    def __init__(self, index, message=None):
        self.index = index
        super().__init__(message or f"generator {index} is a square in the tower below it")


class TowerHeightZero(RankfoldError):
    """Split/join requested on a height-zero tower."""


class NotASquare(RankfoldError):
    """Square root requested for a quadratic non-residue."""


class SingularBasis(RankfoldError):
    """Claimed basis is linearly dependent."""


class LengthMismatch(RankfoldError):
    """Vector lengths are incompatible."""


class DimensionMismatch(RankfoldError):
    """Matrix shapes are incompatible."""


class NoSolution(RankfoldError):
    """Linear system has no solution."""


class NotUnique(RankfoldError):
    """Linear system is underdetermined.

    Carries a nonzero kernel vector as a witness, or None where the raiser
    (the batched modular solve) only detects the rank deficit.
    """

    def __init__(self, witness, message=None):
        self.witness = witness
        super().__init__(message or "solution is not unique")


class ParameterMismatch(RankfoldError):
    """Code parameters do not satisfy a construction's constraints."""


class DecodingFailure(RankfoldError):
    """Decoder could not produce a verified codeword."""

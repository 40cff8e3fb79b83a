"""Exception hierarchy and warning categories.

Every error class carries a stable ``exit_code`` so the CLI can map failure
modes to distinct process exit statuses.
"""


class DepconError(Exception):
    """Base class for all library errors."""

    exit_code = 1


class RaggedRowsError(DepconError):
    """CSV rows do not all have the same number of columns."""

    exit_code = 10

    def __init__(self, row, expected, found):
        super().__init__(f"row {row}: expected {expected} columns, found {found}")
        self.row = row
        self.expected = expected
        self.found = found


class NonNumericCellError(DepconError):
    exit_code = 11

    def __init__(self, row, col, text):
        super().__init__(f"cell ({row}, {col}): {text!r} is not numeric")
        self.row = row
        self.col = col
        self.text = text


class TooFewSamplesError(DepconError):
    exit_code = 12


class TooFewFeaturesError(DepconError):
    exit_code = 13


class NonFiniteValueError(DepconError):
    exit_code = 14


class ConstantFeatureError(DepconError):
    """A feature column is constant, so its mean pairwise distance is zero."""

    exit_code = 15

    def __init__(self, feature):
        super().__init__(f"feature {feature} is constant; standardization would divide by zero")
        self.feature = feature


class DimensionMismatchError(DepconError):
    exit_code = 16


class OutOfRangeError(DepconError):
    exit_code = 17


class InvalidVertexError(DepconError):
    exit_code = 19


class InvalidGraphError(DepconError):
    exit_code = 20


class NotSquareError(DepconError):
    exit_code = 21


class NotSymmetricError(NotSquareError):
    """A Gram matrix differs from its transpose beyond rounding."""


class GramRangeError(NotSquareError):
    """A Gram file holds a kappa value outside [-1, 1] beyond rounding."""


class LengthMismatchError(DepconError):
    exit_code = 22


class DegenerateLabelsError(DepconError):
    exit_code = 23


class KTooLargeError(DepconError):
    exit_code = 24


class AdjacentPairError(DepconError):
    """A nonlinear mechanism was requested for a pair already linked in the base DAG."""

    exit_code = 26


class OddModelCountError(DepconError):
    exit_code = 27


class DegenerateSampleWarning(UserWarning):
    """A sample's contribution matrix has (near-)zero norm; its kernel row is set to 0."""


class SmallSampleWarning(UserWarning):
    """Statistical routine called with fewer samples than recommended."""


class RankDeficientWarning(UserWarning):
    """Fewer usable eigenvalues than requested components."""

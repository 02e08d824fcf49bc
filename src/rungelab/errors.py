"""Exception hierarchy shared by all rungelab modules."""


class RungelabError(Exception):
    """Base class for all errors raised by this package."""


class ConfigurationError(RungelabError):
    """A run configuration or constructor argument is invalid."""


class DegenerateRegionError(RungelabError):
    """A region operation produced an empty voxel set."""


class GeometryError(RungelabError):
    """A geometric hypothesis (containment, connectivity, erosion) fails."""


class MaterialError(RungelabError):
    """A material tensor violates symmetry, positivity or smoothness rules."""


class ResonantFrequencyError(RungelabError):
    """The requested frequency sits too close to an interior resonance."""

    def __init__(self, message, margin=None, suggested_omega=None):
        super().__init__(message)
        self.margin = margin
        self.suggested_omega = suggested_omega


class LowFrequencyError(ResonantFrequencyError):
    """The nearest resonance is omega = 0: the gradient modes set the margin,
    which scales as omega^2 h^2, so no detuning raises it."""

    def __init__(self, message, margin, omega2_h2):
        super().__init__(message, margin=margin)
        self.omega2_h2 = omega2_h2


class NumericError(RungelabError):
    """A linear-algebra step failed (non-convergence, breakdown)."""

    def __init__(self, message, history=None):
        super().__init__(message)
        self.history = history


class SizeError(RungelabError):
    """A dense computation was requested beyond its supported size."""


class StoreError(RungelabError):
    """Base class for binary-envelope failures."""


class BadMagicError(StoreError):
    pass


class BadVersionError(StoreError):
    pass


class BadKindError(StoreError):
    pass


class BadProvenanceError(StoreError):
    pass


class BadLengthError(StoreError):
    pass


class BadChecksumError(StoreError):
    pass

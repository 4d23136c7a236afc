"""Exception hierarchy for switchdwell."""


class SwitchDwellError(Exception):
    """Base class for all switchdwell errors."""


# -- core -------------------------------------------------------------------

class SingularMatrix(SwitchDwellError):
    """System matrix is not invertible."""


class NotContracting(SwitchDwellError):
    """Symmetric part of the system matrix has a nonnegative eigenvalue."""


class DimensionMismatch(SwitchDwellError):
    """State vector dimension does not match the subsystem."""


class UnknownLabel(SwitchDwellError, KeyError):
    """Referenced mode label does not exist in the system."""


class EmptyTransitions(SwitchDwellError):
    """A periodic signal needs at least one transition."""


class NonpositiveDwell(SwitchDwellError):
    """Dwell values must be strictly positive."""


class InvalidEpsilon(SwitchDwellError, ValueError):
    """Region level eps must be positive and finite."""


# -- dwell ------------------------------------------------------------------

class InvalidMu(SwitchDwellError):
    """mu must be >= 1."""


class UnsupportedCertificate(SwitchDwellError):
    """Operation requires identity-weighted quadratic Lyapunov functions."""


class HeterogeneousCertificates(SwitchDwellError):
    """Subsystems must share alpha, beta and the decay rate."""


class EmptyConfiguration(SwitchDwellError):
    """r > 2d leaves no admissible equilibrium configuration."""


class NoThreshold(SwitchDwellError):
    """No eps in the search range satisfies the travel-time condition."""


class UnsupportedDimension(SwitchDwellError):
    """Operation is only available for the supported state dimension."""


# -- sim --------------------------------------------------------------------

class NonfiniteState(SwitchDwellError):
    """Integration produced a non-finite state component."""


class SignalMismatch(SwitchDwellError):
    """Trajectory switch events disagree with the switching signal."""


class InsufficientSwitches(SwitchDwellError):
    """Signal/trajectory has fewer switches than requested."""


# -- cli / scenario ---------------------------------------------------------

class ParseError(SwitchDwellError):
    """Scenario document is not well formed."""


class ValidationError(SwitchDwellError):
    """Scenario document is well formed but semantically invalid."""


class IoError(SwitchDwellError):
    """Output directory is not writable or a file operation failed."""

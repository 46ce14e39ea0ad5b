"""Exception hierarchy for the spinquench package.

Two broad families matter for the CLI exit-code contract: configuration
problems (bad config files, capacity limits, unreadable inputs) exit with
code 2, numerical failures (undefined spectra, infeasible collapse, failed
fits) exit with code 3.
"""


class SpinQuenchError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(SpinQuenchError):
    """Invalid configuration: unknown keys, bad values, missing files."""


class CapacityError(ConfigError):
    """Requested system size exceeds the configured memory/size caps."""


class GeometryError(SpinQuenchError):
    """Invalid spin geometry (coincident spins, bad field axis, ...)."""


class PackingError(GeometryError):
    """Random placement could not satisfy the minimum separation."""


class CoordinateFileError(ConfigError):
    """Malformed coordinate file; carries the offending line number."""

    def __init__(self, path, line_number, message):
        self.path = path
        self.line_number = line_number
        super().__init__(f"{path}:{line_number}: {message}")


class NumericalError(SpinQuenchError):
    """Base class for runtime numerical failures (CLI exit code 3)."""


class UndefinedSpectrumError(NumericalError):
    """Coherence spectrum requested for an all-zero density operator."""


class CollapseError(NumericalError):
    """Data collapse infeasible (e.g. a curve overlaps no other curve)."""


class SaturationError(NumericalError):
    """No saturated plateau detected in a cluster-size trajectory."""


class FitError(NumericalError):
    """Nonlinear fit failed to converge from every starting point."""


class InsufficientDataError(NumericalError):
    """Too few points for the requested fit window or collapse."""


class EstimatorWarning(UserWarning):
    """Statistical estimator self-consistency warning (not fatal)."""

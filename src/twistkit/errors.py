"""Exception hierarchy shared by all twistkit modules."""


class TwistkitError(Exception):
    """Base class for all errors raised by this package."""


class AdmissibilityError(TwistkitError):
    """A mode spectrum violates strict positivity of the frequencies."""


class ConfigError(TwistkitError):
    """Malformed input: bad config file, mismatched lengths, unknown labels."""


class KindError(TwistkitError):
    """A route that needs one phase per mode (a diagonal slot action) got a
    symmetry that moves slots, such as an antiunitary pairing."""


class CapacityError(TwistkitError):
    """A requested truncated space exceeds the configured storage budget."""


class DomainError(TwistkitError):
    """A numeric argument is outside its mathematical domain (e.g. beta <= 0)."""


class RangeError(TwistkitError):
    """A finite positive result lies outside the floating-point range."""


class InternalConsistencyError(TwistkitError):
    """A structurally guaranteed property failed numerically."""


class PreconditionError(TwistkitError):
    """A caller-supplied function violates a required boundary condition."""

"""Exception types shared across the package."""


class AudLabError(Exception):
    """Base class for all aud-lab errors."""


class ParameterError(AudLabError, ValueError):
    """A supplied parameter violates its contract (wrong sign, range, type)."""


class StabilityError(AudLabError, ValueError):
    """Operation requires a stable queue (``SystemParams.is_stable``) and got one that is not."""


class InsufficientDataError(AudLabError, ValueError):
    """Too few samples or records to compute the requested quantity."""


class TruncationError(AudLabError, ValueError):
    """Requested time horizon extends beyond what the trace can certify."""


class DivergenceError(AudLabError, ValueError):
    """A transform or moment does not exist at the requested argument."""

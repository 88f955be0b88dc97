"""Exception types shared across the solver modules.

Plain precondition violations (bad dimension, empty bracket, unsupported
norm exponent) raise ValueError; the classes here signal numerical
conditions a caller may want to catch and react to.
"""


class BN6Error(Exception):
    """Base class for solver-state errors."""


class NearSingularError(BN6Error):
    """Linear operator has a singular value below the safe threshold."""


class NotConvergedError(BN6Error):
    """An iteration finished without meeting its tolerance."""


class BlowUpBeforeOneError(BN6Error):
    """Shooting trajectory left the trust region before reaching r = 1."""


class NoSignChangeError(BN6Error):
    """Matching function has one sign over the whole bracket."""


class RadialModeViolationError(BN6Error):
    """A mode or dimension outside the certified range was requested."""


class UnderResolvedError(BN6Error):
    """Grid spacing is too coarse for the concentration scale."""


class BranchLostError(BN6Error):
    """Continuation failed to re-bracket the branch at the next amplitude."""


class AllPointsExcludedError(BN6Error):
    """No critical-level point supports a bubble construction.

    Raised by reduction.case1_parameters when v(0) = 1/2 leaves the
    fixed-center construction at the center without a parameter sign.
    """


class ConfigError(BN6Error):
    """Malformed run configuration."""

"""Exception types shared across the library."""


class XferlabError(Exception):
    """Base class for all library errors."""


class CarrierMismatchError(XferlabError, ValueError):
    """Two objects were combined that live on different carriers."""


class DegreeOverflowError(XferlabError, ValueError):
    """A circle-algebra operation would exceed the configured Fourier degree.

    Silent truncation is forbidden: every circle identity is exact inside the
    truncation, so overflow must surface as an error.
    """


class NoEndomorphismError(XferlabError, ValueError):
    """An operation requiring an endomorphism was called on a carrier without one."""


class NotHarmonicError(XferlabError, ValueError):
    """The supplied function is not a fixed point of the operator."""


class EnsembleRequiredError(XferlabError, ValueError):
    """A black-box path function can only be integrated against sampled paths."""


class NormalizationError(XferlabError, ValueError):
    """A kernel, row, or filter violates its normalization constraint."""


class ConvergenceError(XferlabError):
    """A solver could not certify its result: a singular solve, a failed certificate, or no clear gap."""


class ReducibleChainWarning(UserWarning):
    """The stationary distribution is not unique; an arbitrary fixed point is returned."""

"""Exception types shared across the package."""


class CaosimError(Exception):
    """Base class for all package-specific errors."""


class InvalidParameterError(CaosimError):
    """A model parameter is non-finite or out of its allowed range."""


class PropagatorOverflowError(CaosimError):
    """A propagator entry exceeded the configured magnitude cap.

    The requested time is too deep into exponential instability for raw
    moments to be representable; use normalized long-time extraction instead.
    """

    def __init__(self, t, max_entry, cap):
        super().__init__(
            f"propagator entry magnitude {max_entry:.3e} exceeds cap {cap:.3e} "
            f"at t={t}"
        )
        self.t = t
        self.max_entry = max_entry
        self.cap = cap


class UndefinedCorrelationError(CaosimError):
    """A normalized correlation is 0/0 because an occupation is below threshold."""

    def __init__(self, which, occupation, threshold):
        super().__init__(
            f"correlation {which} undefined: occupation {occupation:.3e} "
            f"<= threshold {threshold:.3e}"
        )
        self.which = which
        self.occupation = occupation
        self.threshold = threshold


class TruncationError(CaosimError):
    """Fock-space truncation is too small for the requested state or evolution."""

    def __init__(self, message, tail_mass=None):
        super().__init__(message)
        self.tail_mass = tail_mass


class NonConvergenceError(CaosimError):
    """Long-time extraction failed to converge; carries the last window stats."""

    def __init__(self, message, last_window=None):
        super().__init__(message)
        self.last_window = last_window

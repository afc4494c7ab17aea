"""Linear quantum dynamics and photon statistics of the trapped-atom recoil laser.

The package propagates the coupled atom-photon Gaussian state of the
cavity-atom-optics regime, classifies the instability of the underlying
linear system, computes second-order correlations with their classical and
quantum bounds, and validates everything against a brute-force truncated
Fock-space oracle.
"""

from .errors import (
    CaosimError,
    InvalidParameterError,
    NonConvergenceError,
    PropagatorOverflowError,
    TruncationError,
    UndefinedCorrelationError,
)
from .model import (
    CONJUGATION_PERM,
    SYMPLECTIC_FORM,
    DriftGenerator,
    ModelParams,
    Regime,
    RegimeReport,
    ThresholdKind,
    build_generator,
    classify_regime,
    eigenfrequencies,
)
from .propagator import Propagator, green_function, green_stack, verify_propagator
from .gaussian import (
    ATOM,
    ATOM_DAG,
    LIGHT,
    LIGHT_DAG,
    GaussianState,
    OpticalInit,
    coherent_states,
    evolve,
    initial_state,
    moment4,
    occupation,
)
from .observables import (
    OCCUPATION_THRESHOLD,
    CorrelationRecord,
    LongTimeWindows,
    OscillationSummary,
    correlation_record,
    evaluate,
    long_time_g2,
    records,
    threshold_g2,
)

__version__ = "0.1.0"

# The Fock oracle's names load on first use (PEP 562): its sparse-matrix
# library would otherwise be most of the package's import time.
_FOCK_NAMES = frozenset({
    "FockConfig",
    "FockState",
    "coherent_fock",
    "evolve_fock",
    "oracle_observables",
    "oracle_records",
})


def __getattr__(name):
    if name in _FOCK_NAMES:
        from . import fock

        return getattr(fock, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

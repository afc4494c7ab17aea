"""Drift generator of the linear atom-photon system and regime classification.

The coupled side-mode / probe dynamics is linear in the operator vector
x = (c, c†, a, a†) and reads d/dt x = i M x with a real 4x4 generator M
determined by two dimensionless numbers: the pump-probe detuning ``delta``
and the atom-photon coupling ``chi`` (time is measured in units of the
inverse trap-mode frequency).
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError

# Commutator metric J_pq = <[x_p, x_q]>: [c, c†] = [a, a†] = 1.
SYMPLECTIC_FORM = np.array(
    [
        [0.0, 1.0, 0.0, 0.0],
        [-1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [0.0, 0.0, -1.0, 0.0],
    ]
)

# Index swap c <-> c†, a <-> a† (hermitian conjugation of the operator vector).
CONJUGATION_PERM = np.array(
    [
        [0.0, 1.0, 0.0, 0.0],
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [0.0, 0.0, 1.0, 0.0],
    ]
)


class Regime(enum.Enum):
    """Stability class of the eigenfrequency spectrum."""

    STABLE_I = "i"
    SINGLE_EXPONENTIAL_II = "ii"
    BEATING_EXPONENTIAL_III = "iii"
    DEGENERATE_THRESHOLD_IV = "iv"


class ThresholdKind(enum.Enum):
    """Which critical condition puts the parameters on the instability threshold."""

    DELTA_ZERO = "delta=0"
    DELTA_FOUR_CHI_SQ = "delta=4*chi^2"
    NEGATIVE_DELTA_SURFACE = "(1-delta^2)^2/|delta|=16*chi^2"


@dataclass(frozen=True)
class ModelParams:
    """Dimensionless detuning and coupling defining the linear system.

    Any coupling phase is absorbed into the probe-operator phase convention,
    so ``chi`` is nonnegative by construction.
    """

    delta: float
    chi: float

    def __post_init__(self):
        if not (math.isfinite(self.delta) and math.isfinite(self.chi)):
            raise InvalidParameterError(
                f"parameters must be finite, got delta={self.delta}, chi={self.chi}"
            )
        if self.chi < 0:
            raise InvalidParameterError(f"chi must be >= 0, got {self.chi}")


@dataclass(frozen=True)
class DriftGenerator:
    """The real matrix M with d/dt x = i M x for x = (c, c†, a, a†)."""

    matrix: np.ndarray
    params: ModelParams


@dataclass(frozen=True)
class RegimeReport:
    """Eigenfrequencies of M together with the stability classification.

    ``omega`` (oscillation frequency) and ``gamma`` (growth rate) are set for
    the unstable regimes ii and iii; ``threshold_kind`` is set for regime iv.
    """

    eigenfrequencies: np.ndarray
    regime: Regime
    omega: float | None = None
    gamma: float | None = None
    threshold_kind: ThresholdKind | None = None


def build_generator(params: ModelParams) -> DriftGenerator:
    """Construct the drift generator M for the given parameters."""
    d, chi = params.delta, params.chi
    m = np.array(
        [
            [-1.0, 0.0, -chi, -chi],
            [0.0, 1.0, chi, chi],
            [-chi, -chi, -d, 0.0],
            [chi, chi, 0.0, d],
        ]
    )
    m.setflags(write=False)
    return DriftGenerator(matrix=m, params=params)


def eigenfrequencies(gen: DriftGenerator) -> np.ndarray:
    """Eigenfrequencies omega_k of the generator (solutions evolve as e^{i omega t})."""
    return np.linalg.eigvals(gen.matrix)


def _critical_condition(d, chi, tol: float) -> ThresholdKind | None:
    """The threshold surface that (d, chi) lies on within the band ``tol``, or None.

    Each band scales with the quantities it compares. On delta = 0 that is
    delta alone, and its scale max(1, |delta|) is 1 inside the band: a large
    coupling does not widen it.
    """
    if abs(d) <= tol:
        return ThresholdKind.DELTA_ZERO
    if abs(d - 4.0 * chi**2) <= tol * max(1.0, abs(d), 4.0 * chi**2):
        return ThresholdKind.DELTA_FOUR_CHI_SQ
    if d < 0.0:
        lhs = (1.0 - d**2) ** 2
        rhs = 16.0 * chi**2 * abs(d)
        if abs(lhs - rhs) <= tol * max(1.0, lhs, rhs):
            return ThresholdKind.NEGATIVE_DELTA_SURFACE
    return None


@np.errstate(over="raise")  # no intermediate may pass the range of doubles
def classify_regime(gen: DriftGenerator, tol: float = 1e-9) -> RegimeReport:
    """Classify the stability regime from the characteristic polynomial of M.

    The eigenfrequencies solve w^4 - (1 + delta^2) w^2 + delta (delta - 4 chi^2)
    = 0, whose discriminant in w^2 is D = (1 - delta^2)^2 + 16 chi^2 delta. By sign:

    - iv: on delta = 0, delta = 4 chi^2 or (at delta < 0) D = 0, within the
      roundoff band ``tol``, which must lie in (0, 1e-6];
    - iii: else if delta < 0 and D < 0, with omega + i gamma the root
      sqrt((1 + delta^2 + i sqrt(-D)) / 2);
    - ii: else if 0 < delta < 4 chi^2, with omega^2 = (1 + delta^2 + sqrt D) / 2
      and gamma^2 = -delta (delta - 4 chi^2) / omega^2 (no cancellation);
    - i: every other point, where both roots w^2 are positive.

    ``eigenfrequencies`` are LAPACK's, for display only. An intermediate past
    the range of doubles (4 chi^2 at chi=1e154) raises FloatingPointError.
    """
    if not 0 < tol <= 1e-6:
        raise InvalidParameterError(
            f"tol is a roundoff band and must be in (0, 1e-6], got {tol}"
        )
    d, chi = np.float64(gen.params.delta), np.float64(gen.params.chi)
    kind = _critical_condition(d, chi, tol)
    freqs = eigenfrequencies(gen)
    if kind is not None:
        return RegimeReport(freqs, Regime.DEGENERATE_THRESHOLD_IV, threshold_kind=kind)
    if d > 4.0 * chi**2:  # both roots w^2 are positive; D may be past the doubles
        return RegimeReport(freqs, Regime.STABLE_I)
    disc = (1.0 - d**2) ** 2 + 16.0 * chi**2 * d
    if d > 0.0:
        w2 = (1.0 + d**2 + math.sqrt(disc)) / 2.0
        return RegimeReport(freqs, Regime.SINGLE_EXPONENTIAL_II, math.sqrt(w2),
                            math.sqrt(-d * (d - 4.0 * chi**2) / w2))
    if disc < 0.0:
        w = cmath.sqrt(complex(1.0 + d**2, math.sqrt(-disc)) / 2.0)
        return RegimeReport(freqs, Regime.BEATING_EXPONENTIAL_III, w.real, w.imag)
    return RegimeReport(freqs, Regime.STABLE_I)

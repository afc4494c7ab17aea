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


#: The roundoff band of the threshold surfaces: the default ``tol`` of
#: :func:`classify_regime`, which ``threshold_g2`` and ``caosim classify`` use.
THRESHOLD_BAND = 1e-9


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
    """The spectrum of M together with the stability classification.

    ``roots`` are the two roots w^2 of the characteristic polynomial (see
    :func:`characteristic_roots`), the larger first, as numpy scalars: long
    double where they were taken in it, so that w1^2 = delta^2 past the
    range of doubles (delta > 1.34e154) keeps its value; ``omega`` (oscillation
    frequency) and ``gamma`` (growth rate) are set for the unstable regimes
    ii and iii; ``threshold_kind`` is set for regime iv.
    """

    roots: tuple
    regime: Regime
    omega: float | None = None
    gamma: float | None = None
    threshold_kind: ThresholdKind | None = None

    @property
    def frequencies(self) -> np.ndarray:
        """The four eigenfrequencies w of M (solutions evolve as e^{i w t}):
        +sqrt(w1^2), -sqrt(w1^2), +sqrt(w2^2), -sqrt(w2^2), with the principal
        square root and w1^2 the larger root.

        The list is closed under complex conjugation: a negative w^2 gives
        +-i sqrt|w^2|, and complex roots (regime iii) are a conjugate pair,
        so conjugation swaps the first pair with the second.
        """
        w1, w2 = map(_principal_sqrt, self.roots)
        return np.array([w1, -w1, w2, -w2]) + 0.0  # + 0.0: no signed zeros


def _principal_sqrt(w) -> complex:
    """The principal square root of ``w``; of a root past the range of
    doubles it is taken in long double, since the square root is in range."""
    z = complex(w)
    return cmath.sqrt(z) if cmath.isfinite(z) else complex(np.sqrt(np.clongdouble(w)))


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


def characteristic_roots(d, chi):
    """The roots w^2 of w^4 - s w^2 + p, with s = 1 + delta^2 and
    p = delta (delta - 4 chi^2), and its discriminant D = s^2 - 4 p =
    (1 - delta^2)^2 + 16 chi^2 delta, as ``(w1^2, w2^2, D)``.

    ``d`` and ``chi`` are numpy scalars of one float type, which the results
    keep: :func:`classify_regime` passes float64, the propagator long double.
    For D >= 0 the larger root is w1^2 = (s + sqrt D) / 2 and the smaller
    w2^2 = p / w1^2, which has no cancellation; for D < 0 the roots are the
    conjugate pair w1^2 = (s + i sqrt(-D)) / 2 and its conjugate.
    """
    s = 1 + d**2
    disc = (1 - d**2) ** 2 + 16 * chi**2 * d
    if disc >= 0:
        w1 = (s + np.sqrt(disc)) / 2
        return w1, d * (d - 4 * chi**2) / w1, disc
    w1 = (s + 1j * np.sqrt(-disc)) * 0.5
    return w1, np.conj(w1), disc


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
def classify_regime(gen: DriftGenerator, tol: float = THRESHOLD_BAND) -> RegimeReport:
    """Classify the stability regime from the characteristic polynomial of M.

    The eigenfrequencies solve w^4 - (1 + delta^2) w^2 + delta (delta - 4 chi^2)
    = 0, whose discriminant in w^2 is D = (1 - delta^2)^2 + 16 chi^2 delta. By sign:

    - iv: on delta = 0, delta = 4 chi^2 or (at delta < 0) D = 0, within the
      roundoff band ``tol``, which must lie in (0, 1e-6];
    - iii: else if delta < 0 and D < 0, with omega + i gamma the root
      sqrt((1 + delta^2 + i sqrt(-D)) / 2);
    - ii: else if 0 < delta < 4 chi^2, with omega^2 = w1^2 = (1 + delta^2 + sqrt D) / 2
      and gamma^2 = -w2^2 = -delta (delta - 4 chi^2) / omega^2;
    - i: every other point, where both roots w^2 are positive.

    ``roots`` are the two roots w^2 from :func:`characteristic_roots`, which
    the propagator uses too; where chi^2 or D pass the range of doubles they
    are taken in long double. Regimes i and iv need no root in doubles; rates
    from a root past their range (w1^2 at delta > 1.34e154 in regime ii), or
    an intermediate of the threshold test past it (4 chi^2 off delta=0 at
    chi=1e154), raise FloatingPointError.
    """
    if not 0 < tol <= 1e-6:
        raise InvalidParameterError(
            f"tol is a roundoff band and must be in (0, 1e-6], got {tol}"
        )
    d, chi = np.float64(gen.params.delta), np.float64(gen.params.chi)
    kind = _critical_condition(d, chi, tol)
    try:
        w1sq, w2sq, disc = characteristic_roots(d, chi)
    except FloatingPointError:  # chi^2 or D past the doubles, as at delta=0, chi=1e154
        w1sq, w2sq, disc = characteristic_roots(np.longdouble(d), np.longdouble(chi))
    roots = (w1sq, w2sq)
    if kind is not None:
        return RegimeReport(roots, Regime.DEGENERATE_THRESHOLD_IV, threshold_kind=kind)
    if d > 4.0 * chi**2:  # both roots w^2 are positive
        return RegimeReport(roots, Regime.STABLE_I)
    if not all(cmath.isfinite(complex(w)) for w in roots):
        raise FloatingPointError("the roots w^2 pass the range of doubles")
    if d > 0.0:  # w2^2 = p / w1^2 < 0: no cancellation in gamma
        return RegimeReport(roots, Regime.SINGLE_EXPONENTIAL_II, math.sqrt(w1sq),
                            math.sqrt(-w2sq))
    if disc < 0.0:
        w = cmath.sqrt(w1sq)
        return RegimeReport(roots, Regime.BEATING_EXPONENTIAL_III, w.real, w.imag)
    return RegimeReport(roots, Regime.STABLE_I)

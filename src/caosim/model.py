"""Drift generator of the linear atom-photon system and regime classification.

The coupled side-mode / probe dynamics is linear in the operator vector
x = (c, c†, a, a†) and reads d/dt x = i M x with a real 4x4 generator M
determined by two dimensionless numbers: the pump-probe detuning ``delta``
and the atom-photon coupling ``chi`` (time is measured in units of the
inverse trap-mode frequency).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ClassificationError, InvalidParameterError

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
    degenerate_pairs: tuple = field(default=(), repr=False)


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


def _param_scale(params: ModelParams) -> float:
    return max(1.0, abs(params.delta), 4.0 * params.chi**2)


def _critical_condition(params: ModelParams, tol: float) -> ThresholdKind | None:
    d, chi = params.delta, params.chi
    pscale = _param_scale(params)
    if abs(d) <= tol * pscale:
        return ThresholdKind.DELTA_ZERO
    if abs(d - 4.0 * chi**2) <= tol * pscale:
        return ThresholdKind.DELTA_FOUR_CHI_SQ
    if d < 0.0:
        lhs = (1.0 - d**2) ** 2
        rhs = 16.0 * chi**2 * abs(d)
        if abs(lhs - rhs) <= tol * max(1.0, lhs, rhs):
            return ThresholdKind.NEGATIVE_DELTA_SURFACE
    return None


def classify_regime(gen: DriftGenerator, tol: float = 1e-9) -> RegimeReport:
    """Classify the stability regime from the spectrum of the generator.

    Threshold (regime iv) parameters are detected algebraically on
    (delta, chi) first, because the exact critical conditions are far
    better conditioned than detecting an eigenvalue collision; the spectral
    degeneracy is then confirmed with a square-root-widened tolerance
    (eigenvalues of a defective matrix split as the square root of the
    perturbation). The window 4 sqrt(tol) scale uses the parameter scale of
    the algebraic test. It is twice the largest split that test admits: near
    delta=0 the split is 4 chi sqrt|delta|, which reaches 2 sqrt(tol) scale
    at the edge of the test, and near delta=4 chi^2 it is at most
    1.42 sqrt|delta - 4 chi^2|.
    """
    # at tol >= 1 the algebraic test holds for every delta: all would be iv
    if not 0 < tol < 1:
        raise InvalidParameterError(f"tol must be in (0, 1), got {tol}")
    freqs = eigenfrequencies(gen)
    scale = max(float(np.max(np.abs(freqs))), 1.0)

    kind = _critical_condition(gen.params, tol)
    if kind is not None:
        degen_tol = 4.0 * math.sqrt(tol) * _param_scale(gen.params)
        pairs = tuple(
            (i, j)
            for i in range(4)
            for j in range(i + 1, 4)
            if abs(freqs[i] - freqs[j]) <= degen_tol
        )
        if not pairs:
            raise ClassificationError(
                f"parameters satisfy critical condition {kind.value} but the "
                f"spectrum {freqs} shows no degeneracy within {degen_tol:.3e}"
            )
        return RegimeReport(
            eigenfrequencies=freqs,
            regime=Regime.DEGENERATE_THRESHOLD_IV,
            threshold_kind=kind,
            degenerate_pairs=pairs,
        )

    re = np.where(np.abs(freqs.real) <= tol * scale, 0.0, freqs.real)
    im = np.where(np.abs(freqs.imag) <= tol * scale, 0.0, freqs.imag)

    if np.all(im == 0.0):
        return RegimeReport(eigenfrequencies=freqs, regime=Regime.STABLE_I)

    real_only = (im == 0.0) & (re != 0.0)
    imag_only = (re == 0.0) & (im != 0.0)
    if np.count_nonzero(real_only) == 2 and np.count_nonzero(imag_only) == 2:
        return RegimeReport(
            eigenfrequencies=freqs,
            regime=Regime.SINGLE_EXPONENTIAL_II,
            omega=float(np.max(np.abs(re[real_only]))),
            gamma=float(np.max(im[imag_only])),
        )
    if np.all((re != 0.0) & (im != 0.0)):
        return RegimeReport(
            eigenfrequencies=freqs,
            regime=Regime.BEATING_EXPONENTIAL_III,
            omega=float(np.max(np.abs(re))),
            gamma=float(np.max(im)),
        )
    raise ClassificationError(
        f"spectrum {freqs} matches no regime pattern at tol={tol}"
    )

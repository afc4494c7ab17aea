"""Gaussian state of the atom-photon pair: means, ordered second moments, Wick.

The initial condition is atomic vacuum tensor an optical coherent state with
amplitude alpha = |alpha| e^{-i phi} (note the minus sign in the exponent).
Linear evolution keeps the state Gaussian, so every higher operator moment
follows from the mean vector and the ordered second-moment matrix
S_ij = <dx_i dx_j> by the Isserlis/Wick expansion.

S is deliberately kept in operator order (not symmetrized): the correlators
of interest are normally-ordered products, and ordered moments make the
contraction bookkeeping direct and sign-free.

A state may carry leading batch axes, ``mean[..., 4]`` and ``smat[..., 4, 4]``,
whose batch shapes broadcast against each other: a grid of coherent seeds
shares one vacuum ``smat``, and a stack of propagators ``G[..., 4, 4]`` maps
one state to one state per time. ``evolve``, ``occupation`` and ``moment4``
work elementwise over those axes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import InvalidParameterError
from .propagator import Propagator

# Operator labels for moment index tuples (1-based, matching x_1..x_4).
ATOM, ATOM_DAG, LIGHT, LIGHT_DAG = 1, 2, 3, 4

# The six single contractions (a, b) of four slots with the two slots (c, d)
# left to their means, and the three full pairings; contractions take the
# earlier operator first, so each pair is (earlier, later).
_SINGLES = tuple(
    (a, b, *(k for k in range(4) if k not in (a, b)))
    for a, b in combinations(range(4), 2)
)
_FULL_PAIRINGS = (
    (((0, 1), (2, 3))),
    (((0, 2), (1, 3))),
    (((0, 3), (1, 2))),
)


_VACUUM_SMAT = np.zeros((4, 4), dtype=complex)
_VACUUM_SMAT[0, 1] = 1.0
_VACUUM_SMAT[2, 3] = 1.0
_VACUUM_SMAT.setflags(write=False)


@dataclass(frozen=True)
class OpticalInit:
    """Initial coherent amplitude of the light field, alpha = amp * e^{-i phase}."""

    amp: float
    phase: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.amp) and math.isfinite(self.phase)):
            raise InvalidParameterError("amp and phase must be finite")
        if self.amp < 0:
            raise InvalidParameterError(f"amp must be >= 0, got {self.amp}")
        object.__setattr__(self, "phase", self.phase % (2.0 * math.pi))

    @property
    def alpha(self) -> complex:
        return self.amp * np.exp(-1j * self.phase)

    @property
    def intensity(self) -> float:
        return self.amp**2


@dataclass(frozen=True)
class GaussianState:
    """Mean vector and ordered second-moment matrix of (c, c†, a, a†)."""

    mean: np.ndarray
    smat: np.ndarray


def initial_state(init: OpticalInit) -> GaussianState:
    """Atomic vacuum tensor optical coherent state.

    The coherent displacement carries all the alpha-dependence; the
    fluctuation moments are the two-mode vacuum pattern S_12 = S_34 = 1.
    """
    return coherent_states(init.amp, init.phase)


def coherent_states(amp, phase) -> GaussianState:
    """Initial states batched over the broadcast shape of ``amp`` and ``phase``.

    The amplitudes are alpha = amp * e^{-i phase}, as for :class:`OpticalInit`,
    but unchecked: the caller keeps ``amp`` finite and >= 0. Every state
    shares the vacuum fluctuation matrix.
    """
    alpha = np.multiply(amp, np.exp(-1j * np.mod(phase, 2.0 * math.pi)))
    mean = np.zeros(alpha.shape + (4,), dtype=complex)
    mean[..., 2] = alpha
    mean[..., 3] = np.conj(alpha)
    mean.setflags(write=False)
    return GaussianState(mean=mean, smat=_VACUUM_SMAT)


def evolve(s0: GaussianState, p: Propagator, smat=None) -> GaussianState:
    """Push means and second moments through the Green's function.

    mean(t) = G mean(0) and S(t) = G S(0) G^T (plain transpose: the ordered
    moments transform bilinearly, with no conjugation). ``p.gmat`` may be a
    stack ``[..., 4, 4]`` that broadcasts against the batch axes of ``s0``.
    ``smat``, when given, is S(t) already evolved through the same ``p``
    from a state with the fluctuations of ``s0`` (seeds that share the
    vacuum share it), and only the means are pushed through.
    """
    g = p.gmat
    gt = np.swapaxes(g, -1, -2)
    mean = s0.mean @ gt
    if smat is None:
        smat = g @ s0.smat @ gt
        smat.setflags(write=False)
    mean.setflags(write=False)
    return GaussianState(mean=mean, smat=smat)


def moment4(s: GaussianState, indices: tuple[int, int, int, int]) -> complex:
    """Ordered fourth moment <x_{i1} x_{i2} x_{i3} x_{i4}> by Wick expansion.

    ``indices`` are operator labels in 1..4 in the order the operators appear
    in the product. The expansion is the Isserlis formula with means: the
    product of the four means, plus the six single contractions times the two
    remaining means, plus the three order-respecting full pairings. The
    result is complex, with the batch shape of ``s``.
    """
    idx = tuple(i - 1 for i in indices)
    if any(i not in (0, 1, 2, 3) for i in idx):
        raise InvalidParameterError(f"indices must be in 1..4, got {indices}")
    # [()] turns the 0-d views of an unbatched state into fast scalars.
    mu = [s.mean[..., i][()] for i in idx]
    pair = {(a, b): s.smat[..., idx[a], idx[b]][()] for a, b, _, _ in _SINGLES}

    total = mu[0] * mu[1] * mu[2] * mu[3]
    for a, b, c, d in _SINGLES:
        total = total + pair[a, b] * mu[c] * mu[d]
    for ab, cd in _FULL_PAIRINGS:
        total = total + pair[ab] * pair[cd]
    return total


def occupation(s: GaussianState, mode: str) -> float:
    """Mean excitation number <x† x> of the atomic or optical mode (real)."""
    if mode == "atomic":
        p, q = 0, 1
    elif mode == "optical":
        p, q = 2, 3
    else:
        raise InvalidParameterError(f"mode must be 'atomic' or 'optical', got {mode!r}")
    return (abs(s.mean[..., p][()]) ** 2 + s.smat[..., q, p][()]).real

"""Green's-function matrix G(t) solving the linear Heisenberg system.

G(t) maps initial operators to evolved ones, x_i(t) = sum_j G(t)_ij x_j(0),
and is computed as the matrix exponential of i*M*t by scaling and squaring.
This single code path is exact (up to roundoff) in every regime, including
the degenerate thresholds where the secular polynomial-in-t growth emerges
automatically from the exponential of a non-diagonalizable generator.

The exponential is evaluated in the quadrature basis, where the generator is
real; this makes the conjugation symmetry K G K = conj(G) hold exactly by
construction instead of only up to roundoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .errors import InvalidParameterError, PropagatorOverflowError
from .model import CONJUGATION_PERM, SYMPLECTIC_FORM, DriftGenerator

# Second moments scale like the square of a Green-function entry and the
# fourth-moment sums multiply two of those, so entries must stay below
# roughly 1e77 for downstream statistics to remain finite in doubles.
DEFAULT_ENTRY_CAP = 1e75

_SQ = 1.0 / math.sqrt(2.0)
# (c, c†) = B (q, p) per mode; x = T z with z the quadrature vector.
_B = np.array([[_SQ, 1j * _SQ], [_SQ, -1j * _SQ]])
_TO_LADDER = np.block(
    [[_B, np.zeros((2, 2))], [np.zeros((2, 2)), _B]]
)
_TO_QUAD = np.linalg.inv(_TO_LADDER)


@dataclass(frozen=True)
class Propagator:
    """G(t) for one generator at one time; immutable and freely shareable.

    A stack of propagators at several times is the same object with ``t`` an
    array of times and ``gmat`` of shape ``[len(t), 4, 4]``.
    """

    t: float
    gmat: np.ndarray
    generator: DriftGenerator


def green_function(
    gen: DriftGenerator, t: float, entry_cap: float = DEFAULT_ENTRY_CAP
) -> Propagator:
    """Compute G(t) = exp(i M t).

    Raises :class:`PropagatorOverflowError` when any entry magnitude exceeds
    ``entry_cap``: the requested time is too deep into exponential
    instability for raw moments to be representable.
    """
    if not math.isfinite(t):
        raise InvalidParameterError(f"t must be finite, got {t}")
    quad_gen = (_TO_QUAD @ (1j * gen.matrix) @ _TO_LADDER).real
    gmat = _TO_LADDER @ expm(quad_gen * t) @ _TO_QUAD
    max_entry = float(np.max(np.abs(gmat)))
    if not math.isfinite(max_entry) or max_entry > entry_cap:
        raise PropagatorOverflowError(t=t, max_entry=max_entry, cap=entry_cap)
    gmat.setflags(write=False)
    return Propagator(t=t, gmat=gmat, generator=gen)


def verify_propagator(p: Propagator) -> list[tuple[str, float]]:
    """Residuals of the structural invariants of G(t).

    Returns (name, residual) pairs for the symplectic, conjugation and
    composition checks; the composition residual compares G(t) against
    G(t/2)^2 relative to the magnitude of G(t).
    """
    g = p.gmat
    j = SYMPLECTIC_FORM
    k = CONJUGATION_PERM
    symplectic = float(np.max(np.abs(g @ j @ g.T - j)))
    conjugation = float(np.max(np.abs(k @ g @ k - np.conj(g))))
    half = green_function(p.generator, p.t / 2.0).gmat
    scale = max(float(np.max(np.abs(g))), 1.0)
    composition = float(np.max(np.abs(g - half @ half))) / scale
    return [
        ("symplectic", symplectic),
        ("conjugation", conjugation),
        ("composition", composition),
    ]

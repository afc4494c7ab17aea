"""Green's-function matrix G(t) solving the linear Heisenberg system.

G(t) maps initial operators to evolved ones, x_i(t) = sum_j G(t)_ij x_j(0),
and is computed as the matrix exponential of i*M*t by Pade-13 scaling and
squaring (Higham, SIAM J. Matrix Anal. Appl. 26, 1179 (2005)), for a whole
stack of times in one batched numpy call.
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

# Pade-13 coefficients b_k / b_0 (Higham 2005, Table 2.3), so that the
# constant term is I: the raw b_0 ~ 6.5e16 costs digits over many squarings.
_PADE13 = np.array([
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0,
    670442572800.0, 33522128640.0, 1323241920.0, 40840800.0, 960960.0,
    16380.0, 182.0, 1.0,
]) / 64764752532480000.0
# Largest 1-norm at which the degree-13 approximant meets unit roundoff.
_THETA13 = 5.371920351148152


def _expm(a: np.ndarray) -> np.ndarray:
    """exp of every slice of a real stack ``a`` of shape ``[n, 4, 4]``.

    Each slice is scaled by ``2**-s``, with ``s`` the least non-negative
    integer that brings its 1-norm under ``_THETA13``, and squared back ``s``
    times; the squarings are masked per slice, so every slice equals its own
    one-slice result bitwise. A slice whose 1-norm is not finite is NaN.
    """
    norm = np.abs(a).sum(axis=-2).max(axis=-1)
    finite = np.isfinite(norm)
    a = np.where(finite[:, None, None], a, 0.0)
    # s = ceil(log2(norm / theta)) from the binary exponent, with no log of 0
    mant, s = np.frexp(np.where(finite, norm, 0.0) / _THETA13)
    s = np.maximum(s - (mant == 0.5), 0)
    a = np.ldexp(a, -s[:, None, None])
    b = _PADE13
    eye = np.eye(4)
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye)
    r = np.linalg.solve(v - u, v + u)
    for k in range(int(s.max(initial=0))):
        sq = s > k
        r[sq] = r[sq] @ r[sq]
    r[~finite] = np.nan
    return r


@dataclass(frozen=True)
class Propagator:
    """G(t) for one generator at one time; immutable and freely shareable.

    A stack of propagators at several times is the same object with ``t`` an
    array of times and ``gmat`` of shape ``[len(t), 4, 4]``.
    """

    t: float
    gmat: np.ndarray
    generator: DriftGenerator


def green_stack(
    gen: DriftGenerator,
    times,
    entry_cap: float = DEFAULT_ENTRY_CAP,
    strict: bool = True,
) -> Propagator:
    """Compute G(t) = exp(i M t) for every time of ``times``, of any shape.

    One batched Pade-13 scaling-and-squaring evaluation covers the whole
    stack, with the scaling chosen per slice, so every slice equals the
    single-time result bitwise. ``t`` of the result is the array of times and
    ``gmat`` has shape ``times.shape + (4, 4)``.

    Raises :class:`PropagatorOverflowError` for the first time, in C order,
    at which any entry magnitude exceeds ``entry_cap`` or is not finite: that
    time is too deep into exponential instability for raw moments to be
    representable. With ``strict=False`` the slice of such a time is NaN
    instead, so everything computed from it is NaN.
    """
    times = np.asarray(times, dtype=float)
    flat = times.reshape(-1)
    bad_t = ~np.isfinite(flat)
    if bad_t.any():
        raise InvalidParameterError(f"t must be finite, got {flat[np.argmax(bad_t)]}")
    # past the cap the generator or the squarings overflow to inf and NaN;
    # the cap reports it
    with np.errstate(over="ignore", invalid="ignore"):
        quad_gen = (_TO_QUAD @ (1j * gen.matrix) @ _TO_LADDER).real
        gmat = _TO_LADDER @ _expm(quad_gen * flat[:, None, None]) @ _TO_QUAD
        max_entry = np.max(np.abs(gmat), axis=(-2, -1), initial=0.0)
    over = ~(max_entry <= entry_cap)
    if over.any():
        k = int(np.argmax(over))
        if strict:
            raise PropagatorOverflowError(
                t=float(flat[k]), max_entry=float(max_entry[k]), cap=entry_cap
            )
        gmat[over] = np.nan
    gmat = gmat.reshape(times.shape + (4, 4))
    gmat.setflags(write=False)
    return Propagator(t=times, gmat=gmat, generator=gen)


def green_function(
    gen: DriftGenerator, t: float, entry_cap: float = DEFAULT_ENTRY_CAP
) -> Propagator:
    """Compute G(t) = exp(i M t) at one time: the one-time view of
    :func:`green_stack`, with ``gmat`` of shape ``[4, 4]``.

    Raises :class:`InvalidParameterError` for a non-finite ``t``, and
    :class:`PropagatorOverflowError` when any entry magnitude exceeds
    ``entry_cap``.
    """
    return Propagator(t=t, gmat=green_stack(gen, t, entry_cap).gmat, generator=gen)


def _largest_finite(residual: np.ndarray, scale=1.0) -> float:
    """The largest finite ``max |residual| / scale`` over the slices, or NaN if none."""
    per_slice = np.max(np.abs(residual), axis=(-2, -1)) / scale
    finite = per_slice[np.isfinite(per_slice)]
    return float(finite.max()) if finite.size else math.nan


def verify_propagator(p: Propagator) -> list[tuple[str, float]]:
    """Residuals of the structural invariants of G(t).

    Returns (name, residual) pairs for the symplectic, conjugation and
    composition checks; the composition residual compares G(t) against
    G(t/2)^2 relative to the magnitude of G(t). For a stack each residual is
    the largest over its times. The NaN slices of a lenient stack (see
    :func:`green_stack`) are left out, and a residual that no slice gives is
    NaN.
    """
    g = p.gmat
    j = SYMPLECTIC_FORM
    k = CONJUGATION_PERM
    half = green_stack(p.generator, p.t / 2.0, strict=False).gmat
    scale = np.maximum(np.max(np.abs(g), axis=(-2, -1)), 1.0)
    return [
        ("symplectic", _largest_finite(g @ j @ np.swapaxes(g, -1, -2) - j)),
        ("conjugation", _largest_finite(k @ g @ k - np.conj(g))),
        ("composition", _largest_finite(g - half @ half, scale)),
    ]

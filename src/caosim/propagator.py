"""Green's-function matrix G(t) solving the linear Heisenberg system.

G(t) maps initial operators to evolved ones, x_i(t) = sum_j G(t)_ij x_j(0).
G(t) = exp(i M t) is taken in closed form from the characteristic polynomial
of the generator (Putzer, Amer. Math. Monthly 73, 2 (1966); Moler & Van Loan,
SIAM Rev. 45, 3 (2003)), for a whole stack of times at once.

(i M)^2 = -M^2 has the two eigenvalues mu_k = -w_k^2, where w_k^2 are the
roots of w^4 - s w^2 + p that :func:`classify_regime` decides from
(:func:`characteristic_roots`). By Cayley-Hamilton

    exp(i M t) = F0(-M^2) + i M F1(-M^2),
    F0(x) = cosh(sqrt(x) t),  F1(x) = sinh(sqrt(x) t) / sqrt(x),

and each F(-M^2) is the two-node interpolant F(mu1) I + F[mu1, mu2] N with
N = w1^2 I - M^2 and F[mu1, mu2] the divided difference. So

    G(t) = a0 I + b0 N + i (a1 M + b1 M N),

four real weights per time on four fixed real matrices. This one path holds
in every regime: on the thresholds, where a root is 0 or the two coincide,
the divided differences become derivatives and give the secular growth in t.

- The fixed matrices. The base node w1^2 is the larger root, the fast mode,
  on which N vanishes; the slow mode, which grows in regime ii, enters only
  through N and M N. Their entries are written out in (delta, chi), with
  the one cancellation, w1^2 - delta^2 or w1^2 - 1, taken as 4 chi^2 delta
  over its partner. So no entry of size delta is weighted by a growing
  function and then cancelled. For the conjugate roots of regime iii the
  base is Re(w1^2), which keeps every matrix and weight real.
- The weights. Let a = sqrt(mu1) t and b = sqrt(mu2) t, with the sign of b
  such that |a - b| <= |a + b|. Let u, v = (a + b)/2, (a - b)/2 and
  shc(z) = sinh(z)/z. Then F0(mu1) = cosh a, F1(mu1) = t shc a,
  F0[mu1, mu2] = (t^2/2) shc u shc v, and
  F1[mu1, mu2] = t^3 (shc a - shc b) / (a^2 - b^2). As the roots meet
  (D -> 0, |v| < 1/2) the last is (cosh u shc v - shc u cosh v) / (2 a b),
  and for |u| < 1 a power series in a^2 and b^2.
- The phases. The imaginary parts of a, b, u and v are reduced modulo 2 pi
  in long double before their sines and cosines are taken, so that a phase
  of 1e10 keeps its digits.

The weights combine the fixed matrices elementwise, never through a matrix
product whose kernel depends on the batch size, so each slice of a stack
equals its one-time result bitwise. The real part is even and the imaginary
part odd under K (``CONJUGATION_PERM``), so K G K = conj(G) holds exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, PropagatorOverflowError
from .model import CONJUGATION_PERM, SYMPLECTIC_FORM, DriftGenerator, characteristic_roots

# Second moments scale like the square of a Green-function entry and the
# fourth-moment sums multiply two of those, so entries must stay below
# roughly 1e77 for downstream statistics to remain finite in doubles.
DEFAULT_ENTRY_CAP = 1e75

_LD = np.longdouble
_TWO_PI = 2 * np.arccos(_LD(-1))
# 1/(2k+1)! for k = 1..14: (shc a - shc b)/(a^2 - b^2) = sum_k h_{k-1}(a^2, b^2)/(2k+1)!
# with h_j the complete homogeneous polynomial; 14 terms reach roundoff for |a|, |b| < 2
_SERIES = [1.0 / math.factorial(2 * k + 1) for k in range(1, 15)]


def _closed_form(gen: DriftGenerator):
    """What every time of a stack shares: the rates ``lam`` of a, b, u, v per
    unit time (long double complex), Im(w1^2), and N, M and M N, flat."""
    d, chi = _LD(gen.params.delta), _LD(gen.params.chi)
    w1sq, w2sq, disc = characteristic_roots(d, chi)
    # N's diagonal: x = Re(w1^2) - 1 on the light, y = Re(w1^2) - delta^2 on
    # the atom; for real roots x y = 4 chi^2 delta, which gives the smaller one
    e = (d - 1) * (d + 1) / 2
    nu = np.sqrt(disc) / 2 if disc >= 0 else _LD(0)
    x, y = e + nu, nu - e
    if disc >= 0 and (x or y):
        if abs(x) >= abs(y):
            y = 4 * chi**2 * d / x
        else:
            x = 4 * chi**2 * d / y
    f, fd = 2 * chi**2, 2 * chi**2 * d
    cp, cm = chi * (1 + d), chi * (d - 1)
    pp, mm = chi * (1 + d - y), chi * (1 - d - y)
    n = np.array([x, 0, -cp, cm, 0, x, cm, -cp,
                  -cp, -cm, y, 0, -cm, -cp, 0, y], dtype=float)
    mn = np.array([fd - x, fd, pp, mm, -fd, x - fd, -mm, -pp,
                   pp, mm, f - d * y, f, -mm, -pp, -f, d * y - f], dtype=float)
    l1 = 1j * np.sqrt(np.clongdouble(w1sq))
    l2 = 1j * np.sqrt(np.clongdouble(w2sq))
    if abs(l1 - l2) > abs(l1 + l2):
        l2 = -l2
    lam = np.array([l1, l2, (l1 + l2) / 2, (l1 - l2) / 2])
    return lam, float(np.imag(w1sq)), n, gen.matrix.ravel(), mn


def _shc(z, z_reduced):
    """sinh(z)/z, 1 at z = 0, from sinh of ``z_reduced`` = z mod 2 pi i."""
    out = np.ones(z.shape, complex)
    return np.divide(np.sinh(z_reduced), z, out=out, where=z != 0)


def _weights(lam, shift, t):
    """The weights a0, b0, a1, b1 of I, N, M and M N at the times ``t``."""
    y = lam.imag[:, None] * t.astype(_LD)
    x = lam.real.astype(float)[:, None] * t
    z = x + 1j * y.astype(float)  # a, b, u, v
    turns = np.rint(z.imag / (2 * np.pi))
    zr = x + 1j * (y - _TWO_PI * turns).astype(float)
    a, b, u, v = z
    sa, sb, su, sv = _shc(z, zr)
    d0 = t * t / 2 * su * sv  # F0[mu1, mu2]
    # phi = F1[mu1, mu2] / t^3: the difference quotient apart, another form
    # where the roots meet, a power series where both are small
    phi = (sa - sb) / (4 * u * v)
    near = (np.abs(u) >= 1) & (np.abs(v) < 0.5)
    if near.any():
        cosh_u, cosh_v = np.cosh(zr[2:, near])
        phi[near] = (cosh_u * sv[near] - su[near] * cosh_v) / (2 * a[near] * b[near])
    small = np.abs(u) < 1
    if small.any():
        a2, b2 = a[small] ** 2, b[small] ** 2
        h_prev, h = 0.0, 1.0
        acc = _SERIES[0] * h
        for c in _SERIES[1:]:
            h_prev, h = h, (a2 + b2) * h - a2 * b2 * h_prev
            acc = acc + c * h
        phi[small] = acc
    d1 = t**3 * phi
    # a = F(mu1) + (Re mu1 - mu1) F[mu1, mu2], and Re mu1 - mu1 = i Im(w1^2)
    return (np.cosh(zr[0]).real - shift * d0.imag, d0.real,
            t * sa.real - shift * d1.imag, d1.real)


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

    The closed form of the module docstring covers the whole stack: the
    roots and the fixed matrices once, then four weights per time, combined
    elementwise, so every slice equals the single-time result bitwise.
    ``t`` of the result is the array of times and ``gmat`` has shape
    ``times.shape + (4, 4)``.

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
    # past the cap the weights overflow to inf and NaN; the cap reports it
    with np.errstate(all="ignore"):
        lam, shift, n, m, mn = _closed_form(gen)
        a0, b0, a1, b1 = _weights(lam, shift, flat)
        re = np.multiply.outer(n, b0)
        re[::5] += a0  # the diagonal of I
        im = np.multiply.outer(m, a1)
        im += np.multiply.outer(mn, b1)
        gmat = np.empty((flat.size, 16), complex)
        gmat.real = re.T
        gmat.imag = im.T
        gmat = gmat.reshape(-1, 4, 4)
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

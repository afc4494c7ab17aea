"""Accuracy of G(t) against a 50-digit mpmath reference.

The reference is exp(A t) of the exact real quadrature-basis generator
A = [[0, 1, 0, 0], [-1, 0, -2 chi, 0], [0, 0, 0, delta], [-2 chi, 0, -delta, 0]]
of the double inputs (delta, chi), at exact double times, taken to the ladder
basis with an exact 1/sqrt(2). ``mpmath.expm`` gives it at t0 = 0.5 and 0.75,
and squaring gives t0 * 2**k: each ladder runs up to 2**27 (1.3e8) or until
max|G| passes the entry cap, whichever comes first.

Each point records the error of the Pade-13 scaling-and-squaring propagator
that G(t) used before its closed form, measured once on this reference: the
largest over the point's times of max|G - G_ref| / max(1, max|G_ref|), and inf
where that propagator put a slice below the cap over it. On delta = 4 chi^2
and on the negative-delta surface that error is 0.15 or more, so there the
baseline is the closed form's own error, measured once on this reference in
the same way. The gate is max(2 * baseline, 1e-13) at every point.
"""

import math

import mpmath
import numpy as np
import pytest

from caosim import ModelParams, build_generator, green_stack
from caosim.propagator import DEFAULT_ENTRY_CAP

DIGITS = 50
T_MAX = 2.0**27
STARTS = (0.5, 0.75)
FLOOR = 1e-13

_S3 = 2.0 / math.sqrt(3.0)  # chi of delta = -3 on (1 - delta^2)^2 = 16 chi^2 |delta|

# (label, delta, chi, Pade error). The four "seeded" points are
# numpy.random.default_rng(23) draws of delta in [-3, 3], chi in [0, 2].
POINTS = [
    ("i", 2.0, 0.2, 8.13e-09),
    ("i", 5.0, 1.0, 3.15e-08),
    ("i", -3.0, 0.5, 4.37e-08),
    ("i", 0.3, 0.0, 7.60e-09),
    ("i", 1000.0, 1.0, 3.91e-06),
    ("ii", 1.0, 1.0, 1.15e-14),
    ("ii", 0.5, 1.5, 2.38e-14),
    ("ii", 50.0, 3.6, 8.23e-13),
    ("ii", 1e3, 31.622776601683793, 3.53e-12),
    ("ii", 1e6, 1000.0, 6.99e-09),
    ("ii", 1e9, 31622.776601683792, 1.19e-06),
    ("ii", 1e11, 316227.7660168379, 1.47e-06),
    ("iii", -1.0, 1.0, 7.68e-15),
    ("iii", -0.5, 2.0, 8.44e-15),
    ("iii", -3.0, 2.0, 3.58e-14),
    ("delta=0", 0.0, 1.0, 5.92e-16),
    ("delta=0", 0.0, 0.3, 6.18e-16),
    ("delta=0", 0.0, 1000.0, 1.10e-13),
    ("delta=4chi^2", 4.0, 1.0, 2.02e-01),
    ("delta=4chi^2", 0.36, 0.3, 1.53e-01),
    ("delta=4chi^2", 4e6, 1000.0, 2.64e-01),
    ("negative surface", -3.0, _S3, math.inf),
    ("negative surface", -0.5, 0.2651650429449553, 2.41e35),
    ("off delta=0", 1e-06, 1.0, 5.07e-12),
    ("off delta=0", -1e-06, 1.0, 1.70e-08),
    ("off delta=4chi^2", 4.000004, 1.0, 2.12e-05),
    ("off delta=4chi^2", 3.999996, 1.0, 1.25e-08),
    ("off negative surface", -3.0, _S3 * (1 + 1e-6), 3.58e-07),
    ("off negative surface", -3.0, _S3 * (1 - 1e-6), 1.20e-03),
    ("seeded", 1.1635984839441855, 1.2829164417564611, 1.60e-14),
    ("seeded", -2.2281346540941827, 0.22741610026265868, 2.41e-08),
    ("seeded", 0.920073128007524, 1.7069142119303213, 1.17e-14),
    ("seeded", -1.7893251933575622, 0.436037274171472, 2.51e-13),
]


# The closed form's error at the points where the Pade error is no gate.
CLOSED_FORM = {
    (4.0, 1.0): 3.96e-16,
    (0.36, 0.3): 1.25e-05,
    (4e6, 1000.0): 3.08e-13,
    (-3.0, _S3): 1.01e-04,
    (-0.5, 0.2651650429449553): 4.27e-06,
}


def reference(delta, chi, digits=DIGITS):
    """Times and ladder-basis G(t) (complex128) of the reference at (delta, chi)."""
    times, stack = [], []
    with mpmath.workdps(digits):
        d, c = mpmath.mpf(delta), mpmath.mpf(chi)
        a = mpmath.matrix([[0, 1, 0, 0], [-1, 0, -2 * c, 0],
                           [0, 0, 0, d], [-2 * c, 0, -d, 0]])
        s = 1 / mpmath.sqrt(2)
        to_ladder = mpmath.matrix([[s, 1j * s, 0, 0], [s, -1j * s, 0, 0],
                                   [0, 0, s, 1j * s], [0, 0, s, -1j * s]])
        to_quad = to_ladder.H
        for t in STARTS:
            e = mpmath.expm(a * mpmath.mpf(t))
            while t <= T_MAX:
                g = to_ladder * e * to_quad
                g = np.array([[complex(g[i, j]) for j in range(4)] for i in range(4)])
                if not np.max(np.abs(g)) <= DEFAULT_ENTRY_CAP:
                    break
                times.append(t)
                stack.append(g)
                e = e * e
                t *= 2.0
    return np.array(times), np.array(stack)


def relative_error(g, ref):
    """max over times of max|g - ref| / max(1, max|ref|); inf if g has a NaN slice."""
    scale = np.maximum(1.0, np.max(np.abs(ref), axis=(-2, -1)))
    err = np.max(np.abs(g - ref), axis=(-2, -1)) / scale
    return float(np.max(np.where(np.isnan(err), np.inf, err)))


@pytest.mark.parametrize("label,delta,chi,baseline", POINTS,
                         ids=[f"{p[0]}({p[1]!r},{p[2]!r})" for p in POINTS])
def test_green_stack_against_mpmath(label, delta, chi, baseline):
    times, ref = reference(delta, chi)
    assert times.size >= 16
    g = green_stack(build_generator(ModelParams(delta, chi)), times, strict=False).gmat
    baseline = CLOSED_FORM.get((delta, chi), baseline)
    assert relative_error(g, ref) <= max(2.0 * baseline, FLOOR)


def test_reference_holds_its_digits():
    # twenty more digits leave the reference unchanged at double precision
    times, ref = reference(-3.0, _S3)
    finer_times, finer = reference(-3.0, _S3, digits=DIGITS + 20)
    assert np.array_equal(times, finer_times)
    assert relative_error(ref, finer) <= 1e-15

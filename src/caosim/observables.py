"""Second-order statistics: single-mode g2, cross-correlation, and bounds.

All correlators are normally-ordered equal-time quantities built from the
generic fourth-moment kernel of the gaussian module:

  g_ii = <x† x† x x> / <x† x>^2          (1 coherent, 2 chaotic, >2 superchaotic)
  g_13 = <c† c a† a> / (<c† c> <a† a>)   (atom-photon cross-correlation)

Classical fields obey g_13 <= sqrt(g_11 g_33); quantum fields may violate
that bound but never sqrt((g_11 + 1/n_1)(g_33 + 1/n_3)).

:func:`records` evaluates every field at once, elementwise over the batch
axes of a Gaussian state (a grid of seeds, a stack of times, or none), with
NaN where a correlator is undefined; :func:`correlation_record` is its view
of one unbatched state, with ``None`` there instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import (
    InvalidParameterError,
    NonConvergenceError,
    PropagatorOverflowError,
    UndefinedCorrelationError,
)
from .gaussian import (
    ATOM,
    ATOM_DAG,
    LIGHT,
    LIGHT_DAG,
    GaussianState,
    OpticalInit,
    evolve,
    initial_state,
    moment4,
    occupation,
)
from .model import ModelParams, Regime, build_generator, classify_regime
from .propagator import Propagator, green_function

#: Occupations below this are treated as zero, making normalized correlators 0/0.
OCCUPATION_THRESHOLD = 1e-12

#: Correlators are real by construction; larger relative imaginary residues
#: indicate a bug upstream.
IMAG_RESIDUE_RTOL = 1e-10

#: The record field that each long_time_g2 mode extracts.
_MODE_FIELDS = {"atomic": "g11", "optical": "g33", "cross": "g13"}


@dataclass(frozen=True)
class CorrelationRecord:
    """Time-stamped bundle of occupations, correlators and both bounds.

    A field is ``None`` when the correlator is undefined (0/0 at vanishing
    occupation, e.g. the atomic mode at t=0). From :func:`records` the
    fields are arrays instead, with NaN there.
    """

    t: float
    n1: float
    n3: float
    g11: float | None
    g33: float | None
    g13: float | None
    classical_bound: float | None
    quantum_bound: float | None

    def defined(self, name: str) -> bool:
        return getattr(self, name) is not None

    @classmethod
    def field_names(cls) -> list[str]:
        return [f.name for f in fields(cls)]


def _numerator(s: GaussianState, indices, norm) -> np.ndarray:
    """Real part of an ordered fourth moment.

    Its imaginary residue is checked wherever ``norm``, the occupation
    product it is divided by, is defined (not NaN, so ``norm == norm``).
    """
    value = moment4(s, indices)
    scale = np.maximum(abs(value), 1.0)
    bad = (abs(value.imag) > IMAG_RESIDUE_RTOL * scale) & (norm == norm)
    if bad.any():
        residue = np.max(np.where(bad, abs(value.imag) / scale, 0.0))
        raise ArithmeticError(
            f"moment {indices} has relative imaginary residue {residue:.3e}"
        )
    return value.real


def records(
    s: GaussianState, t, threshold: float = OCCUPATION_THRESHOLD
) -> CorrelationRecord:
    """Every observable of ``s``, elementwise over its batch axes.

    The fields are arrays of the batch shape (``t`` is passed through), and a
    correlator is NaN where an occupation it is normalized by is at or below
    ``threshold`` (0/0).
    """
    n1 = occupation(s, "atomic")
    n3 = occupation(s, "optical")
    # NaN marks an undefined normalization and propagates to every quotient.
    m1 = np.where(n1 > threshold, n1, np.nan)[()]
    m3 = np.where(n3 > threshold, n3, np.nan)[()]
    g11 = _numerator(s, (ATOM_DAG, ATOM_DAG, ATOM, ATOM), m1) / m1**2
    g33 = _numerator(s, (LIGHT_DAG, LIGHT_DAG, LIGHT, LIGHT), m3) / m3**2
    g13 = _numerator(s, (ATOM_DAG, ATOM, LIGHT_DAG, LIGHT), m1 * m3) / (m1 * m3)
    classical = np.sqrt(g11 * g33)
    quantum = np.sqrt((g11 + 1.0 / m1) * (g33 + 1.0 / m3))
    return CorrelationRecord(t, n1, n3, g11, g33, g13, classical, quantum)


def correlation_record(
    s: GaussianState, t: float, threshold: float = OCCUPATION_THRESHOLD
) -> CorrelationRecord:
    """Evaluate every observable of one state, mapping undefined correlators to None."""
    rec = records(s, t, threshold)
    values = (float(getattr(rec, name)) for name in CorrelationRecord.field_names()[1:])
    return CorrelationRecord(t, *(None if math.isnan(v) else v for v in values))


def threshold_g2(
    params: ModelParams,
    init: OpticalInit,
    delta_c: float,
    tol: float = 1e-9,
) -> float:
    """Closed-form asymptotic g2 on the instability thresholds delta_c in {0, 4 chi^2}.

    On those critical surfaces the field amplitudes grow linearly in time and
    both single-mode correlations approach the same constant, which lies in
    [1, 3] for every intensity and phase.
    """
    chi = params.chi
    if chi <= 0:
        raise InvalidParameterError("threshold formula requires chi > 0")
    pscale = max(1.0, abs(delta_c))
    if abs(delta_c) > tol and abs(delta_c - 4.0 * chi**2) > tol * pscale:
        raise InvalidParameterError(
            f"delta_c must be 0 or 4*chi^2={4.0 * chi**2}, got {delta_c}"
        )
    if abs(params.delta - delta_c) > tol * pscale:
        raise InvalidParameterError(
            f"params.delta={params.delta} is off the critical surface delta={delta_c}"
        )
    cos2 = math.cos(init.phase - math.pi * delta_c / (8.0 * chi**2)) ** 2
    u = init.intensity * cos2
    a = 1.0 + delta_c
    # 1 + 2a(a + 8u)/(a + 4u)^2 with x = a/(a + 4u), which stays finite as
    # u -> inf; the quarter is exact, so x is a/(a + 4u) without overflow
    q = a / 4.0
    x = q / (q + u)
    return 1.0 + 2.0 * x * (2.0 - x)


@dataclass(frozen=True)
class LongTimePolicy:
    """How the long-time limit is extracted.

    Regime ii/iv: sample g2 over doubling windows [t, 2t] until the spread is
    below ``rtol`` (regime ii) or window means agree to ``rtol_threshold``
    (regime iv). Regime iii: summary statistics over one oscillation period
    starting at ``t_ref``, plus the value at ``fixed_t`` when given.
    """

    t_start: float = 10.0
    t_max: float = 2000.0
    rtol: float = 1e-6
    rtol_threshold: float = 1e-3
    samples_per_window: int = 9
    t_ref: float = 30.0
    fixed_t: float | None = None


@dataclass(frozen=True)
class OscillationSummary:
    """Stationary-oscillation statistics of g2 in the beating regime."""

    minimum: float
    maximum: float
    mean: float
    period: float
    fixed_t_value: float | None = None


def _samples(gen, s0: GaussianState, mode: str, times) -> np.ndarray:
    """The ``mode`` correlator at each of ``times``, from one batched record."""
    gmat = np.stack([green_function(gen, float(t)).gmat for t in times])
    rec = records(evolve(s0, Propagator(t=times, gmat=gmat, generator=gen)), times)
    values = getattr(rec, _MODE_FIELDS[mode])
    undefined = np.isnan(values)
    if np.any(undefined):
        n = {"atomic": rec.n1, "optical": rec.n3}.get(mode, np.minimum(rec.n1, rec.n3))
        raise UndefinedCorrelationError(
            f"g2 {mode}", float(n[undefined][0]), OCCUPATION_THRESHOLD
        )
    return values


def long_time_g2(
    params: ModelParams,
    init: OpticalInit,
    mode: str = "atomic",
    policy: LongTimePolicy = LongTimePolicy(),
):
    """Long-time value of a correlation in the unstable regimes.

    Returns a converged scalar in regimes ii and iv, and an
    :class:`OscillationSummary` in regime iii. Each window's samples are one
    batched :func:`records` evaluation over its times.
    """
    if mode not in _MODE_FIELDS:
        raise InvalidParameterError(f"unknown mode {mode!r}")
    gen = build_generator(params)
    report = classify_regime(gen)
    regime = report.regime
    if regime == Regime.STABLE_I:
        raise InvalidParameterError(
            "long-time extraction requires an unstable regime (ii, iii or iv)"
        )
    s0 = initial_state(init)

    if regime == Regime.BEATING_EXPONENTIAL_III:
        period = 2.0 * math.pi / report.omega
        values = _samples(
            gen, s0, mode, np.linspace(policy.t_ref, policy.t_ref + period, 65)
        )
        fixed = (
            float(_samples(gen, s0, mode, [policy.fixed_t])[0])
            if policy.fixed_t is not None
            else None
        )
        return OscillationSummary(
            minimum=float(values.min()),
            maximum=float(values.max()),
            mean=float(np.mean(values)),
            period=period,
            fixed_t_value=fixed,
        )

    t = policy.t_start
    last = None
    while t <= policy.t_max:
        try:
            values = _samples(
                gen, s0, mode, np.linspace(t, 2.0 * t, policy.samples_per_window)
            )
        except PropagatorOverflowError as exc:
            raise NonConvergenceError(
                f"moments overflow at t={exc.t} before convergence",
                last_window=last,
            ) from exc
        mean = float(np.mean(values))
        spread = float(values.max() - values.min()) / max(abs(mean), 1e-300)
        if regime == Regime.SINGLE_EXPONENTIAL_II:
            if spread < policy.rtol:
                return mean
        else:  # regime iv: oscillations decay slowly, compare window means
            if last is not None and abs(mean - last[0]) <= policy.rtol_threshold * abs(
                mean
            ):
                return mean
        last = (mean, spread, t)
        t *= 2.0
    raise NonConvergenceError(
        f"no convergence up to t_max={policy.t_max}", last_window=last
    )

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
of one unbatched state, with ``None`` there instead. :func:`evaluate` takes a
seed through a stack of times to its records, and finds the first overflow.

:func:`long_time_g2` walks windows of times until a correlator settles. The
generator, its regime and, per window, the G(t) stack with the vacuum
fluctuation moments evolved through it do not depend on the seed: they live
in a :class:`LongTimeWindows`, which a sweep builds once and passes to every
cell, and which a single call builds for itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import (
    InvalidParameterError,
    NonConvergenceError,
    UndefinedCorrelationError,
)
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
from .model import ModelParams, Regime, ThresholdKind, build_generator, classify_regime
# green_function is unused here but stays importable: bench/tracer.py wraps
# observables.green_function by name.
from .propagator import green_function, green_stack  # noqa: F401

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


def evaluate(gen, s0: GaussianState, times, window=None
             ) -> tuple[CorrelationRecord, int]:
    """The records of ``s0`` at ``times``, from one propagator stack and one
    batched record, and ``stop``, the number of cells before the first
    overflow.

    The fields broadcast the batch axes of ``s0`` against the shape of
    ``times``; ``stop`` counts their cells in C order. A cell overflows when
    its G(t) is over the entry cap, or when its moments pass the range of
    doubles: an occupation is not finite, or a correlator is not finite
    although the occupations it is normalized by are defined. A true 0/0
    stays NaN and is no overflow.

    ``window``, a ``(G, S)`` pair of :class:`LongTimeWindows` for ``gen`` and
    ``times``, stands in for the stack and the second moments computed here;
    ``s0`` must then hold vacuum fluctuations, as every initial state does.
    """
    if window is None:
        window = green_stack(gen, times, strict=False), None  # a slice over the cap is NaN
    g, smat = window
    with np.errstate(over="ignore", invalid="ignore"):
        rec = records(evolve(s0, g, smat), g.t)
        n1, n3 = rec.n1 > OCCUPATION_THRESHOLD, rec.n3 > OCCUPATION_THRESHOLD
        over = np.ravel(
            ~(np.isfinite(rec.n1) & np.isfinite(rec.n3))
            | (n1 & ~np.isfinite(rec.g11)) | (n3 & ~np.isfinite(rec.g33))
            | (n1 & n3 & ~np.isfinite(rec.g13))
        )
    return rec, int(np.argmax(over)) if over.any() else over.size


def threshold_g2(
    params: ModelParams,
    init: OpticalInit,
    delta_c: float,
    tol: float = 1e-9,
) -> float:
    """Closed-form asymptotic g2 on the instability thresholds delta_c in {0, 4 chi^2}.

    :func:`classify_regime`, with ``tol``, must put ``delta_c`` on one of those
    two surfaces and ``params`` on the same one. On those critical surfaces
    the field amplitudes grow linearly in time and both single-mode
    correlations approach the same constant, which lies in [1, 3] for every
    intensity and phase.
    """
    chi = params.chi
    if chi <= 0:
        raise InvalidParameterError("threshold formula requires chi > 0")

    def surface(delta):
        return classify_regime(build_generator(ModelParams(delta, chi)), tol).threshold_kind

    kind = surface(delta_c)
    if kind not in (ThresholdKind.DELTA_ZERO, ThresholdKind.DELTA_FOUR_CHI_SQ):
        raise InvalidParameterError(
            f"delta_c must be 0 or 4*chi^2={4.0 * chi**2}, got {delta_c}"
        )
    if surface(params.delta) is not kind:
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


# The long-time walk: windows [t, 2t] of 9 samples, from t=10 doubling while
# t <= 2000; in regime iii one period from t=30 at 65 samples. The benchmark's
# checks assume these values: bench/workloads.py::_check_in_late_range that the
# last window ends at 2560, and bench/reference.py::oscillation_mean that the
# period starts at t=30 and has 65 samples.
_T_START, _T_MAX, _WINDOW_SAMPLES = 10.0, 2000.0, 9
_T_REF, _PERIOD_SAMPLES = 30.0, 65
# Convergence: the spread of one window in regime ii; in regime iv, where the
# oscillations decay slowly, the change of the window mean.
_RTOL, _RTOL_THRESHOLD = 1e-6, 1e-3


@dataclass(frozen=True)
class OscillationSummary:
    """Stationary-oscillation statistics of g2 in the beating regime, with
    arrays in place of floats for a tuple of modes."""

    minimum: float | np.ndarray
    maximum: float | np.ndarray
    mean: float | np.ndarray
    period: float


class LongTimeWindows:
    """What every seed of a long-time walk at ``params`` shares.

    ``gen`` and ``report`` are the generator and its regime, classified once;
    a stable regime raises :class:`InvalidParameterError` here. Calling it
    with a window ``(start, stop, samples)`` gives ``(G, S)``: the lenient
    G(t) stack over ``np.linspace(start, stop, samples)`` and the vacuum
    fluctuation moments evolved through it. Neither depends on the seed, so
    each window is computed the first time any walk reaches it and is kept
    for the life of the instance: one sweep, or one call.
    """

    def __init__(self, params: ModelParams):
        self.params = params
        self.gen = build_generator(params)
        self.report = classify_regime(self.gen)
        if self.report.regime == Regime.STABLE_I:
            raise InvalidParameterError(
                "long-time extraction requires an unstable regime (ii, iii or iv)"
            )
        self._windows = {}

    def __call__(self, start: float, stop: float, samples: int):
        key = (start, stop, samples)
        if key not in self._windows:
            g = green_stack(self.gen, np.linspace(*key), strict=False)
            self._windows[key] = (g, evolve(coherent_states(0.0, 0.0), g).smat)
        return self._windows[key]


def _samples(windows: LongTimeWindows, s0: GaussianState, modes, window,
             last=None) -> list:
    """The correlator of each of ``modes`` over ``window``, from one :func:`evaluate`.

    An overflow is a :class:`NonConvergenceError` that carries ``last``, the
    statistics of the last window before this one.
    """
    stack = windows(*window)
    rec, stop = evaluate(windows.gen, s0, stack[0].t, stack)
    if stop < rec.t.size:
        raise NonConvergenceError(
            f"moments overflow at t={float(rec.t[stop])} before convergence",
            last_window=last,
        )
    samples = [getattr(rec, _MODE_FIELDS[mode]) for mode in modes]
    for mode, values in zip(modes, samples):
        undefined = np.isnan(values)
        if np.any(undefined):
            n = {"atomic": rec.n1, "optical": rec.n3}.get(mode, np.minimum(rec.n1, rec.n3))
            raise UndefinedCorrelationError(
                f"g2 {mode}", float(n[undefined][0]), OCCUPATION_THRESHOLD
            )
    return samples


def long_time_g2(params: ModelParams, init: OpticalInit, mode="atomic", *,
                 windows: LongTimeWindows | None = None):
    """Long-time value of a correlation in the unstable regimes.

    Returns a converged scalar in regimes ii and iv, and an
    :class:`OscillationSummary` in regime iii. For a tuple of modes, one
    :func:`evaluate` per window serves them all and the values are arrays.
    Each mode is frozen at its own first converged window and is checked for
    0/0 only until then, so it gets the value, or the error, of its own call.

    ``windows``, a :class:`LongTimeWindows` of the same ``params``, lends the
    walk its regime and the windows that earlier calls filled; without it
    the call builds its own. The result is the same bitwise either way.
    """
    modes = mode if isinstance(mode, tuple) else (mode,)
    if not modes or not set(modes) <= _MODE_FIELDS.keys():
        raise InvalidParameterError(f"unknown mode {mode!r}")
    if windows is None:
        windows = LongTimeWindows(params)
    elif windows.params != params:
        raise InvalidParameterError(
            f"windows of {windows.params} cannot serve a walk at {params}"
        )
    report = windows.report
    regime = report.regime
    s0 = initial_state(init)
    result = np.array if isinstance(mode, tuple) else (lambda values: values[0])

    if regime == Regime.BEATING_EXPONENTIAL_III:
        period = 2.0 * math.pi / report.omega
        samples = _samples(windows, s0, modes,
                           (_T_REF, _T_REF + period, _PERIOD_SAMPLES))
        stats = ([float(f(v)) for v in samples] for f in (np.min, np.max, np.mean))
        return OscillationSummary(*map(result, stats), period)

    limits = {}
    last = dict.fromkeys(modes)  # (mean, spread, t) of each mode's last window
    pending, t = list(last), _T_START
    while pending and t <= _T_MAX:
        window = (t, 2.0 * t, _WINDOW_SAMPLES)
        for m, values in zip(pending, _samples(windows, s0, pending, window,
                                               last[pending[0]])):
            mean = float(np.mean(values))
            spread = float(values.max() - values.min()) / max(abs(mean), 1e-300)
            if regime == Regime.SINGLE_EXPONENTIAL_II:
                converged = spread < _RTOL
            else:  # regime iv: oscillations decay slowly, compare window means
                converged = last[m] is not None and abs(mean - last[m][0]) <= (
                    _RTOL_THRESHOLD * abs(mean))
            if converged:
                limits[m] = mean
            last[m] = (mean, spread, t)
        pending = [m for m in pending if m not in limits]
        t *= 2.0
    if pending:
        raise NonConvergenceError(
            f"no convergence up to t_max={_T_MAX}", last_window=last[pending[0]]
        )
    return result([limits[m] for m in modes])

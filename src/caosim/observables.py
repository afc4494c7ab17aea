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

:func:`long_time_scan` scans a fixed ladder of time windows for the first in
which each correlator settles, for a whole grid of seeds at once. The
generator, its regime, the ladder and the G(t) stack over it with the vacuum
fluctuation moments evolved through it do not depend on the seed: a
:class:`LongTimeWindows` computes them once, at construction. The means of
the seeds, which enter elementwise, go through the ladder in one broadcast
and one :func:`records` call; the scan is then array reductions, with one
reason code per cell. :func:`long_time_g2` is its view of one seed, raising
the error of a cell that the scan leaves empty.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import (
    CaosimError,
    InvalidParameterError,
    NonConvergenceError,
    UndefinedCorrelationError,
)
# initial_state and green_function are unused here but stay importable:
# bench/tracer.py wraps observables.initial_state and .green_function by name.
from .gaussian import (  # noqa: F401
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
from .propagator import green_function, green_stack  # noqa: F401

#: Occupations below this are treated as zero, making normalized correlators 0/0.
OCCUPATION_THRESHOLD = 1e-12

#: Correlators are real by construction; larger relative imaginary residues
#: indicate a bug upstream.
IMAG_RESIDUE_RTOL = 1e-10

#: The record field that each long_time_g2 mode extracts.
_MODE_FIELDS = {"atomic": "g11", "optical": "g33", "cross": "g13"}
MODES = tuple(_MODE_FIELDS)

#: The reason code of each cell of a :func:`long_time_scan`: it has its values,
#: its moments overflow, a correlator is 0/0, or a mode never converges.
OK, OVERFLOW, UNDEFINED, NO_CONVERGENCE = range(4)


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


def records(s: GaussianState, t) -> CorrelationRecord:
    """Every observable of ``s``, elementwise over its batch axes.

    The fields are arrays of the batch shape (``t`` is passed through), and a
    correlator is NaN where an occupation it is normalized by is at or below
    ``OCCUPATION_THRESHOLD`` (0/0).
    """
    n1 = occupation(s, "atomic")
    n3 = occupation(s, "optical")
    # NaN marks an undefined normalization and propagates to every quotient.
    m1 = np.where(n1 > OCCUPATION_THRESHOLD, n1, np.nan)[()]
    m3 = np.where(n3 > OCCUPATION_THRESHOLD, n3, np.nan)[()]
    g11 = _numerator(s, (ATOM_DAG, ATOM_DAG, ATOM, ATOM), m1) / m1**2
    g33 = _numerator(s, (LIGHT_DAG, LIGHT_DAG, LIGHT, LIGHT), m3) / m3**2
    g13 = _numerator(s, (ATOM_DAG, ATOM, LIGHT_DAG, LIGHT), m1 * m3) / (m1 * m3)
    classical = np.sqrt(g11 * g33)
    quantum = np.sqrt((g11 + 1.0 / m1) * (g33 + 1.0 / m3))
    return CorrelationRecord(t, n1, n3, g11, g33, g13, classical, quantum)


def correlation_record(s: GaussianState, t: float) -> CorrelationRecord:
    """Evaluate every observable of one state, mapping undefined correlators
    (occupation at or below ``OCCUPATION_THRESHOLD``) to None."""
    rec = records(s, t)
    values = (float(getattr(rec, name)) for name in CorrelationRecord.field_names()[1:])
    return CorrelationRecord(t, *(None if math.isnan(v) else v for v in values))


def _overflows(rec: CorrelationRecord) -> np.ndarray:
    """Where the moments of ``rec`` pass the range of doubles: an occupation
    is not finite, or a correlator is not finite although the occupations it
    is normalized by are defined. A true 0/0 stays NaN and is no overflow."""
    n1, n3 = rec.n1 > OCCUPATION_THRESHOLD, rec.n3 > OCCUPATION_THRESHOLD
    return (~(np.isfinite(rec.n1) & np.isfinite(rec.n3))
            | (n1 & ~np.isfinite(rec.g11)) | (n3 & ~np.isfinite(rec.g33))
            | (n1 & n3 & ~np.isfinite(rec.g13)))


def _first(mask) -> np.ndarray:
    """The index of the first true entry along the last axis, or its length."""
    return np.where(mask.any(-1), mask.argmax(-1), mask.shape[-1])


def evaluate(gen, s0: GaussianState, times) -> tuple[CorrelationRecord, int]:
    """The records of ``s0`` at ``times``, from one propagator stack and one
    batched record, and ``stop``, the number of cells before the first
    overflow.

    The fields broadcast the batch axes of ``s0`` against the shape of
    ``times``; ``stop`` counts their cells in C order. A cell overflows when
    its G(t) is over the entry cap, or when its moments pass the range of
    doubles.
    """
    g = green_stack(gen, times, strict=False)  # a slice over the cap is NaN
    with np.errstate(over="ignore", invalid="ignore"):
        rec = records(evolve(s0, g), g.t)
        over = np.ravel(_overflows(rec))
    return rec, int(_first(over))


def threshold_g2(params: ModelParams, init: OpticalInit, delta_c: float) -> float:
    """Closed-form asymptotic g2 on the instability thresholds delta_c in {0, 4 chi^2}.

    :func:`classify_regime`, with its default band ``THRESHOLD_BAND``, must
    put ``delta_c`` on one of those two surfaces and ``params`` on the same
    one. On those critical surfaces the field amplitudes grow linearly in
    time and both single-mode correlations approach the same constant, which
    lies in [1, 3] for every intensity and phase.
    """
    chi = params.chi
    if chi <= 0:
        raise InvalidParameterError("threshold formula requires chi > 0")
    # chi**2 raises OverflowError past about 1.34e154; from 1e154 on, 8 chi^2
    # is inf either way, so the phase shift below is the same (a signed 0)
    chi2 = chi**2 if chi < 1e154 else math.inf

    def surface(delta):
        return classify_regime(build_generator(ModelParams(delta, chi))).threshold_kind

    kind = surface(delta_c)
    if kind not in (ThresholdKind.DELTA_ZERO, ThresholdKind.DELTA_FOUR_CHI_SQ):
        raise InvalidParameterError(
            f"delta_c must be 0 or 4*chi^2={4.0 * chi2}, got {delta_c}"
        )
    if surface(params.delta) is not kind:
        raise InvalidParameterError(
            f"params.delta={params.delta} is off the critical surface delta={delta_c}"
        )
    cos2 = math.cos(init.phase - math.pi * delta_c / (8.0 * chi2)) ** 2
    u = init.intensity * cos2
    a = 1.0 + delta_c
    # 1 + 2a(a + 8u)/(a + 4u)^2 with x = a/(a + 4u), which stays finite as
    # u -> inf; the quarter is exact, so x is a/(a + 4u) without overflow
    q = a / 4.0
    x = q / (q + u)
    return 1.0 + 2.0 * x * (2.0 - x)


# The long-time ladder: windows [t, 2t] of 9 samples, from t=10 doubling while
# t <= 2000; in regime iii one period from t=30 at 65 samples. The benchmark's
# checks assume these values (bench/workloads.py::_check_in_late_range that the
# last window ends at 2560, bench/reference.py::oscillation_mean that the period
# starts at t=30 and has 65 samples), and a test pins them.
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
    """What every seed of a long-time scan at ``params`` shares, fixed at
    construction.

    ``gen`` and ``report`` are the generator and its regime, classified once;
    a stable regime raises :class:`InvalidParameterError` here. ``times`` is
    the regime's ladder, one window per row: [t, 2t] at 9 samples from t=10,
    doubling while t <= 2000, or in regime iii one ``period`` 2 pi / omega
    from t=30 at 65 samples. ``ladder`` is the ``(G, S)`` pair over it: the
    lenient G(t) stack and the vacuum fluctuation moments evolved through it.
    None of it depends on the seed.
    """

    def __init__(self, params: ModelParams):
        self.params = params
        self.gen = build_generator(params)
        self.report = classify_regime(self.gen)
        if self.report.regime == Regime.STABLE_I:
            raise InvalidParameterError(
                "long-time extraction requires an unstable regime (ii, iii or iv)"
            )
        if self.report.regime == Regime.BEATING_EXPONENTIAL_III:
            self.period = 2.0 * math.pi / self.report.omega
            times = np.linspace(_T_REF, _T_REF + self.period, _PERIOD_SAMPLES)[None]
        else:
            self.period = None
            starts = _T_START * 2.0 ** np.arange(int(math.log2(_T_MAX / _T_START)) + 1)
            times = np.linspace(starts, 2.0 * starts, _WINDOW_SAMPLES, axis=-1)
        g = green_stack(self.gen, times, strict=False)  # a slice over the cap is NaN
        self.times = g.t
        self.ladder = g, evolve(coherent_states(0.0, 0.0), g).smat


@dataclass(frozen=True)
class LongTimeScan:
    """The long-time values of a grid of seeds, with one reason per cell.

    ``values[..., j]`` is the value of ``modes[j]``: its converged window
    mean in regimes ii and iv, its oscillation mean in regime iii, where
    ``minimum`` and ``maximum`` hold the oscillation's extremes (None
    elsewhere). Each is NaN in a cell whose ``reason`` is not ``OK``. The
    other fields say what the error of such a cell reports: ``mode``, the
    index of the mode it names; ``t_overflow``, the time of its first
    overflowing sample; ``occupation``, the occupation at its first 0/0
    sample; ``last``, the (mean, spread, t) of the named mode's window before
    the one the cell failed in, NaN when it failed in the first.
    """

    modes: tuple
    values: np.ndarray
    minimum: np.ndarray | None
    maximum: np.ndarray | None
    reason: np.ndarray
    mode: np.ndarray
    t_overflow: np.ndarray
    occupation: np.ndarray
    last: np.ndarray

    def error(self, index=()) -> CaosimError | None:
        """The error that :func:`long_time_g2` raises for the cell at
        ``index``, or None when the cell has its values."""
        reason = self.reason[index]
        if reason == OK:
            return None
        mode = self.modes[self.mode[index]]
        if reason == UNDEFINED:
            return UndefinedCorrelationError(
                f"g2 {mode}", float(self.occupation[index]), OCCUPATION_THRESHOLD)
        last = tuple(self.last[index].tolist())
        if reason == NO_CONVERGENCE:
            return NonConvergenceError(f"no convergence up to t_max={_T_MAX}",
                                       last_window=last)
        return NonConvergenceError(
            f"moments overflow at t={float(self.t_overflow[index])} before convergence",
            last_window=None if math.isnan(last[2]) else last,
        )


def long_time_scan(windows: LongTimeWindows, amps, phis, modes=MODES) -> LongTimeScan:
    """The long-time scan of every seed ``(amps, phis)``, which broadcast
    together, in one array pass over the ladder of ``windows``.

    The means of every seed go through the ladder in one broadcast, and one
    :func:`records` call gives every sample. The scan of each cell is then a
    set of array reductions, with the rules of a walk through the windows in
    order:

    - a window's mean, min, max and spread are taken along its samples;
    - a mode converges in regime ii when the spread of a window is below
      1e-6 of its mean, and in regime iv when a window mean moves by at most
      1e-3 from the one before; in regime iii its one window is its value;
    - each mode is frozen at its own first converged window, and a cell has
      its values once every mode is;
    - before that, an overflow in a window the cell reaches, and then a 0/0
      of a mode that has not converged before that window, end the cell.
    """
    # coherent_states broadcasts the seeds without views: numpy keeps some
    # heap for each view that np.broadcast_arrays makes writeable
    seeds = coherent_states(amps, phis)
    shape = seeds.mean.shape[:-1]
    g, smat = windows.ladder
    nw, ns = windows.times.shape
    cells = np.arange(math.prod(shape))
    s0 = GaussianState(seeds.mean.reshape(-1, 1, 1, 1, 4), seeds.smat)
    with np.errstate(over="ignore", invalid="ignore"):
        # (cells, W, S, 1, 4) means against the (W, S) ladder, then one record
        mean = evolve(s0, g, smat).mean[..., 0, :]
        rec = records(GaussianState(mean, smat), g.t)
        over = _overflows(rec).reshape(cells.size, nw * ns)
        # (cells, modes, W, S): a window's samples along the contiguous last axis
        samples = np.stack([getattr(rec, _MODE_FIELDS[m]) for m in modes], 1)
        means = samples.mean(-1)
        low, high = samples.min(-1), samples.max(-1)
        spread = (high - low) / np.maximum(abs(means), 1e-300)
        regime = windows.report.regime
        if regime == Regime.BEATING_EXPONENTIAL_III:
            converged = np.ones(means.shape, bool)
        elif regime == Regime.SINGLE_EXPONENTIAL_II:
            converged = spread < _RTOL
        else:  # regime iv: oscillations decay slowly, compare window means
            converged = np.zeros(means.shape, bool)
            converged[..., 1:] = abs(means[..., 1:] - means[..., :-1]) <= (
                _RTOL_THRESHOLD * abs(means[..., 1:]))
    done = _first(converged)  # (cells, modes): nw where a mode never converges
    undefined = np.isnan(samples).any(-1) & (np.arange(nw) <= done[..., None])
    first_over = over.argmax(-1)
    fault_over = np.where(over.any(-1), first_over // ns, nw)
    fault_undefined = _first(undefined).min(-1)
    # the window each cell stops in: nw when no mode fails and one never converges
    stop = np.minimum(fault_over, np.minimum(fault_undefined, done.max(-1)))
    reason = np.select([stop == nw, stop == fault_over, stop == fault_undefined],
                       [NO_CONVERGENCE, OVERFLOW, UNDEFINED], OK)
    k = np.minimum(stop, nw - 1)
    # the named mode: the first pending one, and the first 0/0 one for UNDEFINED
    named = _first((done >= stop[:, None])
                   & (undefined[cells, :, k] | (reason != UNDEFINED)[:, None]))
    n1, n3 = (x[cells, k, np.isnan(samples[cells, named, k]).argmax(-1)]
              for x in (rec.n1, rec.n3))
    kind = np.array([MODES.index(m) for m in modes])[named]
    occupation = np.choose(kind, [n1, n3, np.minimum(n1, n3)])
    before = np.maximum(stop - 1, 0)
    last = np.stack([means[cells, named, before], spread[cells, named, before],
                     windows.times[before, 0]], -1)
    last[stop == 0] = math.nan
    ok = (reason == OK)[:, None]

    def per_cell(x, *tail):
        return np.where(ok, x, math.nan).reshape(shape + tail)

    values = np.take_along_axis(means, np.minimum(done, nw - 1)[..., None], -1)[..., 0]
    iii = regime == Regime.BEATING_EXPONENTIAL_III
    return LongTimeScan(
        modes, per_cell(values, len(modes)),
        per_cell(low[..., 0], len(modes)) if iii else None,
        per_cell(high[..., 0], len(modes)) if iii else None,
        reason.reshape(shape), named.reshape(shape),
        windows.times.ravel()[first_over].reshape(shape), occupation.reshape(shape),
        last.reshape(shape + (3,)),
    )


def long_time_g2(params: ModelParams, init: OpticalInit, mode="atomic", *,
                 windows: LongTimeWindows | None = None):
    """Long-time value of a correlation in the unstable regimes.

    Returns a converged scalar in regimes ii and iv, and an
    :class:`OscillationSummary` in regime iii. This is the one-cell view of
    :func:`long_time_scan`: a cell that the scan leaves empty raises its
    error, a :class:`NonConvergenceError` that carries the statistics of the
    window before for an overflow or a scan that never converges, and an
    :class:`UndefinedCorrelationError` for a 0/0. For a tuple of modes the
    values are arrays; each mode is frozen at its own first converged
    window and is checked for 0/0 only until then, so it gets the value,
    or the error, of its own call.

    ``windows``, a :class:`LongTimeWindows` of the same ``params``, lends
    the scan its regime and ladder; without it the call builds its own. The
    result is the same bitwise either way.
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
    scan = long_time_scan(windows, init.amp, init.phase, modes)
    if scan.reason != OK:
        # raised unnamed: a local bound to it would make a reference cycle
        # through its traceback, which holds this frame
        raise scan.error()
    result = np.array if isinstance(mode, tuple) else (lambda values: values[0])
    if windows.period is not None:
        stats = (scan.minimum.tolist(), scan.maximum.tolist(), scan.values.tolist())
        return OscillationSummary(*map(result, stats), windows.period)
    return result(scan.values.tolist())

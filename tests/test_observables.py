import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.testing import assert_allclose

from caosim import (
    CaosimError,
    GaussianState,
    InvalidParameterError,
    ModelParams,
    NonConvergenceError,
    OpticalInit,
    OscillationSummary,
    ThresholdKind,
    UndefinedCorrelationError,
    build_generator,
    classify_regime,
    coherent_states,
    correlation_record,
    evolve,
    green_function,
    initial_state,
    long_time_g2,
    threshold_g2,
    verify_propagator,
)
from caosim import observables
from caosim.observables import evaluate
from tests.test_gaussian import VACUUM_SMAT, atomic_zero_mean_state


def state_at(delta, chi, amp, phi, t):
    gen = build_generator(ModelParams(delta, chi))
    return evolve(initial_state(OpticalInit(amp, phi)), green_function(gen, t))


def two_mode_thermal(n1, n3):
    smat = np.zeros((4, 4), dtype=complex)
    smat[1, 0], smat[0, 1] = n1, n1 + 1.0
    smat[3, 2], smat[2, 3] = n3, n3 + 1.0
    return GaussianState(mean=np.zeros(4, dtype=complex), smat=smat)


def test_coherent_light_is_coherent():
    s = initial_state(OpticalInit(1.3, 0.4))
    assert_allclose(correlation_record(s, 0.0).g33, 1.0, rtol=1e-12)


def test_vacuum_atomic_mode_undefined():
    s = initial_state(OpticalInit(1.0, 0.0))
    assert correlation_record(s, 0.0).g11 is None


def test_thermal_fluctuations_are_chaotic():
    s = atomic_zero_mean_state(0.8, 0.0)
    assert_allclose(correlation_record(s, 0.0).g11, 2.0, rtol=1e-12)


def test_cross_undefined_on_product_state():
    assert correlation_record(initial_state(OpticalInit(2.0, 0.0)), 0.0).g13 is None


def test_spontaneous_short_time_violation():
    rec = correlation_record(state_at(1.0, 1.0, 0.0, 0.0, 0.3), 0.3)
    assert rec.g13 > rec.classical_bound
    assert rec.g13 <= rec.quantum_bound + 1e-9


def test_bounds_direct_substitution():
    rec = correlation_record(two_mode_thermal(1.0, 1.0), 0.0)
    assert_allclose(rec.classical_bound, 2.0, rtol=1e-12)
    assert_allclose(rec.quantum_bound, 3.0, rtol=1e-12)


def test_bounds_merge_at_large_intensity():
    rec = correlation_record(two_mode_thermal(1e6, 1e6), 0.0)
    classical, quantum = rec.classical_bound, rec.quantum_bound
    assert (quantum - classical) / classical < 1e-5


def test_bounds_bracket_cross_correlation():
    rec = correlation_record(state_at(1.0, 1.0, 0.0, 0.0, 0.5), 0.5)
    assert rec.classical_bound < rec.g13 < rec.quantum_bound


def test_correlation_record_undefined_fields():
    rec = correlation_record(initial_state(OpticalInit(2.0, 0.0)), 0.0)
    assert rec.n1 == 0.0
    assert rec.g11 is None and rec.g13 is None
    assert rec.g33 is not None and not rec.defined("classical_bound")


def test_threshold_formula_spontaneous_value():
    value = threshold_g2(ModelParams(0.0, 1.0), OpticalInit(0.0, 0.0), 0.0)
    assert_allclose(value, 3.0, rtol=1e-14)


def test_threshold_formula_phase_quadrature():
    for amp in (0.5, 2.0, 7.0):
        value = threshold_g2(
            ModelParams(0.0, 1.0), OpticalInit(amp, math.pi / 2), 0.0
        )
        assert_allclose(value, 3.0, rtol=1e-12)


def test_threshold_formula_coherent_limit():
    value = threshold_g2(ModelParams(0.0, 1.0), OpticalInit(100.0, 0.0), 0.0)
    assert value < 1.001


def test_threshold_formula_upper_surface():
    value = threshold_g2(ModelParams(4.0, 1.0), OpticalInit(1.0, 0.0), 4.0)
    assert 1.0 <= value <= 3.0
    # independent direct substitution
    shift = math.pi * 4.0 / 8.0
    u = 1.0 * math.cos(0.0 - shift) ** 2
    expected = 1.0 + 2.0 * 5.0 * (5.0 + 8.0 * u) / (5.0 + 4.0 * u) ** 2
    assert_allclose(value, expected, rtol=1e-14)


def test_threshold_formula_rejects_off_surface():
    with pytest.raises(InvalidParameterError):
        threshold_g2(ModelParams(1.0, 1.0), OpticalInit(0.0, 0.0), 1.0)
    with pytest.raises(InvalidParameterError):
        threshold_g2(ModelParams(0.5, 1.0), OpticalInit(0.0, 0.0), 0.0)
    with pytest.raises(InvalidParameterError):
        threshold_g2(ModelParams(0.0, 0.0), OpticalInit(0.0, 0.0), 0.0)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(
    chi=st.floats(1e-3, 10.0),
    surface=st.sampled_from(["delta=0", "delta=4*chi^2"]),
    frac=st.floats(-3.0, 3.0),
)
# classify_regime puts (2e-9, 1) on delta=0
@example(chi=1.0, surface="delta=0", frac=0.5)
def test_threshold_formula_defined_exactly_on_classified_surfaces(chi, surface, frac):
    # points inside and outside the band of the default tol=1e-9
    delta_c = 0.0 if surface == "delta=0" else 4.0 * chi**2
    params = ModelParams(delta_c + frac * 1e-9 * max(1.0, 4.0 * chi**2), chi)
    init = OpticalInit(1.0, 0.3)
    kind = classify_regime(build_generator(params)).threshold_kind
    if kind in (ThresholdKind.DELTA_ZERO, ThresholdKind.DELTA_FOUR_CHI_SQ):
        assert 1.0 <= threshold_g2(params, init, params.delta) <= 3.0
    else:
        with pytest.raises(InvalidParameterError):
            threshold_g2(params, init, params.delta)


def test_threshold_formula_range_random():
    rng = np.random.default_rng(17)
    for _ in range(2000):
        chi = rng.uniform(0.2, 2.0)
        delta_c = rng.choice([0.0, 4.0 * chi**2])
        init = OpticalInit(math.sqrt(rng.uniform(0, 50)), rng.uniform(0, 2 * math.pi))
        value = threshold_g2(ModelParams(delta_c, chi), init, delta_c)
        assert 1.0 <= value <= 3.0 + 1e-12


def test_long_time_regime_ii_constant_and_equal():
    params = ModelParams(1.0, 1.0)
    init = OpticalInit(0.0, 0.0)
    g11 = long_time_g2(params, init, "atomic")
    g33 = long_time_g2(params, init, "optical")
    assert abs(g11 - g33) < 1e-6
    # spontaneous regime-ii limit coincides with the threshold spontaneous value
    assert_allclose(g11, 3.0, atol=1e-6)
    # constancy: the value at a late fixed time agrees
    rec = correlation_record(state_at(1.0, 1.0, 0.0, 0.0, 15.0), 15.0)
    assert abs(rec.g11 - g11) < 1e-6


def test_long_time_regime_ii_displaced():
    params = ModelParams(1.0, 1.0)
    init = OpticalInit(2.0, 0.3)
    g11 = long_time_g2(params, init, "atomic")
    g33 = long_time_g2(params, init, "optical")
    assert abs(g11 - g33) < 1e-6


def test_long_time_threshold_matches_closed_form():
    for delta_c, init in [
        (0.0, OpticalInit(2.0, 0.0)),
        (4.0, OpticalInit(0.0, 0.0)),
    ]:
        params = ModelParams(delta_c, 1.0)
        target = threshold_g2(params, init, delta_c)
        value = long_time_g2(params, init, "atomic")
        assert abs(value - target) / target < 0.01


def test_long_time_regime_iii_summary():
    params = ModelParams(-1.0, 1.0)
    init = OpticalInit(0.0, 0.0)
    summary = long_time_g2(params, init, "atomic")
    assert isinstance(summary, OscillationSummary)
    assert summary.minimum <= summary.mean <= summary.maximum
    assert summary.period > 0


MODES = ("atomic", "optical", "cross")
CHI_NEGATIVE_SURFACE = 2.0 / math.sqrt(3.0)  # (1 - delta^2)^2 = 16 chi^2 |delta| at -3


def _outcome(call):
    try:
        return call()
    except CaosimError as exc:
        return exc


@pytest.mark.parametrize(
    "delta, chi, init",
    [
        pytest.param(1.0, 1.0, OpticalInit(2.0, 0.3), id="ii"),
        pytest.param(-1.0, 1.0, OpticalInit(1.0, 0.5), id="iii"),
        pytest.param(0.0, 1.0, OpticalInit(2.0, 0.0), id="delta=0"),
        # the modes converge at the 5th, 6th and 7th window
        pytest.param(4.0, 1.0, OpticalInit(math.sqrt(8.0), 0.0), id="delta=4chi^2"),
        # the 3rd, 5th and 4th window
        pytest.param(-3.0, CHI_NEGATIVE_SURFACE, OpticalInit(3.0, 0.75 * math.pi),
                     id="negative-surface"),
        # the atomic mode never converges, the others at the 4th and 5th window
        pytest.param(-3.0, CHI_NEGATIVE_SURFACE, OpticalInit(1.0, 0.25 * math.pi),
                     id="negative-surface-nonconvergent"),
    ],
)
def test_long_time_modes_share_windows(monkeypatch, delta, chi, init):
    params = ModelParams(delta, chi)
    windows = []

    def evaluate_counted(*args):
        windows[-1] += 1
        return evaluate(*args)

    monkeypatch.setattr(observables, "evaluate", evaluate_counted)

    def walk(mode):
        windows.append(0)
        return _outcome(lambda: long_time_g2(params, init, mode))

    singles = [walk(m) for m in MODES]
    got = walk(MODES)
    # one evaluation per window serves every mode still pending
    assert windows[-1] == max(windows[:-1])
    errors = [e for e in singles if isinstance(e, CaosimError)]

    def error_key(e):
        return type(e), str(e), getattr(e, "last_window", None)

    if errors:
        # the error of the first mode to fail, as its own call raises it
        assert error_key(got) in [error_key(e) for e in errors]
    elif isinstance(got, OscillationSummary):
        for name in ("minimum", "maximum", "mean"):
            assert getattr(got, name).tolist() == [getattr(s, name) for s in singles]
        assert got.period == singles[0].period
    else:
        assert isinstance(got, np.ndarray)
        assert got.tolist() == singles


def test_long_time_vanishing_occupations_are_undefined():
    # at chi=1e-8 from the vacuum both occupations stay near 4e-16 on every
    # window, so every mode is 0/0
    params, init = ModelParams(0.0, 1e-8), OpticalInit(0.0, 0.0)
    for mode in (*MODES, MODES):
        with pytest.raises(UndefinedCorrelationError):
            long_time_g2(params, init, mode)


@pytest.mark.parametrize(
    "amp, rtol, t, last_t",
    [
        pytest.param(1e75, None, 10.0, None, id="first-window"),
        # rtol=0 never converges: the windows double until the moments overflow
        pytest.param(1e60, 0.0, 45.0, 20.0, id="moments"),
        pytest.param(0.0, 0.0, 180.0, 80.0, id="propagator-cap"),
    ],
)
def test_long_time_overflow_is_nonconvergence(monkeypatch, amp, rtol, t, last_t):
    if rtol is not None:
        monkeypatch.setattr(observables, "_RTOL", rtol)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonConvergenceError, match=f"moments overflow at t={t}") as err:
            long_time_g2(ModelParams(1.0, 1.0), OpticalInit(amp, 0.3), "atomic")
    last = err.value.last_window
    assert (last and last[2]) == last_t


def test_evaluate_stops_at_first_overflowing_cell_in_c_order():
    gen = build_generator(ModelParams(1.0, 1.0))
    # a 3x2 grid of seeds: the alpha2 = 1e300 row overflows its moments
    seeds = coherent_states(np.sqrt([[0.0], [4.0], [1e300]]), np.array([0.0, 1.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rec, stop = evaluate(gen, seeds, 1.0)
        assert rec.g11.shape == (3, 2)
        assert stop == 4
        # a G(t) over the entry cap overflows every cell
        assert evaluate(gen, seeds, 400.0)[1] == 0
        # a stack of times: the first over the cap, in sequence order
        assert evaluate(gen, initial_state(OpticalInit(1.0)), [1.0, 400.0, 2.0])[1] == 1
        # 0/0 is no overflow: with chi = 0 every correlator is undefined
        rec, stop = evaluate(build_generator(ModelParams(1.0, 0.0)),
                             initial_state(OpticalInit(0.0)), [0.5, 1.0])
    assert stop == 2
    assert np.isnan(rec.g11).all() and np.isnan(rec.g13).all()
    want = correlation_record(state_at(1.0, 1.0, 2.0, 1.0, 1.0), 1.0)
    assert rec.t.tolist() == [0.5, 1.0]
    got = evaluate(gen, seeds, 1.0)[0]
    for name in ("n1", "n3", "g11", "g33", "g13", "classical_bound", "quantum_bound"):
        assert getattr(got, name)[1, 1] == pytest.approx(getattr(want, name), rel=1e-12)


@settings(derandomize=True, database=None, deadline=None, max_examples=80)
@given(
    delta=st.floats(-4.0, 4.0),
    chi=st.floats(0.0, 2.0),
    alpha2=st.one_of(st.just(0.0), st.floats(0.0, 9.0)),
    phi=st.floats(0.0, 6.28),
    # growth rates stay below 2 here, so max|G| < e^40, far below the cap
    t=st.floats(0.0, 20.0),
)
def test_bounds_order_and_propagator_invariants(delta, chi, alpha2, phi, t):
    p = green_function(build_generator(ModelParams(delta, chi)), t)
    rec = correlation_record(evolve(initial_state(OpticalInit(math.sqrt(alpha2), phi)), p), t)
    # the vacuum seed reaches g13 = quantum_bound
    if rec.quantum_bound is not None:
        if rec.classical_bound is not None:
            assert rec.classical_bound <= rec.quantum_bound * (1 + 1e-9)
        assert rec.g13 <= rec.quantum_bound * (1 + 1e-9)
    residuals = dict(verify_propagator(p))
    scale = max(float(np.max(np.abs(p.gmat))) ** 2, 1.0)
    assert residuals["symplectic"] <= 1e-12 * scale
    assert residuals["conjugation"] <= 1e-12 * scale


def test_long_time_rejects_stable_regime():
    with pytest.raises(InvalidParameterError):
        long_time_g2(ModelParams(5.0, 1.0), OpticalInit(0.0, 0.0), "atomic")


def test_g2_values_real_within_residue():
    rng = np.random.default_rng(23)
    for _ in range(30):
        s = state_at(
            rng.uniform(-2, 2),
            rng.uniform(0.1, 1.5),
            rng.uniform(0, 3),
            rng.uniform(0, 2 * math.pi),
            rng.uniform(0.2, 4.0),
        )
        rec = correlation_record(s, 0.0)
        if rec.g13 is not None:
            assert rec.g13 <= rec.quantum_bound + 1e-9
            assert rec.quantum_bound >= rec.classical_bound - 1e-12


def test_single_mode_g2_at_least_one_spontaneous():
    # With no optical seed the state has zero mean, so g2 = 2 + |m|^2/n^2 >= 2.
    # That super-thermal floor is exact; check it across random parameters.
    rng = np.random.default_rng(29)
    for _ in range(50):
        s = state_at(
            rng.uniform(-2, 2),
            rng.uniform(0.0, 1.5),
            0.0,
            0.0,
            rng.uniform(0.1, 5.0),
        )
        rec = correlation_record(s, 0.0)
        for g in (rec.g11, rec.g33):
            if g is not None:
                assert g >= 2.0 - 1e-9


def test_single_mode_g2_seeded_long_time_floor():
    # Seeded runs stay at or above the coherent floor g2 = 1 once transients
    # decay; sample the unstable-regime sweep surface at late times.
    for phase in np.linspace(0.0, 2 * math.pi, 8, endpoint=False):
        s = state_at(1.0, 1.0, 2.0, phase, 20.0)
        rec = correlation_record(s, 20.0)
        for g in (rec.g11, rec.g33):
            assert g is not None
            assert g >= 1.0 - 1e-6


def test_single_mode_g2_can_dip_below_one_in_transients():
    # The coherent floor is not a pointwise invariant: a weakly coupled
    # seeded run passes through an amplitude-squeezed transient.
    s = state_at(0.2124, 0.1395, 1.5292, 3.3305, 3.5127)
    rec = correlation_record(s, 3.5127)
    assert rec.g33 is not None
    assert rec.g33 < 1.0

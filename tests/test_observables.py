import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from caosim import (
    GaussianState,
    InvalidParameterError,
    LongTimePolicy,
    ModelParams,
    OpticalInit,
    OscillationSummary,
    UndefinedCorrelationError,
    build_generator,
    correlation_record,
    evolve,
    green_function,
    initial_state,
    long_time_g2,
    threshold_g2,
)
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
    summary = long_time_g2(
        params, init, "atomic", LongTimePolicy(t_ref=30.0, fixed_t=8.0)
    )
    assert isinstance(summary, OscillationSummary)
    assert summary.minimum <= summary.mean <= summary.maximum
    assert summary.fixed_t_value is not None
    assert summary.period > 0


def test_long_time_regime_iii_fixed_time_zero():
    # fixed_t=0.0 is a request like any other: light is coherent at t=0
    summary = long_time_g2(
        ModelParams(-1.0, 1.0), OpticalInit(1.0, 0.0), "optical",
        LongTimePolicy(fixed_t=0.0),
    )
    assert summary.fixed_t_value == pytest.approx(1.0, rel=1e-12)
    # the atomic mode is empty at t=0, so its g2 there is 0/0
    with pytest.raises(UndefinedCorrelationError):
        long_time_g2(
            ModelParams(-1.0, 1.0), OpticalInit(1.0, 0.0), "atomic",
            LongTimePolicy(fixed_t=0.0),
        )


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

import warnings

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

from caosim import (
    CONJUGATION_PERM,
    SYMPLECTIC_FORM,
    ModelParams,
    PropagatorOverflowError,
    Regime,
    build_generator,
    classify_regime,
    green_function,
    green_stack,
    verify_propagator,
)
from caosim.propagator import Propagator


def taylor_expm(a, order=30):
    """Series-summation oracle for exp(a) with scaling and repeated squaring.

    Deliberately a different algorithm from the Pade-based library routine.
    """
    norm = np.linalg.norm(a, 1)
    squarings = max(0, int(np.ceil(np.log2(max(norm, 1e-30)))) + 1)
    scaled = a / 2.0**squarings
    result = np.eye(a.shape[0], dtype=complex)
    term = np.eye(a.shape[0], dtype=complex)
    for k in range(1, order + 1):
        term = term @ scaled / k
        result = result + term
    for _ in range(squarings):
        result = result @ result
    return result


def growth_rate(gen):
    return float(np.max(np.abs(np.linalg.eigvals(gen.matrix).imag)))


def test_identity_at_t_zero():
    gen = build_generator(ModelParams(1.3, 0.8))
    p = green_function(gen, 0.0)
    assert_allclose(p.gmat, np.eye(4), atol=1e-15)


def test_decoupled_evolution_is_diagonal_phases():
    gen = build_generator(ModelParams(2.0, 0.0))
    t = 0.7
    p = green_function(gen, t)
    expected = np.diag(
        [np.exp(-1j * t), np.exp(1j * t), np.exp(-2j * t), np.exp(2j * t)]
    )
    assert_allclose(p.gmat, expected, atol=1e-14)


def test_degenerate_threshold_matches_series_oracle():
    # secular linear-in-t growth on the threshold, no special-casing needed
    gen = build_generator(ModelParams(0.0, 1.0))
    t = 5.0
    p = green_function(gen, t)
    oracle = taylor_expm(1j * gen.matrix * t)
    assert_allclose(p.gmat, oracle, atol=1e-11)
    # entries do grow well beyond any pure-oscillation bound
    assert np.max(np.abs(p.gmat)) > 3.0


@pytest.mark.parametrize("delta,chi,t", [(1, 1, 3.0), (-1, 1, 4.0), (0.5, 1.5, 1.0)])
def test_against_series_oracle(delta, chi, t):
    gen = build_generator(ModelParams(delta, chi))
    p = green_function(gen, t)
    oracle = taylor_expm(1j * gen.matrix * t)
    scale = max(1.0, np.max(np.abs(oracle)))
    assert np.max(np.abs(p.gmat - oracle)) / scale < 1e-12


def test_structural_invariants_random():
    rng = np.random.default_rng(3)
    j = SYMPLECTIC_FORM
    k = CONJUGATION_PERM
    for _ in range(200):
        gen = build_generator(ModelParams(rng.uniform(-3, 3), rng.uniform(0, 2)))
        gamma = growth_rate(gen)
        t_max = min(10.0, 5.0 / gamma) if gamma > 1e-9 else 10.0
        g = green_function(gen, rng.uniform(0, t_max)).gmat
        assert np.max(np.abs(g @ j @ g.T - j)) < 1e-10
        assert np.max(np.abs(k @ g @ k - np.conj(g))) < 1e-12


def test_composition_random():
    rng = np.random.default_rng(4)
    for _ in range(100):
        gen = build_generator(ModelParams(rng.uniform(-3, 3), rng.uniform(0, 2)))
        gamma = growth_rate(gen)
        t_cap = min(5.0, 2.5 / gamma) if gamma > 1e-9 else 5.0
        t1, t2 = rng.uniform(0, t_cap, size=2)
        g12 = green_function(gen, t1 + t2).gmat
        g1 = green_function(gen, t1).gmat
        g2 = green_function(gen, t2).gmat
        rel = np.max(np.abs(g12 - g1 @ g2)) / np.max(np.abs(g12))
        assert rel < 1e-9


def test_single_growing_direction_dominates_regime_ii():
    gen = build_generator(ModelParams(1.0, 1.0))
    gamma = 1.0
    ratios = []
    for t in (6.0, 10.0, 14.0):
        g = green_function(gen, t).gmat * np.exp(-gamma * t)
        s = np.linalg.svd(g, compute_uv=False)
        ratios.append(s[0] / s[1])
    assert ratios[0] < ratios[1] < ratios[2]
    assert ratios[-1] > 1e3


def test_overflow_diagnostic():
    gen = build_generator(ModelParams(1.0, 1.0))
    with pytest.raises(PropagatorOverflowError) as err:
        green_function(gen, 400.0)
    assert err.value.t == 400.0
    # ratios stay finite even when raw moments cannot: caller guidance
    green_function(gen, 400.0, entry_cap=float("inf"))


@pytest.mark.parametrize(
    "delta,chi,regime",
    [(2.0, 0.2, Regime.STABLE_I), (1.0, 1.0, Regime.SINGLE_EXPONENTIAL_II),
     (-1.0, 1.0, Regime.BEATING_EXPONENTIAL_III),
     (0.0, 1.0, Regime.DEGENERATE_THRESHOLD_IV)],
)
def test_stack_equals_single_times(delta, chi, regime):
    gen = build_generator(ModelParams(delta, chi))
    assert classify_regime(gen).regime == regime
    ts = np.concatenate([np.linspace(0.0, 12.0, 97), [3.5, 0.0]])
    p = green_stack(gen, ts)
    assert p.gmat.shape == (ts.size, 4, 4)
    assert np.array_equal(p.t, ts)
    single = np.stack([green_function(gen, float(t)).gmat for t in ts])
    assert np.array_equal(p.gmat, single)


@pytest.mark.parametrize("ts, first", [((100.0, 150.0, 200.0, 400.0), 200.0),
                                       ((400.0, 300.0, 200.0, 100.0), 400.0),
                                       ((100.0, 300.0, 150.0), 300.0)])
def test_stack_overflow_names_first_time_over_cap(ts, first):
    gen = build_generator(ModelParams(1.0, 1.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy warning past the cap
        with pytest.raises(PropagatorOverflowError) as err:
            green_stack(gen, np.array(ts))
    assert err.value.t == first


def test_lenient_stack_marks_times_over_cap_nan():
    gen = build_generator(ModelParams(1.0, 1.0))
    ts = np.array([[100.0, 400.0], [3.5, 300.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        p = green_stack(gen, ts, strict=False)
    assert p.gmat.shape == (2, 2, 4, 4)
    over = np.isnan(p.gmat).all(axis=(-2, -1))
    assert over.tolist() == [[False, True], [False, True]]
    assert np.array_equal(p.gmat[~over], green_stack(gen, ts[~over]).gmat)
    # a single time is a 0-d stack
    assert np.array_equal(green_stack(gen, 3.5).gmat, p.gmat[1, 0])


def test_verify_propagator_identity():
    gen = build_generator(ModelParams(0.9, 0.4))
    residuals = dict(verify_propagator(green_function(gen, 0.0)))
    assert set(residuals) == {"symplectic", "conjugation", "composition"}
    for value in residuals.values():
        assert value < 1e-15


def test_verify_propagator_documented_precision():
    # documents achieved precision at t=8: entries reach ~e^8, so the
    # quadratic symplectic residual sits at ~1e3 * eps
    gen = build_generator(ModelParams(1.0, 1.0))
    residuals = dict(verify_propagator(green_function(gen, 8.0)))
    assert all(value < 1e-9 for value in residuals.values()), residuals


def test_verify_propagator_detects_corruption():
    gen = build_generator(ModelParams(1.0, 1.0))
    p = green_function(gen, 1.0)
    corrupted = p.gmat.copy()
    corrupted[0, 0] += 1e-3
    bad = Propagator(t=p.t, gmat=corrupted, generator=gen)
    residuals = dict(verify_propagator(bad))
    assert 1e-4 < residuals["symplectic"] < 1e-2


@pytest.mark.parametrize("ts", [[1.0, 2.0, 3.0], [0.5, 1.0, 2.0, 3.0]])
def test_verify_propagator_stack_is_largest_over_times(ts):
    gen = build_generator(ModelParams(1.0, 1.0))
    stack = dict(verify_propagator(green_stack(gen, ts)))
    single = [dict(verify_propagator(green_function(gen, t))) for t in ts]
    assert stack == {name: max(r[name] for r in single) for name in stack}


@pytest.mark.parametrize("delta,chi", [(1, 1), (-1, 1), (0, 1), (4, 1), (2, 0.2)])
def test_green_stack_against_scipy_expm(delta, chi):
    gen = build_generator(ModelParams(delta, chi))
    ts = np.linspace(0.0, 60.0, 2001)
    g = green_stack(gen, ts).gmat
    ref = scipy.linalg.expm(1j * gen.matrix * ts[:, None, None])
    scale = np.max(np.abs(ref), axis=(-2, -1))
    assert np.all(np.max(np.abs(g - ref), axis=(-2, -1)) <= 1e-11 * scale)


def test_lenient_mixed_stack_is_quiet_and_symplectic():
    # regime ii with slow growth and a large generator: t=12 needs several
    # squarings at a modest |G|; t=1000 is over the cap, t=1e300 overflows in
    # the squarings and at t=1e307 the scaled generator's 1-norm is infinite
    gen = build_generator(ModelParams(50.0, 3.6))
    ts = np.array([0.0, 1e-9, 0.7, 12.0, 1000.0, 1e300, 1e307, 3.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        p = green_stack(gen, ts, strict=False)
    finite = np.isfinite(p.gmat).all(axis=(-2, -1))
    assert finite.tolist() == [True] * 4 + [False] * 3 + [True]
    assert np.isnan(p.gmat[~finite]).all()
    ok = Propagator(t=ts[finite], gmat=p.gmat[finite], generator=gen)
    assert dict(verify_propagator(ok))["symplectic"] < 1e-10

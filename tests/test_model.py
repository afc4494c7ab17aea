import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from numpy.testing import assert_allclose

from caosim import (
    CONJUGATION_PERM,
    SYMPLECTIC_FORM,
    InvalidParameterError,
    ModelParams,
    Regime,
    ThresholdKind,
    build_generator,
    characteristic_roots,
    classify_regime,
    green_function,
)


def char_poly_roots(delta, chi):
    """Independent eigenfrequency oracle via Faddeev-LeVerrier coefficients."""
    m = build_generator(ModelParams(delta, chi)).matrix
    n = 4
    coeffs = [1.0]
    b = np.eye(n)
    for k in range(1, n + 1):
        b = m @ b
        c = -np.trace(b) / k
        coeffs.append(c)
        b += c * np.eye(n)
    return np.roots(coeffs)


def test_generator_matches_displayed_matrix():
    gen = build_generator(ModelParams(1.0, 1.0))
    expected = np.array(
        [
            [-1, 0, -1, -1],
            [0, 1, 1, 1],
            [-1, -1, -1, 0],
            [1, 1, 0, 1],
        ],
        dtype=float,
    )
    assert np.array_equal(gen.matrix, expected)


def test_generator_zero_coupling_decouples():
    gen = build_generator(ModelParams(0.0, 0.0))
    expected = np.zeros((4, 4))
    expected[0, 0] = -1.0
    expected[1, 1] = 1.0
    assert np.array_equal(gen.matrix, expected)


def test_generator_negative_detuning_signs():
    m = build_generator(ModelParams(-1.0, 1.0)).matrix
    assert m[2, 2] == 1.0
    assert m[3, 3] == -1.0
    assert m[0, 2] == -1.0 and m[3, 0] == 1.0


@pytest.mark.parametrize("delta,chi", [(1.0, 1.0), (-2.5, 0.7), (3.0, 2.0), (0.3, 0.0)])
def test_generator_structural_invariants(delta, chi):
    m = build_generator(ModelParams(delta, chi)).matrix
    k = CONJUGATION_PERM
    j = SYMPLECTIC_FORM
    assert np.array_equal(k @ m @ k, -m)
    # exact entrywise: entries are +/- copies of the same floats
    assert np.array_equal(m @ j, -(j @ m.T))


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_generator_rejects_nonfinite(bad):
    with pytest.raises(InvalidParameterError):
        ModelParams(bad, 1.0)
    with pytest.raises(InvalidParameterError):
        ModelParams(1.0, bad)


def test_negative_chi_rejected():
    with pytest.raises(InvalidParameterError):
        ModelParams(1.0, -0.5)


def test_eigenfrequencies_match_characteristic_polynomial_oracle():
    freqs = np.sort_complex(classify_regime(build_generator(ModelParams(1.0, 1.0))).frequencies)
    oracle = np.sort_complex(char_poly_roots(1.0, 1.0))
    assert_allclose(freqs, oracle, atol=1e-10)
    # the quartet for delta=1, chi=1 is {+-sqrt(3), +-i}
    expected = np.sort_complex(
        np.array([math.sqrt(3.0), -math.sqrt(3.0), 1j, -1j])
    )
    assert_allclose(freqs, expected, atol=1e-10)


@pytest.mark.parametrize(
    "delta,chi,regime",
    [
        (1.0, 1.0, Regime.SINGLE_EXPONENTIAL_II),
        (-1.0, 1.0, Regime.BEATING_EXPONENTIAL_III),
        (2.0, 0.0, Regime.STABLE_I),
        (1.0, 0.2, Regime.STABLE_I),
        (5.0, 1.0, Regime.STABLE_I),
        # |delta| just past the delta=0 band of tol=1e-9: both w^2 are positive
        (-1.2479530186683278e-09, 1.2137432172653515, Regime.STABLE_I),
    ],
)
def test_regime_labels(delta, chi, regime):
    report = classify_regime(build_generator(ModelParams(delta, chi)))
    assert report.regime == regime


def test_regime_ii_rates():
    report = classify_regime(build_generator(ModelParams(1.0, 1.0)))
    assert_allclose(report.omega, math.sqrt(3.0), rtol=1e-12)
    assert_allclose(report.gamma, 1.0, rtol=1e-12)


def test_regime_iii_rates():
    report = classify_regime(build_generator(ModelParams(-1.0, 1.0)))
    assert report.omega > 0 and report.gamma > 0
    freqs = report.frequencies
    assert_allclose(sorted(np.abs(freqs.real)), [report.omega] * 4, rtol=1e-9)
    assert_allclose(sorted(np.abs(freqs.imag)), [report.gamma] * 4, rtol=1e-9)


@pytest.mark.parametrize(
    "delta,chi,kind",
    [
        (0.0, 1.0, ThresholdKind.DELTA_ZERO),
        # eigenvalue split 7.6e-5, wider than sqrt(tol) times the spectrum
        (-9.9e-10, 1.2137432172653515, ThresholdKind.DELTA_ZERO),
        (4.0, 1.0, ThresholdKind.DELTA_FOUR_CHI_SQ),
        (-3.0, 2.0 / math.sqrt(3.0), ThresholdKind.NEGATIVE_DELTA_SURFACE),
    ],
)
def test_threshold_detection(delta, chi, kind):
    report = classify_regime(build_generator(ModelParams(delta, chi)))
    assert report.regime == Regime.DEGENERATE_THRESHOLD_IV
    assert report.threshold_kind == kind


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(
    chi=st.one_of(st.just(0.0), st.floats(0.0, 10.0)),
    surface=st.sampled_from(["delta=0", "delta=4*chi^2"]),
    frac=st.floats(-1.0, 1.0),
    tol=st.sampled_from([1e-12, 1e-9, 1e-6]),
)
def test_classification_total_near_threshold_surfaces(chi, surface, frac, tol):
    # every delta in the band of its surface, the edges included, is the
    # threshold regime iv: |delta| <= tol * max(1, |delta|) on delta=0, and
    # |delta - 4 chi^2| <= tol * max(1, |delta|, 4 chi^2) on delta=4 chi^2
    if surface == "delta=0":
        delta_c, scale = 0.0, 1.0
    else:
        delta_c, scale = 4.0 * chi**2, max(1.0, 4.0 * chi**2)
    delta = delta_c + frac * tol * scale
    assume(abs(delta - delta_c) <= tol * max(scale, abs(delta)))
    report = classify_regime(build_generator(ModelParams(delta, chi)), tol)
    assert report.regime == Regime.DEGENERATE_THRESHOLD_IV


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(
    chi=st.floats(1.0, 1e6),
    frac=st.floats(1.5, 1e3),
    sign=st.sampled_from([-1.0, 1.0]),
    tol=st.sampled_from([1e-12, 1e-9, 1e-6]),
)
def test_delta_zero_band_does_not_grow_with_coupling(chi, frac, sign, tol):
    # outside |delta| <= tol a strong coupling leaves the point off the
    # delta=0 surface, and 0 < delta < 4 chi^2 is regime ii
    delta = sign * frac * tol
    report = classify_regime(build_generator(ModelParams(delta, chi)), tol)
    assert report.threshold_kind is not ThresholdKind.DELTA_ZERO
    if delta > 0:
        assert report.regime == Regime.SINGLE_EXPONENTIAL_II


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(
    delta=st.floats(-10.0, -1e-3),
    frac=st.floats(-1.0, 1.0),
    tol=st.sampled_from([1e-12, 1e-9, 1e-6]),
)
def test_classification_total_near_negative_delta_surface(delta, frac, tol):
    # chi on (1 - delta^2)^2 = 16 chi^2 |delta|, moved by a fraction of the
    # band: every point in the band, the edges included, is regime iv
    lhs = (1.0 - delta**2) ** 2
    chi = math.sqrt(max(lhs + frac * tol * max(1.0, lhs), 0.0) / (16.0 * -delta))
    rhs = 16.0 * chi**2 * abs(delta)
    assume(abs(lhs - rhs) <= tol * max(1.0, lhs, rhs))
    report = classify_regime(build_generator(ModelParams(delta, chi)), tol)
    assert report.regime == Regime.DEGENERATE_THRESHOLD_IV


@pytest.mark.parametrize("k", range(2, 13))
def test_regime_ii_rate_at_large_delta_equal_chi_squared(k):
    # delta = chi^2 = 10^k: omega ~ 10^k, while G(t) grows at gamma ~ sqrt(3)
    gen = build_generator(ModelParams(10.0**k, math.sqrt(10.0**k)))
    report = classify_regime(gen)
    assert report.regime == Regime.SINGLE_EXPONENTIAL_II
    g10, g20 = (np.max(np.abs(green_function(gen, t).gmat)) for t in (10.0, 20.0))
    assert report.gamma == pytest.approx(math.log(g20 / g10) / 10.0, rel=1e-6)


def test_decoupled_stable_spectrum():
    report = classify_regime(build_generator(ModelParams(2.0, 0.0)))
    assert_allclose(
        np.sort(report.frequencies.real), [-2.0, -1.0, 1.0, 2.0], atol=1e-12
    )
    assert np.max(np.abs(report.frequencies.imag)) < 1e-12


def test_spectrum_closed_under_negated_conjugation():
    rng = np.random.default_rng(7)
    for _ in range(100):
        params = ModelParams(rng.uniform(-3, 3), rng.uniform(0, 2))
        freqs = classify_regime(build_generator(params)).frequencies
        mirrored = -np.conj(freqs)
        for w in freqs:
            assert np.min(np.abs(mirrored - w)) < 1e-8 * max(1.0, abs(w))


@pytest.mark.parametrize("delta,chi", [(1.0, 1.0), (-1.0, 1.0), (2.0, 0.2), (0.0, 1.0),
                                       (4.0, 1.0), (-3.0, 2.0 / math.sqrt(3.0))])
def test_frequencies_are_square_roots_of_the_classifier_roots(delta, chi):
    # +-sqrt(w1^2), +-sqrt(w2^2) of the roots that decide the regime; the list
    # is closed under conjugation exactly, and regimes ii and iii read their
    # rates from it
    report = classify_regime(build_generator(ModelParams(delta, chi)))
    w1sq, w2sq, _ = characteristic_roots(np.float64(delta), np.float64(chi))
    assert report.roots == (complex(w1sq), complex(w2sq))
    freqs = report.frequencies
    assert_allclose(freqs**2, np.array(report.roots).repeat(2), rtol=1e-15, atol=1e-15)
    assert np.array_equal(freqs[:2], -freqs[1::-1])
    assert sorted(freqs.tolist(), key=str) == sorted(np.conj(freqs).tolist(), key=str)
    if report.regime == Regime.SINGLE_EXPONENTIAL_II:
        assert freqs[0] == report.omega and freqs[2] == 1j * report.gamma
    if report.regime == Regime.BEATING_EXPONENTIAL_III:
        assert freqs[0] == complex(report.omega, report.gamma)


def test_label_invariant_under_tolerance():
    rng = np.random.default_rng(11)
    tols = [1e-12, 1e-10, 1e-8]
    count = 0
    while count < 50:
        delta = rng.uniform(-3, 3)
        chi = rng.uniform(0.05, 2)
        # stay away from the critical surfaces
        if abs(delta) < 1e-3 or abs(delta - 4 * chi**2) < 1e-3:
            continue
        if delta < 0 and abs((1 - delta**2) ** 2 - 16 * chi**2 * abs(delta)) < 1e-3:
            continue
        gen = build_generator(ModelParams(delta, chi))
        labels = {classify_regime(gen, tol).regime for tol in tols}
        assert len(labels) == 1, (delta, chi, labels)
        count += 1


def test_chi_zero_spectrum_exact():
    for delta in (2.0, -2.7, 0.4):
        freqs = classify_regime(build_generator(ModelParams(delta, 0.0))).frequencies
        expected = sorted([1.0, -1.0, delta, -delta])
        assert_allclose(np.sort(freqs.real), expected, atol=1e-14)
        report = classify_regime(build_generator(ModelParams(delta, 0.0)))
        assert report.regime == Regime.STABLE_I


def test_tol_must_be_positive():
    gen = build_generator(ModelParams(1.0, 1.0))
    # tol is a roundoff band: at tol >= 1 the threshold test would hold for
    # every delta, and at tol = 0.5 it puts (-1, 1) of regime iii on delta=0
    for tol in (0.0, math.nan, math.inf, 1.0, 2.0, 0.5, 1e-3):
        with pytest.raises(InvalidParameterError):
            classify_regime(gen, tol=tol)

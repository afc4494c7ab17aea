"""Acceptance suite: one test per shipping criterion.

Each test registers a single ``CRITERION n: PASS/FAIL`` line, replayed
by the conftest terminal-summary hook, and then asserts. Records
produced along the way are pooled so the bound-consistency criterion can
audit every statistic the suite generated.
"""

import math

import numpy as np

import conftest

from caosim import (
    GaussianState,
    ModelParams,
    OpticalInit,
    OscillationSummary,
    Regime,
    build_generator,
    classify_regime,
    correlation_record,
    evolve,
    green_function,
    initial_state,
    long_time_g2,
    oracle_records,
    threshold_g2,
    verify_propagator,
)

# every CorrelationRecord produced anywhere in this suite; criterion 6
# audits the pool after the record-producing criteria have run
RECORD_POOL = []


def _report(num, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    line = f"CRITERION {num}: {tag}{suffix}"
    print(line)
    conftest.CRITERION_LINES[num] = line


def _series(delta, chi, alpha2, phi, times):
    gen = build_generator(ModelParams(delta, chi))
    s0 = initial_state(OpticalInit(math.sqrt(alpha2), phi))
    recs = []
    for t in times:
        rec = correlation_record(evolve(s0, green_function(gen, float(t))), float(t))
        recs.append(rec)
    RECORD_POOL.extend(recs)
    return recs


def test_criterion_1_threshold_closed_form_vs_dynamics():
    failures = []
    for delta_c in (0.0, 4.0):
        params = ModelParams(delta_c, 1.0)
        for alpha2, phi in ((0.0, 0.0), (4.0, 0.0), (4.0, math.pi / 2)):
            init = OpticalInit(math.sqrt(alpha2), phi)
            expected = threshold_g2(params, init, delta_c)
            for mode in ("atomic", "optical"):
                got = long_time_g2(params, init, mode)
                rel = abs(got - expected) / expected
                if rel > 0.01:
                    failures.append(
                        f"delta_c={delta_c} alpha2={alpha2} phi={phi:.3f} "
                        f"{mode}: {got:.5f} vs {expected:.5f} (rel {rel:.2e})"
                    )
                if alpha2 == 0.0 and abs(got - 3.0) > 0.03:
                    failures.append(
                        f"spontaneous delta_c={delta_c} {mode}: {got:.5f} != 3"
                    )
    _report(1, not failures, "closed form matched within 1%")
    assert not failures, failures


def test_criterion_2_threshold_range():
    rng = np.random.default_rng(7)
    worst = (math.inf, -math.inf)
    for _ in range(10_000):
        chi = rng.uniform(0.2, 2.0)
        delta_c = rng.choice([0.0, 4.0 * chi * chi])
        init = OpticalInit(math.sqrt(rng.uniform(0.0, 50.0)),
                           rng.uniform(0.0, 2.0 * math.pi))
        value = threshold_g2(ModelParams(delta_c, chi), init, delta_c)
        worst = (min(worst[0], value), max(worst[1], value))
    ok = worst[0] >= 1.0 - 1e-12 and worst[1] <= 3.0 + 1e-12
    _report(2, ok, f"range observed [{worst[0]:.6f}, {worst[1]:.6f}]")
    assert ok, worst


def test_criterion_3_regime_classification():
    cases = [
        (1.0, 1.0, Regime.SINGLE_EXPONENTIAL_II),
        (-1.0, 1.0, Regime.BEATING_EXPONENTIAL_III),
        (0.0, 1.0, Regime.DEGENERATE_THRESHOLD_IV),
        (4.0, 1.0, Regime.DEGENERATE_THRESHOLD_IV),
        # delta < 0 point on (1 - delta^2)^2 / |delta| = 16 chi^2
        (-3.0, 2.0 / math.sqrt(3.0), Regime.DEGENERATE_THRESHOLD_IV),
        (2.0, 0.0, Regime.STABLE_I),
    ]
    failures = []
    for delta, chi, expected in cases:
        got = classify_regime(build_generator(ModelParams(delta, chi))).regime
        if got is not expected:
            failures.append(f"({delta}, {chi:.4f}): {got} != {expected}")
    _report(3, not failures, "6/6 points labelled")
    assert not failures, failures


def test_criterion_4_propagator_invariants():
    # time draws are capped at growth-rate * t <= 5: beyond that the
    # 1e-10 absolute symplectic target is unreachable in doubles because
    # the residual scales with the squared largest Green-function entry
    rng = np.random.default_rng(11)
    worst_symp = 0.0
    worst_conj = 0.0
    for _ in range(200):
        params = ModelParams(rng.uniform(-2.0, 2.0), rng.uniform(0.0, 1.5))
        gen = build_generator(params)
        freqs = np.linalg.eigvals(1j * gen.matrix)
        growth = float(np.max(np.abs(freqs.real)))
        t_cap = min(10.0, 5.0 / growth) if growth > 1e-9 else 10.0
        prop = green_function(gen, rng.uniform(0.05, t_cap))
        residuals = dict(verify_propagator(prop))
        worst_symp = max(worst_symp, residuals["symplectic"])
        worst_conj = max(worst_conj, residuals["conjugation"])
    ok = worst_symp < 1e-10 and worst_conj < 1e-12
    _report(4, ok, f"max residuals symplectic {worst_symp:.2e}, "
                   f"conjugation {worst_conj:.2e}")
    assert ok


def test_criterion_5_oracle_equivalence():
    times = [0.25, 0.5, 1.0, 2.0]
    inits = [OpticalInit(0.0, 0.0), OpticalInit(2.0, math.pi / 4)]
    max_dn = 0.0
    max_dg = 0.0
    failures = []
    for delta, chi in ((1.0, 0.2), (1.0, 1.0), (-1.0, 1.0)):
        params = ModelParams(delta, chi)
        gen = build_generator(params)
        for init in inits:
            fock_recs, _ = oracle_records(params, init, times)
            s0 = initial_state(init)
            for rec in fock_recs:
                gauss = correlation_record(
                    evolve(s0, green_function(gen, rec.t)), rec.t
                )
                RECORD_POOL.append(gauss)
                for n_f, n_g in ((rec.n1, gauss.n1), (rec.n3, gauss.n3)):
                    if n_g > 1e-12:
                        dn = abs(n_f - n_g) / n_g
                        max_dn = max(max_dn, dn)
                        if dn > 1e-6:
                            failures.append(
                                f"occupation ({delta},{chi}) t={rec.t}: {dn:.2e}"
                            )
                for name in ("g11", "g33", "g13",
                             "classical_bound", "quantum_bound"):
                    a, b = getattr(rec, name), getattr(gauss, name)
                    if a is None or b is None:
                        continue
                    dg = abs(a - b)
                    max_dg = max(max_dg, dg)
                    if dg > 1e-4:
                        failures.append(
                            f"{name} ({delta},{chi}) t={rec.t}: {dg:.2e}"
                        )
    _report(5, not failures,
            f"max occupation rel {max_dn:.2e}, max g2 abs {max_dg:.2e}")
    assert not failures, failures


def test_criterion_7_regime_ii_single_mode_equality():
    worst = 0.0
    for alpha2 in (0.0, 2.0, 4.0):
        for phi in (0.0, 1.0, 2.5):
            recs = _series(1.0, 1.0, alpha2, phi, [20.0])
            rec = recs[0]
            worst = max(worst, abs(rec.g11 - rec.g33))
    ok = worst < 1e-6
    _report(7, ok, f"max |g11-g33| = {worst:.2e} at t=20")
    assert ok


def test_criterion_8_spontaneous_classical_violation():
    times = np.arange(0.05, 1.0 + 1e-9, 0.05)
    recs = [r for r in _series(1.0, 1.0, 0.0, 0.0, times)
            if r.g13 is not None]
    assert recs, "no defined cross-correlation on (0, 1]"
    violation = any(r.g13 > r.classical_bound for r in recs)
    first = recs[0]
    gap = first.quantum_bound - first.g13
    near_max = gap < 0.10 * first.quantum_bound
    ok = violation and near_max
    _report(8, ok, f"violation present; gap at t={first.t:.2f} is "
                   f"{100.0 * gap / first.quantum_bound:.2f}% of quantum bound")
    assert ok, (violation, gap, first.quantum_bound)


PHI_SWEEP = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)
_SWEEP_VIOLATIONS = {}


def test_criterion_9_phase_sensitivity_existence():
    times = np.linspace(0.05, 6.0, 120)
    gen = build_generator(ModelParams(1.0, 1.0))
    greens = [green_function(gen, float(t)) for t in times]
    for phi in PHI_SWEEP:
        s0 = initial_state(OpticalInit(2.0, float(phi)))
        violated = False
        for t, g in zip(times, greens):
            rec = correlation_record(evolve(s0, g), float(t))
            RECORD_POOL.append(rec)
            if rec.g13 is not None and rec.g13 > rec.classical_bound + 1e-9:
                violated = True
        _SWEEP_VIOLATIONS[float(phi)] = violated
    n_violating = sum(_SWEEP_VIOLATIONS.values())
    ok = 0 < n_violating < len(PHI_SWEEP)
    _report(9, ok, f"{n_violating}/64 phases violate the classical bound")
    assert ok


def test_criterion_10_long_time_decorrelation_dichotomy():
    # "g13 approximately 1" is pinned at |g13 - 1| < 0.5: the correlated
    # cells in this sweep bottom out at 115/81, comfortably above it
    values = []
    failures = []
    for phi in PHI_SWEEP:
        g13 = long_time_g2(ModelParams(1.0, 1.0), OpticalInit(2.0, float(phi)),
                           "cross")
        values.append(g13)
        if g13 < 1.0 - 1e-6:
            failures.append(f"phi={phi:.4f}: g13={g13:.8f} below 1")
    uncorrelated = sum(1 for v in values if v - 1.0 < 0.5)
    correlated = sum(1 for v in values if v - 1.0 > 0.5)
    ok = not failures and uncorrelated > 0 and correlated > 0
    _report(10, ok, f"{uncorrelated} cells at g13~1, {correlated} above; "
                    f"min {min(values):.6f}, max {max(values):.6f}")
    assert ok, failures


def test_criterion_11_regime_iii_stationarity():
    times = np.linspace(20.0, 40.0, 201)
    recs = _series(-1.0, 1.0, 0.0, 0.0, times)
    g13 = np.array([r.g13 for r in recs])
    cb = np.array([r.classical_bound for r in recs])
    early = g13[times <= 30.0].mean()
    late = g13[times >= 30.0].mean()
    drift = abs(late - early) / early
    below = bool(np.all(g13 < cb))
    ok = drift < 0.01 and below
    _report(11, ok, f"window-mean drift {100.0 * drift:.3f}%, "
                    f"max g13 {g13.max():.4f} < min bound {cb.min():.4f}")
    assert ok, (drift, below)


def test_criterion_6_quantum_bound_consistency():
    # runs last (pytest preserves file order; the record-producing
    # criteria above have filled the pool) and adds the figure-preset
    # sweeps that are not already covered
    for delta in (1.0, -1.0):
        _series(delta, 1.0, 0.0, 0.0, np.linspace(0.05, 6.0, 60))
        _series(delta, 1.0, 4.0, math.pi / 4, np.linspace(0.05, 6.0, 60))
    for alpha2 in (0.0, 4.0, 8.0):
        for phi in (0.0, math.pi / 2, math.pi):
            _series(-1.0, 1.0, alpha2, phi, [8.0])
    failures = []
    checked = 0
    for rec in RECORD_POOL:
        if rec.classical_bound is not None:
            checked += 1
            if rec.quantum_bound < rec.classical_bound - 1e-12:
                failures.append(f"bound ordering broken at t={rec.t}")
            if rec.g13 is not None and rec.g13 > rec.quantum_bound + 1e-9:
                failures.append(
                    f"g13={rec.g13:.6f} exceeds quantum bound "
                    f"{rec.quantum_bound:.6f} at t={rec.t}"
                )
    ok = not failures and checked > 0
    _report(6, ok, f"{checked} records audited")
    assert ok, failures[:5]

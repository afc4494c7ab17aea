import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.special
from numpy.testing import assert_allclose
from scipy import sparse

from caosim import (
    FockConfig,
    FockState,
    InvalidParameterError,
    ModelParams,
    OpticalInit,
    TruncationError,
    build_generator,
    coherent_fock,
    correlation_record,
    evolve,
    evolve_fock,
    green_function,
    initial_state,
    oracle_observables,
    oracle_records,
)
from caosim import fock
from caosim.fock import sparse_hamiltonian
from caosim.observables import evaluate


def reference_hamiltonian(params, cfg):
    """H built from the ladder operators by kron and sparse products."""
    na, nph = cfg.nmax_atom, cfg.nmax_phot
    c = sparse.kron(sparse.diags(np.sqrt(np.arange(1.0, na)), 1), sparse.eye(nph))
    a = sparse.kron(sparse.eye(na), sparse.diags(np.sqrt(np.arange(1.0, nph)), 1))
    h = (
        c.T @ c
        + params.delta * (a.T @ a)
        + params.chi * (a.T @ c.T + a.T @ c + c.T @ a + c @ a)
    )
    return h.tocsc()


def reference_generator(h):
    """``fock._generator``'s matrix, interval and 1-norm of H by scipy's sparse arithmetic."""
    n = h.shape[0]
    shifted = h - (h.diagonal().sum() / n) * sparse.eye(n, format="csc")
    onenorm = float(abs(shifted).sum(axis=0).max())
    diag = h.diagonal()
    reach = np.asarray(abs(h).sum(axis=1)).ravel() - np.abs(diag)
    low, high = float(np.min(diag - reach)), float(np.max(diag + reach))
    centre, radius = (high + low) / 2.0, (high - low) / 2.0
    scaled = ((h - centre * sparse.eye(n, format="csc")) / radius).tocsr()
    return scaled.astype(complex), centre, radius, onenorm


def dense_hamiltonian(params, cfg):
    return reference_hamiltonian(params, cfg).toarray()


def dense_evolution(params, psi0, t, cfg):
    """Reference: the dense matrix exponential applied to the state."""
    h = dense_hamiltonian(params, cfg)
    flat = scipy.linalg.expm(-1j * t * h) @ psi0.amplitudes.reshape(-1)
    return FockState(amplitudes=flat.reshape(psi0.amplitudes.shape))


def test_hamiltonian_diagonal_without_coupling():
    cfg = FockConfig(4, 5)
    h = sparse_hamiltonian(ModelParams(0.7, 0.0), cfg).toarray()
    na = np.arange(4)[:, None]
    nph = np.arange(5)[None, :]
    assert_allclose(h, np.diag((na + 0.7 * nph).reshape(-1)), atol=1e-15)


def test_hamiltonian_pair_creation_element():
    cfg = FockConfig(2, 2)
    h = sparse_hamiltonian(ModelParams(1.0, 1.0), cfg).toarray()
    # basis order (n_atom, n_phot): |0,0>, |0,1>, |1,0>, |1,1>
    assert_allclose(h[3, 0], 1.0, rtol=1e-15)
    assert_allclose(h[0, 3], 1.0, rtol=1e-15)
    # beam-splitter exchange |0,1> <-> |1,0>
    assert_allclose(h[1, 2], 1.0, rtol=1e-15)
    assert_allclose(h[2, 1], 1.0, rtol=1e-15)
    assert_allclose(np.diag(h), [0.0, 1.0, 1.0, 2.0], atol=1e-15)


def test_hamiltonian_exactly_symmetric():
    h = sparse_hamiltonian(ModelParams(-1.3, 0.9), FockConfig(6, 7)).toarray()
    assert np.array_equal(h, h.T)


def test_hamiltonian_dimension_cap():
    with pytest.raises(TruncationError):
        oracle_records(
            ModelParams(1.0, 1.0),
            OpticalInit(0.0, 0.0),
            [1.0],
            FockConfig(128, 128, dim_cap=4096),
        )


def test_coherent_vacuum():
    psi = coherent_fock(0.0, 0.0, FockConfig(4, 4))
    expected = np.zeros((4, 4))
    expected[0, 0] = 1.0
    assert_allclose(psi.amplitudes, expected, atol=1e-15)
    assert psi.tail_mass == 0.0


def test_coherent_tail_small_at_generous_cutoff():
    psi = coherent_fock(2.0, 0.0, FockConfig(2, 40))
    assert psi.tail_mass < 1e-10
    # Poisson tail oracle: mass beyond the kept levels
    from scipy.stats import poisson

    assert_allclose(psi.tail_mass, poisson.sf(39, 4.0), rtol=1e-6, atol=1e-14)


def test_coherent_truncation_inadequate():
    with pytest.raises(TruncationError):
        coherent_fock(2.0, 0.0, FockConfig(2, 6))


def test_coherent_phase_convention():
    cfg = FockConfig(2, 30)
    psi = coherent_fock(1.0, math.pi / 2, cfg)
    # alpha = e^{-i pi/2} = -i: the n=1 amplitude is -i times the n=0 one
    ratio = psi.amplitudes[0, 1] / psi.amplitudes[0, 0]
    assert_allclose(ratio, -1j, atol=1e-12)


def test_coherent_occupation():
    psi = coherent_fock(2.0, 0.3, FockConfig(2, 40))
    rec = oracle_observables(psi)
    assert_allclose(rec.n3, 4.0, rtol=1e-10)
    assert_allclose(rec.g33, 1.0, atol=1e-8)


def test_evolve_identity_at_t_zero():
    cfg = FockConfig(8, 8)
    params = ModelParams(1.0, 1.0)
    psi0 = coherent_fock(0.0, 0.0, cfg)
    [psi] = evolve_fock(params, psi0, [0.0], cfg)
    assert_allclose(psi.amplitudes, psi0.amplitudes, atol=1e-12)


def test_diagonal_hamiltonian_preserves_populations():
    cfg = FockConfig(2, 24)
    params = ModelParams(0.8, 0.0)
    psi0 = coherent_fock(1.5, 0.0, cfg)
    for psi in evolve_fock(params, psi0, [0.5, 3.0], cfg):
        # the two atomic levels are both top levels, so the atom side grows:
        # compare in the grown box, where the added levels stay empty
        pops0 = np.zeros(psi.amplitudes.shape)
        pops0[:2] = np.abs(psi0.amplitudes) ** 2
        assert_allclose(np.abs(psi.amplitudes) ** 2, pops0, atol=1e-12)


def test_norm_and_energy_conservation():
    cfg = FockConfig(20, 20)
    params = ModelParams(1.0, 0.6)
    h = sparse_hamiltonian(params, cfg)
    psi0 = coherent_fock(1.0, 0.5, cfg)
    flat0 = psi0.amplitudes.reshape(-1)
    e0 = float(np.real(flat0.conj() @ (h @ flat0)))
    for psi in evolve_fock(params, psi0, [0.3, 1.0, 2.5], cfg):
        assert abs(psi.norm - 1.0) < 1e-12
        # the energy in the box the state grew to; H there extends H in cfg's
        h = sparse_hamiltonian(params, FockConfig(*psi.amplitudes.shape))
        flat = psi.amplitudes.reshape(-1)
        e = float(np.real(flat.conj() @ (h @ flat)))
        assert abs(e - e0) / max(abs(e0), 1.0) < 1e-10


def test_unnormalized_input_rejected():
    cfg = FockConfig(4, 4)
    bad = FockState(amplitudes=np.full((4, 4), 0.5, dtype=complex))
    with pytest.raises(InvalidParameterError):
        evolve_fock(ModelParams(1.0, 1.0), bad, [1.0], cfg)


def test_untrusted_state_rejected_by_observables():
    amplitudes = np.zeros((4, 4), dtype=complex)
    amplitudes[3, 3] = 1.0
    psi = FockState(amplitudes=amplitudes, tail_mass=1.0, trusted=False)
    with pytest.raises(TruncationError):
        oracle_observables(psi)


def test_double_vacuum_all_undefined():
    amplitudes = np.zeros((4, 4), dtype=complex)
    amplitudes[0, 0] = 1.0
    rec = oracle_observables(FockState(amplitudes=amplitudes))
    assert rec.n1 == 0.0 and rec.n3 == 0.0
    assert rec.g11 is None and rec.g33 is None and rec.g13 is None


def test_sparse_driver_matches_dense_evolution():
    params = ModelParams(1.0, 0.5)
    init = OpticalInit(1.0, 0.25)
    cfg = FockConfig(16, 16, dim_cap=1 << 18)
    records, used = oracle_records(params, init, [0.4], cfg)
    psi = dense_evolution(params, coherent_fock(1.0, 0.25, used), 0.4, used)
    dense = oracle_observables(psi)
    assert_allclose(records[0].n3, dense.n3, rtol=1e-12)
    assert_allclose(records[0].g13, dense.g13, rtol=1e-10)


def test_oracle_matches_moment_pipeline_frozen():
    # acceptance-style spot check, frozen record at t=0.75
    params = ModelParams(1.0, 1.0)
    init = OpticalInit(0.0, 0.0)
    records, _ = oracle_records(params, init, [0.75])
    rec = records[0]
    assert_allclose(rec.n1, 0.4927603581973107, rtol=1e-8)
    gen = build_generator(params)
    gauss = correlation_record(
        evolve(initial_state(init), green_function(gen, 0.75)), 0.75
    )
    for name in ("g11", "g33", "g13", "classical_bound", "quantum_bound"):
        assert abs(getattr(rec, name) - getattr(gauss, name)) < 1e-4
    assert abs(rec.n1 - gauss.n1) / gauss.n1 < 1e-6


def test_occupations_against_oracle_at_moderate_time():
    # both occupations compared to the oracle; equality between them is NOT
    # asserted in general (no conserved mode-population difference exists)
    params = ModelParams(1.0, 1.0)
    init = OpticalInit(0.0, 0.0)
    records, _ = oracle_records(params, init, [2.0])
    gen = build_generator(params)
    gauss = correlation_record(
        evolve(initial_state(init), green_function(gen, 2.0)), 2.0
    )
    assert abs(records[0].n1 - gauss.n1) / gauss.n1 < 1e-6
    assert abs(records[0].n3 - gauss.n3) / gauss.n3 < 1e-6


def test_truncation_monotonicity():
    params = ModelParams(1.0, 0.2)
    init = OpticalInit(1.0, 0.0)
    small = FockConfig(16, 16, dim_cap=1 << 18)
    large = FockConfig(32, 32, dim_cap=1 << 18)
    rec_small, _ = oracle_records(params, init, [1.0], small)
    rec_large, _ = oracle_records(params, init, [1.0], large)
    assert abs(rec_small[0].n3 - rec_large[0].n3) / rec_large[0].n3 < 1e-6
    assert abs(rec_small[0].g33 - rec_large[0].g33) < 1e-4


# Regime i with a coherent seed that the default 16-level photon side cuts at
# a 2.5e-7 top-level population: the seed is built again in a larger box, and
# the evolution grows the box twice more after its first kept substep.
GROWN_PARAMS = ModelParams(-2.0, 0.2)
GROWN_INIT = OpticalInit(math.sqrt(2.4), 0.7)
GROWN_TIMES = [1.0, 2.0, 3.0]


def test_grown_run_is_one_evolution_matching_dense_in_its_final_box(monkeypatch):
    boxes, starts = [], []
    build, step = fock._bands, fock.chebyshev_step

    def spy_build(params, cfg):
        boxes.append((cfg.nmax_atom, cfg.nmax_phot))
        return build(params, cfg)

    def spy_step(scaled, centre, radius, dt, v):
        # the seed is the atomic vacuum; any kept substep excites the atom
        starts.append(not np.any(v.reshape(boxes[-1])[1:]))
        return step(scaled, centre, radius, dt, v)

    monkeypatch.setattr(fock, "_bands", spy_build)
    monkeypatch.setattr(fock, "chebyshev_step", spy_step)
    records, used = oracle_records(GROWN_PARAMS, GROWN_INIT, GROWN_TIMES)
    assert sum(starts) == 1  # nothing is evolved twice from t=0
    assert len(boxes) >= 3 and boxes[-1] == (used.nmax_atom, used.nmax_phot)
    psi0 = coherent_fock(GROWN_INIT.amp, GROWN_INIT.phase, used)
    for rec in records:
        dense = oracle_observables(dense_evolution(GROWN_PARAMS, psi0, rec.t, used))
        for name in ("n1", "n3"):
            assert_allclose(getattr(rec, name), getattr(dense, name), rtol=1e-10)


def test_grown_run_matches_the_gaussian_occupations():
    # a seed padded from its 16-level cut instead would be off by about 1e-7
    records, _ = oracle_records(GROWN_PARAMS, GROWN_INIT, GROWN_TIMES)
    gauss, stop = evaluate(build_generator(GROWN_PARAMS), initial_state(GROWN_INIT),
                           GROWN_TIMES)
    assert stop == len(GROWN_TIMES)
    for rec, n1, n3 in zip(records, gauss.n1, gauss.n3):
        assert_allclose(rec.n1, n1, rtol=1e-9)
        assert_allclose(rec.n3, n3, rtol=1e-9)


# The boxes that ``_generator`` builds H in, in order. A change to the build,
# or to the planning and growth, that moves them changes what oracle-compare
# prints. The second case is the benchmark's first oracle case.
BOX_HISTORIES = [
    (GROWN_PARAMS, GROWN_INIT, GROWN_TIMES, [(16, 24), (16, 32), (24, 32)]),
    (ModelParams(-1.0, 1.0), OpticalInit(1.0, 0.3), [0.5, 1.0, 1.5],
     [(16, 16), (24, 24), (32, 24), (40, 32), (48, 40), (56, 48), (64, 56),
      (80, 64), (80, 80), (96, 96), (120, 120), (144, 144), (176, 176)]),
]


@pytest.mark.parametrize("params,init,times,history", BOX_HISTORIES)
def test_box_history_is_frozen(monkeypatch, params, init, times, history):
    boxes, generator = [], fock._generator

    def spy(params, box, used, dts):
        boxes.append((box.nmax_atom, box.nmax_phot))
        return generator(params, box, used, dts)

    monkeypatch.setattr(fock, "_generator", spy)
    _, used = oracle_records(params, init, times)
    assert boxes == history
    assert (used.nmax_atom, used.nmax_phot) == history[-1]


def test_adaptive_growth_hits_cap():
    params = ModelParams(1.0, 1.0)
    init = OpticalInit(5.0, 0.0)
    with pytest.raises(TruncationError):
        oracle_records(params, init, [2.0], FockConfig(16, 16, dim_cap=2048))


def test_config_validation():
    with pytest.raises(InvalidParameterError):
        FockConfig(1, 8)
    with pytest.raises(InvalidParameterError):
        FockConfig(8, 8, tail_tol=1e-3)


@pytest.mark.parametrize("delta,chi", [(1, 1), (-1, 1), (0, 1), (2, 0.3)])
def test_chebyshev_step_matches_dense_expm(delta, chi):
    params, box = ModelParams(delta, chi), FockConfig(24, 24)
    scaled, centre, radius, onenorm = fock._generator(params, box, 0, [])
    h = dense_hamiltonian(params, box)
    rng = np.random.default_rng(7)
    psi = rng.normal(size=box.dim) + 1j * rng.normal(size=box.dim)
    psi /= np.linalg.norm(psi)
    # no time, a sliver, and the longest substep that the planning takes
    for dt in (0.0, 1e-6, fock._STEP_NORM / onenorm):
        out = fock.chebyshev_step(scaled, centre, radius, dt, psi)
        ref = scipy.linalg.expm(-1j * dt * h) @ psi
        assert np.linalg.norm(out - ref) <= 1e-13
        assert abs(np.linalg.norm(out) - 1.0) <= 1e-13
    assert np.array_equal(fock.chebyshev_step(scaled, centre, radius, 0.0, psi), psi)


def assert_matches_reference(params, box):
    """H and ``_generator``'s outputs equal the scipy reference bitwise."""
    ref_h = reference_hamiltonian(params, box)
    ref = ref_h.tocsr()
    # kron builds 2-level photon sides as dense 2x2 blocks, zeros stored
    ref.eliminate_zeros()
    h = sparse_hamiltonian(params, box).tocsr()
    for name in ("data", "indices", "indptr"):
        got, want = getattr(h, name), getattr(ref, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name
    scaled, centre, radius, onenorm = fock._generator(params, box, 0, [])
    ref_scaled, ref_centre, ref_radius, ref_onenorm = reference_generator(ref_h)
    assert (centre, radius, onenorm) == (ref_centre, ref_radius, ref_onenorm)
    rng = np.random.default_rng(box.dim)
    v = rng.normal(size=box.dim) + 1j * rng.normal(size=box.dim)
    assert np.array_equal(scaled @ v, ref_scaled @ v)


BAND_BOXES = [(2, 2), (2, 5), (5, 2), (16, 16), (24, 40), (40, 24), (176, 176), (328, 624)]


@pytest.mark.parametrize("delta,chi", [
    (1.0, 1.0), (-1.0, 1.0), (0.0, 1.0), (2.0, 0.3), (-2.0, 0.2), (-0.5, 0.8),
    (-1.0, 0.0), (0.0, 0.0), (1.0, 0.0), (-1.3, 0.9), (0.37, 1.9), (3.1, 0.05),
])
def test_band_hamiltonian_matches_the_kron_reference(delta, chi):
    for box in BAND_BOXES:
        assert_matches_reference(ModelParams(delta, chi), FockConfig(*box))


@pytest.mark.parametrize("delta,box", [
    (-1.0, (2, 2)), (-1.0, (16, 16)), (-1.0, (176, 176)), (0.0, (2, 2)), (0.0, (16, 16)),
])
def test_band_generator_with_empty_rows(delta, box):
    # without coupling, rows whose diagonal is 0 hold nothing: with delta=-1
    # those with n_atom = n_phot, the last row of a square box among them
    params, box = ModelParams(delta, 0.0), FockConfig(*box)
    assert 0.0 in reference_hamiltonian(params, box).diagonal()
    assert_matches_reference(params, box)


@pytest.mark.parametrize("delta,chi", [(0.0, 1e308), (1e10, 1.0), (1e308, 1.0)])
def test_extreme_hamiltonian_raises_without_warnings(delta, chi):
    # an infinite or NaN 1-norm, or a budget past _MAX_STEPS
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TruncationError):
            oracle_records(ModelParams(delta, chi), OpticalInit(1.0, 0.0), [1.0])


@pytest.mark.parametrize("z", [0.0, 0.01, 1.0, 7.3, 30.0, 62.0])
def test_bessel_coefficients_match_scipy(z):
    j = fock._bessel_coefficients(z)
    order = np.arange(j.size)
    # scipy's own J_k(62) is off by up to 8.5e-16 from a 40-digit reference
    assert_allclose(j, scipy.special.jv(order, z), rtol=0.0, atol=2e-15)
    # the series stops at the first order past z below the cut, after two terms
    assert j.size >= 2 and j.size > z
    assert abs(scipy.special.jv(j.size, z)) < fock._BESSEL_CUT
    assert np.all(np.abs(j[(order > z) & (order >= 2)]) >= fock._BESSEL_CUT)


FOCK_LOADS = """
import sys
from caosim import ModelParams, OpticalInit
import caosim.fock

caosim.fock.oracle_records(ModelParams(-1.0, 1.0), OpticalInit(1.0, 0.3), [0.5, 1.0])
loaded = [m for m in ("scipy.sparse.linalg", "scipy.special") if m in sys.modules]
assert not loaded, loaded
from scipy.sparse.linalg import expm_multiply
assert caosim.fock.expm_multiply is expm_multiply
"""


def test_oracle_loads_neither_sparse_linalg_nor_special():
    # the oracle needs only scipy.sparse; expm_multiply is still served by name
    src = os.path.dirname(os.path.dirname(os.path.abspath(fock.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    subprocess.run([sys.executable, "-c", FOCK_LOADS], env=env, check=True, timeout=120)

import math

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

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
from caosim.fock import sparse_hamiltonian


def dense_hamiltonian(params, cfg):
    return sparse_hamiltonian(params, cfg).toarray()


def dense_evolution(params, psi0, t, cfg):
    """Reference: the dense matrix exponential applied to the state."""
    h = dense_hamiltonian(params, cfg)
    flat = scipy.linalg.expm(-1j * t * h) @ psi0.amplitudes.reshape(-1)
    return FockState(amplitudes=flat.reshape(psi0.amplitudes.shape))


def test_hamiltonian_diagonal_without_coupling():
    cfg = FockConfig(4, 5)
    h = dense_hamiltonian(ModelParams(0.7, 0.0), cfg)
    na = np.arange(4)[:, None]
    nph = np.arange(5)[None, :]
    assert_allclose(h, np.diag((na + 0.7 * nph).reshape(-1)), atol=1e-15)


def test_hamiltonian_pair_creation_element():
    cfg = FockConfig(2, 2)
    h = dense_hamiltonian(ModelParams(1.0, 1.0), cfg)
    # basis order (n_atom, n_phot): |0,0>, |0,1>, |1,0>, |1,1>
    assert_allclose(h[3, 0], 1.0, rtol=1e-15)
    assert_allclose(h[0, 3], 1.0, rtol=1e-15)
    # beam-splitter exchange |0,1> <-> |1,0>
    assert_allclose(h[1, 2], 1.0, rtol=1e-15)
    assert_allclose(h[2, 1], 1.0, rtol=1e-15)
    assert_allclose(np.diag(h), [0.0, 1.0, 1.0, 2.0], atol=1e-15)


def test_hamiltonian_exactly_symmetric():
    h = dense_hamiltonian(ModelParams(-1.3, 0.9), FockConfig(6, 7))
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
        assert_allclose(
            np.abs(psi.amplitudes) ** 2, np.abs(psi0.amplitudes) ** 2, atol=1e-12
        )


def test_norm_and_energy_conservation():
    cfg = FockConfig(20, 20)
    params = ModelParams(1.0, 0.6)
    h = sparse_hamiltonian(params, cfg)
    psi0 = coherent_fock(1.0, 0.5, cfg)
    flat0 = psi0.amplitudes.reshape(-1)
    e0 = float(np.real(flat0.conj() @ (h @ flat0)))
    for psi in evolve_fock(params, psi0, [0.3, 1.0, 2.5], cfg):
        assert abs(psi.norm - 1.0) < 1e-12
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

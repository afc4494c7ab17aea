"""Brute-force oracle: exact evolution in a truncated two-mode Fock basis.

The quadratic atom-photon Hamiltonian (including the counter-rotating
pair-creation terms, with no rotating-wave simplification) is built as a
sparse real-symmetric matrix on the product basis |n_atom> x |n_phot>, and
its action exp(-i H dt) on the state is applied step by step through the
sorted evolution times (Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 488
(2011), as implemented by scipy's ``expm_multiply``).

Truncation is policed, not assumed: a state is trusted only while the
population in the top two levels of either mode stays below ``tail_tol``.
Unstable regimes grow excitation numbers exponentially in time, so the
driver doubles the violating dimension until the tails pass or the product
dimension cap is hit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import expm_multiply

from .errors import InvalidParameterError, TruncationError
from .gaussian import OpticalInit
from .model import ModelParams
from .observables import OCCUPATION_THRESHOLD, CorrelationRecord

# Largest 1-norm of one ``expm_multiply`` step. For a single vector, scipy
# picks its Taylor degree from the exact 1-norm of the trace-shifted matrix
# when that norm is at most 63.36 (condition 3.13 of Al-Mohy & Higham with
# m_max=55, l=2). Above it, scipy estimates norms of matrix powers from
# random starting vectors, and the result changes in its last digits from
# call to call. Splitting every step below the bound keeps the oracle
# deterministic.
_STEP_NORM = 62.0

# Most ``expm_multiply`` steps of one ``evolve_fock`` call, about 100x the most
# that one call takes over the test suite and the benchmark's oracle cases
# (seeds 1-10): 53. A coupling such as chi=1e10 would need about 1e9 steps
# in the first 16x16 box, and would not finish.
_MAX_STEPS = 5000


@dataclass(frozen=True)
class FockConfig:
    """Truncation sizes and the admissible tail population."""

    nmax_atom: int = 16
    nmax_phot: int = 16
    tail_tol: float = 1e-8
    dim_cap: int = 1 << 18

    def __post_init__(self):
        if self.nmax_atom < 2 or self.nmax_phot < 2:
            raise InvalidParameterError("truncation dimensions must be >= 2")
        if not 0.0 < self.tail_tol <= 1e-4:
            raise InvalidParameterError("tail_tol must be in (0, 1e-4]")

    @property
    def dim(self) -> int:
        return self.nmax_atom * self.nmax_phot


@dataclass(frozen=True)
class FockState:
    """Truncated two-mode state vector, shaped (nmax_atom, nmax_phot)."""

    amplitudes: np.ndarray
    tail_mass: float = 0.0
    trusted: bool = True

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


def coherent_fock(amp: float, phase: float, cfg: FockConfig) -> FockState:
    """Atomic vacuum tensor truncated coherent state alpha = amp e^{-i phase}."""
    intensity = amp**2
    if intensity > cfg.nmax_phot / 4.0:
        raise TruncationError(
            f"|alpha|^2={intensity} too large for nmax_phot={cfg.nmax_phot} "
            "(needs |alpha|^2 <= nmax_phot/4)"
        )
    alpha = amp * np.exp(-1j * phase)
    n = np.arange(cfg.nmax_phot)
    # log-space Poisson amplitudes avoid factorial overflow at large cutoffs
    log_mag = -intensity / 2.0 + n * np.log(np.abs(alpha)) - 0.5 * np.array(
        [math.lgamma(k + 1.0) for k in n]
    ) if amp > 0 else np.where(n == 0, 0.0, -np.inf)
    phases = np.exp(-1j * phase * n)
    coh = np.exp(log_mag) * phases
    tail = float(1.0 - np.sum(np.abs(coh) ** 2))
    if tail > cfg.tail_tol:
        raise TruncationError(
            f"coherent tail mass {tail:.3e} exceeds tail_tol {cfg.tail_tol:.1e}",
            tail_mass=tail,
        )
    amplitudes = np.zeros((cfg.nmax_atom, cfg.nmax_phot), dtype=complex)
    amplitudes[0, :] = coh / np.linalg.norm(coh)
    return FockState(amplitudes=amplitudes, tail_mass=max(tail, 0.0))


def oracle_observables(
    psi: FockState, t: float = 0.0, threshold: float = OCCUPATION_THRESHOLD
) -> CorrelationRecord:
    """Occupations, g2 correlators and bounds by direct ladder-operator action.

    Normally-ordered moments are diagonal in the number basis, so they reduce
    to population-weighted sums. Undefined correlators (occupation below
    ``threshold``) become None, mirroring the moment-pipeline policy.
    """
    if not psi.trusted:
        raise TruncationError(
            f"state untrusted: tail mass {psi.tail_mass:.3e}",
            tail_mass=psi.tail_mass,
        )
    p = np.abs(psi.amplitudes) ** 2
    n_atom = np.arange(p.shape[0])[:, None]
    n_phot = np.arange(p.shape[1])[None, :]
    n1 = float(np.sum(n_atom * p))
    n3 = float(np.sum(n_phot * p))
    g11 = g33 = g13 = classical = quantum = None
    if n1 > threshold:
        g11 = float(np.sum(n_atom * (n_atom - 1) * p)) / n1**2
    if n3 > threshold:
        g33 = float(np.sum(n_phot * (n_phot - 1) * p)) / n3**2
    if n1 > threshold and n3 > threshold:
        g13 = float(np.sum(n_atom * n_phot * p)) / (n1 * n3)
        classical = math.sqrt(g11 * g33)
        quantum = math.sqrt((g11 + 1.0 / n1) * (g33 + 1.0 / n3))
    return CorrelationRecord(
        t=t,
        n1=n1,
        n3=n3,
        g11=g11,
        g33=g33,
        g13=g13,
        classical_bound=classical,
        quantum_bound=quantum,
    )


def sparse_hamiltonian(params: ModelParams, cfg: FockConfig) -> sparse.csc_matrix:
    """Sparse matrix of c†c + delta a†a + chi (a†c† + a†c + c†a + c a)."""
    na, nph = cfg.nmax_atom, cfg.nmax_phot
    c = sparse.kron(
        sparse.diags(np.sqrt(np.arange(1.0, na)), 1), sparse.eye(nph)
    )
    a = sparse.kron(
        sparse.eye(na), sparse.diags(np.sqrt(np.arange(1.0, nph)), 1)
    )
    h = (
        c.T @ c
        + params.delta * (a.T @ a)
        + params.chi * (a.T @ c.T + a.T @ c + c.T @ a + c @ a)
    )
    return h.tocsc()


def _tails(amplitudes: np.ndarray) -> tuple[float, float]:
    """Population in the top two atomic and the top two photonic levels."""
    pops = np.abs(amplitudes) ** 2
    return float(pops[-2:, :].sum()), float(pops[:, -2:].sum())


def evolve_fock(
    params: ModelParams, psi0: FockState, times: list[float], cfg: FockConfig
) -> list[FockState]:
    """psi(t) = exp(-i H t) psi(0) at every time in ``sorted(times)``.

    Exact within the truncation of ``cfg``. A returned state is flagged
    untrusted when the top two levels of either mode carry more than
    ``cfg.tail_tol``. Times that need more than ``_MAX_STEPS`` Krylov steps
    in all raise :class:`TruncationError` before any step is taken.
    """
    if abs(psi0.norm - 1.0) > 1e-10:
        raise InvalidParameterError(f"psi0 not normalized: |psi|={psi0.norm}")
    h = sparse_hamiltonian(params, cfg)
    n = h.shape[0]
    shifted = h - (h.diagonal().sum() / n) * sparse.eye(n, format="csc")
    onenorm = float(abs(shifted).sum(axis=0).max())
    h = (-1j) * h
    flat = psi0.amplitudes.reshape(-1)
    dts = np.diff(sorted(times), prepend=0.0)
    steps = np.maximum(1.0, np.ceil(abs(dts) * onenorm / _STEP_NORM))
    if not steps.sum() <= _MAX_STEPS:  # or NaN, 0 * inf at a 1-norm of inf
        raise TruncationError(
            f"evolution needs {steps.sum():.3e} Krylov steps > {_MAX_STEPS} "
            f"(Hamiltonian 1-norm {onenorm:.3e})"
        )
    states = []
    for dt, count in zip(dts.tolist(), steps.astype(int).tolist()):
        for _ in range(count):
            flat = expm_multiply(h * (dt / count), flat)
        amplitudes = flat.reshape(psi0.amplitudes.shape)
        tail = max(_tails(amplitudes))
        states.append(
            FockState(
                amplitudes=amplitudes,
                tail_mass=tail,
                trusted=tail <= cfg.tail_tol,
            )
        )
    return states


def oracle_records(
    params: ModelParams,
    init: OpticalInit,
    times: list[float],
    cfg: FockConfig | None = None,
) -> tuple[list[CorrelationRecord], FockConfig]:
    """Evolve to every requested time with adaptive truncation.

    Starts from ``cfg`` (``FockConfig()`` by default) and doubles the
    dimension whose tail violates ``tail_tol`` (photon side for an
    inadequate initial coherent state, either side after evolution at any
    time), until all tails pass. Raises :class:`TruncationError` when a
    truncation exceeds the product dimension cap. Returns the records and
    the truncation that was finally used.
    """
    cfg = cfg or FockConfig()
    times = sorted(times)
    while True:
        if cfg.dim > cfg.dim_cap:
            raise TruncationError(
                f"adaptive truncation needs {cfg.nmax_atom}x{cfg.nmax_phot} "
                f"> dimension cap {cfg.dim_cap}"
            )
        try:
            psi0 = coherent_fock(init.amp, init.phase, cfg)
        except TruncationError:
            bad_atom, bad_phot = False, True
        else:
            states = evolve_fock(params, psi0, times, cfg)
            tails = [_tails(s.amplitudes) for s in states if not s.trusted]
            bad_atom = any(atom > cfg.tail_tol for atom, _ in tails)
            bad_phot = any(phot > cfg.tail_tol for _, phot in tails)
            if not (bad_atom or bad_phot):
                records = [
                    oracle_observables(s, t) for s, t in zip(states, times)
                ]
                return records, cfg
        cfg = replace(
            cfg,
            nmax_atom=cfg.nmax_atom * 2 if bad_atom else cfg.nmax_atom,
            nmax_phot=cfg.nmax_phot * 2 if bad_phot else cfg.nmax_phot,
        )

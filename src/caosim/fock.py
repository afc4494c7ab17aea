"""Brute-force oracle: exact evolution in a truncated two-mode Fock basis.

The quadratic atom-photon Hamiltonian (including the counter-rotating
pair-creation terms, with no rotating-wave simplification) is a sparse
real-symmetric matrix on the product basis |n_atom> x |n_phot>. It has five
bands, the diagonal and the four neighbours (n_atom +- 1, n_phot +- 1), and is
built from them by index arithmetic, with no operator products. Its action
exp(-i H dt) on the state is applied in short substeps through the sorted
evolution times. Each substep sums the Chebyshev series of the
exponential (Tal-Ezer & Kosloff, J. Chem. Phys. 81, 3967 (1984)): with the
spectrum of H inside the Gershgorin interval c +- r,

    exp(-i H dt) = e^{-i c dt} sum_k (2 - delta_k0) (-i)^k J_k(r dt) T_k((H - c)/r),

where T_k are Chebyshev polynomials, applied by their three-term recurrence,
and J_k Bessel functions. The interval is read off the matrix, so every step
is deterministic.

Truncation is policed, not assumed, and the box grows with the state in one
pass. After every substep the population in the top two levels of each mode
is audited against a guard 100x below the tail tolerance ``_TAIL_TOL``
(1e-8). A substep that passes is kept. One that does not is discarded: the
state before it is zero-padded on the violating side, by about a quarter (a
multiple of 8 levels), the Hamiltonian is rebuilt, and the substep is planned
again from the same time. Unstable regimes grow excitation numbers
exponentially in time, so early times run in small boxes and nothing is
evolved twice. The box stops growing at the product dimension cap.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, replace
from functools import partial

import numpy as np
from scipy import sparse

from .errors import InvalidParameterError, TruncationError
from .gaussian import OpticalInit
from .model import ModelParams
from .observables import OCCUPATION_THRESHOLD, CorrelationRecord

# Largest 1-norm of the trace-shifted Hamiltonian times one substep. The
# Chebyshev step is exact at any length, so this split only sets how often the
# box is audited for growth: a longer substep lets the state leak further past
# the box before the audit sees it. The value fixes the boxes that an
# evolution passes through, and so the truncation that ``oracle-compare``
# reports.
_STEP_NORM = 62.0

# Most substeps of one ``evolve_fock`` call, discarded ones included: about
# 100x the most that one call takes over the test suite and the benchmark's
# oracle cases (seeds 1-10): 47. A coupling such as chi=1e10 would need about
# 1e9 substeps in the first 16x16 box, and would not finish.
_MAX_STEPS = 5000

# A Chebyshev series is cut at the first order past its argument whose Bessel
# coefficient is below this: the terms left out then sum to below roundoff.
_BESSEL_CUT = 1e-17

# (-i)^k by k mod 4, exact
_POWERS_OF_MINUS_I = (1.0, -1j, -1.0, 1j)

# Most population that a trusted state may hold in the top two levels of each
# mode, and that a coherent seed may lose past its box.
_TAIL_TOL = 1e-8

# A substep is kept while the top two levels of each mode hold at most this
# share of ``_TAIL_TOL``. The slack keeps what leaks past the box within one
# substep far below the tolerance that the result is audited at.
_GUARD = 1e-2


@dataclass(frozen=True)
class FockConfig:
    """Truncation sizes and the cap on their product dimension."""

    nmax_atom: int = 16
    nmax_phot: int = 16
    dim_cap: int = 1 << 18

    def __post_init__(self):
        if self.nmax_atom < 2 or self.nmax_phot < 2:
            raise InvalidParameterError("truncation dimensions must be >= 2")

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
    """Atomic vacuum tensor truncated coherent state alpha = amp e^{-i phase}.

    Raises :class:`TruncationError` when the photon side of ``cfg`` cannot
    hold the state: more than ``_TAIL_TOL`` lies past it, or ``|alpha|^2``
    exceeds a quarter of it.
    """
    intensity = amp**2
    if intensity > cfg.nmax_phot / 4.0:
        raise TruncationError(
            f"|alpha|^2={intensity} too large for nmax_phot={cfg.nmax_phot} "
            "(needs |alpha|^2 <= nmax_phot/4)"
        )
    psi = _coherent(amp, phase, cfg)
    if psi.tail_mass > _TAIL_TOL:
        raise TruncationError(
            f"coherent tail mass {psi.tail_mass:.3e} exceeds tail_tol {_TAIL_TOL:.1e}",
            tail_mass=psi.tail_mass,
        )
    return psi


def _coherent(amp: float, phase: float, cfg: FockConfig) -> FockState:
    """The coherent state cut to the box of ``cfg`` and renormalized, in any box.

    ``tail_mass`` is the population cut off. A box far too small for the state
    gives its top photon levels, which the growth audit then rejects.
    """
    n = np.arange(cfg.nmax_phot)
    # log-space Poisson amplitudes avoid factorial overflow at large cutoffs
    log_mag = n * math.log(amp) - 0.5 * np.array(
        [math.lgamma(k + 1.0) for k in n]
    ) if amp > 0 else np.where(n == 0, 0.0, -np.inf)
    tail = float(1.0 - np.sum(np.exp(2.0 * log_mag - amp**2)))
    # scaled by the largest amplitude, which stays finite however large |alpha|
    coh = np.exp(log_mag - log_mag.max()) * np.exp(-1j * phase * n)
    amplitudes = np.zeros((cfg.nmax_atom, cfg.nmax_phot), dtype=complex)
    amplitudes[0, :] = coh / np.linalg.norm(coh)
    return FockState(amplitudes=amplitudes, tail_mass=max(tail, 0.0))


def oracle_observables(psi: FockState, t: float = 0.0) -> CorrelationRecord:
    """Occupations, g2 correlators and bounds by direct ladder-operator action.

    Normally-ordered moments are diagonal in the number basis, so they reduce
    to population-weighted sums. Undefined correlators (occupation at or
    below ``OCCUPATION_THRESHOLD``) become None, as in the moment pipeline.
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
    if n1 > OCCUPATION_THRESHOLD:
        g11 = float(np.sum(n_atom * (n_atom - 1) * p)) / n1**2
    if n3 > OCCUPATION_THRESHOLD:
        g33 = float(np.sum(n_phot * (n_phot - 1) * p)) / n3**2
    if n1 > OCCUPATION_THRESHOLD and n3 > OCCUPATION_THRESHOLD:
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
    """Sparse matrix of c†c + delta a†a + chi (a†c† + a†c + c†a + c a).

    Built from its five bands (see :func:`_bands`). H is symmetric, so the
    CSR arrays of its rows are also the CSC arrays of its columns.
    """
    return sparse.csc_matrix(_csr(_bands(params, cfg), cfg), shape=(cfg.dim, cfg.dim))


def _bands(params: ModelParams, box: FockConfig) -> np.ndarray:
    """The five bands of H on ``box``, shaped (dim, 5), row k = i*nmax_phot + j.

    Row (i, j) holds its entries in ascending column order: those at
    (i-1, j-1), (i-1, j+1), (i, j), (i+1, j-1) and (i+1, j+1), with 0 where
    the neighbour lies outside the box. A neighbour's entry is
    chi*(sqrt(max i)*sqrt(max j)) and the diagonal sqrt(i)*sqrt(i) +
    delta*(sqrt(j)*sqrt(j)), rounded as the products of the ladder operators
    round them.
    """
    na, nph = box.nmax_atom, box.nmax_phot
    atom, phot = np.sqrt(np.arange(float(na))), np.sqrt(np.arange(float(nph)))
    bands = np.zeros((na, nph, 5))
    pair = params.chi * (atom[1:, None] * phot[None, 1:])  # at (max i, max j)
    bands[1:, 1:, 0] = pair
    bands[1:, :-1, 1] = pair
    bands[:, :, 2] = atom[:, None] * atom[:, None] + params.delta * (phot * phot)
    bands[:-1, 1:, 3] = pair
    bands[:-1, :-1, 4] = pair
    return bands.reshape(-1, 5)


def _csr(bands: np.ndarray, box: FockConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """CSR ``(data, indices, indptr)`` of the nonzero entries of bands on ``box``.

    ``bands`` is laid out as :func:`_bands` says. Exact zeros are left out, as
    scipy's sparse arithmetic drops them; the indices are int32.
    """
    keep = bands != 0
    # band by band: numpy loops over a last axis of 5 slowly
    counts = keep[:, 0].astype(np.int32)
    for band in range(1, 5):
        counts += keep[:, band]
    indptr = np.zeros(len(bands) + 1, dtype=np.int32)
    np.cumsum(counts, out=indptr[1:])
    nph = box.nmax_phot
    rows = np.arange(len(bands), dtype=np.int32)
    columns = np.empty(bands.shape, dtype=np.int32)
    for band, offset in enumerate((-nph - 1, -nph + 1, 0, nph - 1, nph + 1)):
        np.add(rows, offset, out=columns[:, band])
    return bands[keep], columns[keep], indptr


def _tails(amplitudes: np.ndarray) -> tuple[float, float]:
    """Population in the top two atomic and the top two photonic levels."""
    return (float(np.sum(np.abs(amplitudes[-2:, :]) ** 2)),
            float(np.sum(np.abs(amplitudes[:, -2:]) ** 2)))


def _grow(amplitudes: np.ndarray, box: FockConfig) -> FockConfig | None:
    """The larger box that a state needs, or None when ``box`` holds it.

    A side needs more levels when its top two hold more than the guard. At the
    dimension cap the box keeps its size while the tails stay within
    ``_TAIL_TOL``, and :class:`TruncationError` is raised once they do not.
    """
    atom, phot = _tails(amplitudes)
    guard = _GUARD * _TAIL_TOL
    if max(atom, phot) <= guard:
        return None
    # about a quarter more levels on each violating side, a multiple of 8
    nmax_atom, nmax_phot = (n + 8 * max(1, n // 32) if tail > guard else n
                            for n, tail in ((box.nmax_atom, atom), (box.nmax_phot, phot)))
    grown = replace(box, nmax_atom=nmax_atom, nmax_phot=nmax_phot)
    if grown.dim <= box.dim_cap:
        return grown
    if max(atom, phot) <= _TAIL_TOL:
        return None
    raise TruncationError(
        f"adaptive truncation needs {grown.nmax_atom}x{grown.nmax_phot} "
        f"> dimension cap {box.dim_cap}",
        tail_mass=max(atom, phot),
    )


def _padded(amplitudes: np.ndarray, box: FockConfig) -> np.ndarray:
    """``amplitudes`` in the box of ``box``, zero on the added levels."""
    out = np.zeros((box.nmax_atom, box.nmax_phot), dtype=complex)
    out[: amplitudes.shape[0], : amplitudes.shape[1]] = amplitudes
    return out


def _seeded(seed: Callable[[FockConfig], FockState], box: FockConfig) -> np.ndarray:
    """The amplitudes of ``seed`` in ``box``, checked normalized."""
    psi = seed(box)
    if abs(psi.norm - 1.0) > 1e-10:
        raise InvalidParameterError(f"psi0 not normalized: |psi|={psi.norm}")
    return psi.amplitudes


def _substeps(dts: np.ndarray, onenorm: float) -> np.ndarray:
    """Substeps per interval in ``dts``, each of 1-norm at most ``_STEP_NORM``."""
    with np.errstate(over="ignore"):  # a count past the doubles is named instead
        return np.maximum(1.0, np.ceil(np.abs(dts) * onenorm / _STEP_NORM))


def _generator(params: ModelParams, box: FockConfig, used: int,
               dts: list[float]) -> tuple[sparse.csr_matrix, float, float, float]:
    """The Hamiltonian H of ``box``, scaled, with its interval and 1-norm.

    Returns ``((H - c)/r, c, r, onenorm)``: ``c +- r`` is the Gershgorin
    interval of H, which holds its spectrum, and ``onenorm`` the 1-norm of H
    less its mean diagonal, which plans the substeps. All come from the bands
    of H, and each sum runs in the order of scipy's sparse arithmetic, so
    they match it bitwise: a Gershgorin row sum adds a row's entries from the
    left, and a 1-norm column sum is ``np.add.reduceat`` over the stored
    entries of the column, which adds the first to the sum of the others.
    H is symmetric, so its columns are its rows.

    Raises :class:`TruncationError` when ``used`` substeps and those of the
    intervals ``dts`` still ahead come to more than ``_MAX_STEPS``, or when
    the 1-norm or the count is past the range of doubles.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # named below instead
        bands = _bands(params, box)
        # a contiguous copy, so that its sum is that of scipy's diagonal
        diag = bands[:, 2].copy()
        # chi >= 0, so the off-diagonal bands are their own magnitudes
        bands[:, 2] = np.abs(diag - diag.sum() / diag.size)
        data, _, indptr = _csr(bands, box)
        # an empty row sums to 0: reduceat would give the next row's first entry
        sums = np.zeros(diag.size)
        rows = np.flatnonzero(np.diff(indptr))
        sums[rows] = np.add.reduceat(data, indptr[rows])
        onenorm = float(sums.max())
    if not math.isfinite(onenorm):
        raise TruncationError("Hamiltonian 1-norm is past the range of doubles")
    steps = used + _substeps(np.array(dts), onenorm).sum()
    if not math.isfinite(steps):
        raise TruncationError("substep count is past the range of doubles")
    if steps > _MAX_STEPS:
        raise TruncationError(
            f"evolution needs {steps:.3e} substeps > {_MAX_STEPS} "
            f"(Hamiltonian 1-norm {onenorm:.3e})"
        )
    bands[:, 2] = np.abs(diag)
    reach = bands[:, 0] + bands[:, 1] + bands[:, 2] + bands[:, 3] + bands[:, 4] - bands[:, 2]
    low, high = float(np.min(diag - reach)), float(np.max(diag + reach))
    centre, radius = (high + low) / 2.0, (high - low) / 2.0
    bands[:, 2] = diag - centre
    data, indices, indptr = _csr(bands, box)
    data *= 1.0 / radius  # as scipy divides by a scalar
    scaled = sparse.csr_matrix((data.astype(complex), indices, indptr),
                               shape=(box.dim, box.dim))
    return scaled, centre, radius, onenorm


def _bessel_coefficients(z: float) -> np.ndarray:
    """J_0(z), J_1(z), ... up to the cut of the Chebyshev series, at least two.

    Miller's backward recurrence J_{k-1} = (2k/z) J_k - J_{k+1}, carried as the
    ratios J_k/J_{k-1} so that it cannot overflow, started far past the cut and
    normalized by J_0 + 2 (J_2 + J_4 + ...) = 1. The series is cut at the first
    order k > |z| with |J_k| below ``_BESSEL_CUT``; past |z| the J_k fall
    monotonically. At z=0 this is [1, 0].
    """
    top = int(abs(z) + 16.0 * abs(z) ** (1.0 / 3.0)) + 50
    ratios = [1.0] * (top + 1)
    ratio = 0.0
    for k in range(top, 0, -1):
        ratio = z / (2.0 * k - z * ratio)
        ratios[k] = ratio
    j = np.cumprod(ratios)
    j /= j[0] + 2.0 * j[2::2].sum()
    past = (np.arange(j.size) > abs(z)) & (np.abs(j) < _BESSEL_CUT)
    return j[: max(2, int(np.argmax(past)))]


def chebyshev_step(scaled: sparse.csr_matrix, centre: float, radius: float,
                   dt: float, psi: np.ndarray) -> np.ndarray:
    """exp(-i H dt) psi for H = centre + radius * ``scaled``, by its Chebyshev series.

    ``scaled`` has its spectrum in [-1, 1] (see :func:`_generator`). The
    polynomials T_k(scaled) psi follow T_{k+1} = 2 scaled T_k - T_{k-1}; a step
    of n terms costs n - 1 products with ``scaled``.
    """
    coefficients = _bessel_coefficients(radius * dt)
    prev, cur = psi, scaled @ psi
    out = coefficients[0] * prev + (-2j * coefficients[1]) * cur
    for k in range(2, coefficients.size):
        nxt = scaled @ cur
        nxt *= 2.0
        nxt -= prev
        prev, cur = cur, nxt
        out += (2.0 * _POWERS_OF_MINUS_I[k % 4] * coefficients[k]) * cur
    out *= np.exp(-1j * centre * dt)
    return out


def evolve_fock(
    params: ModelParams,
    psi0: FockState | Callable[[FockConfig], FockState],
    times: list[float],
    cfg: FockConfig,
) -> list[FockState]:
    """psi(t) = exp(-i H t) psi(0) at every time in ``sorted(times)``, in a growing box.

    The box starts as that of ``cfg`` and grows as the module docstring says;
    each state is returned in the box it was reached in. ``psi0`` is the state
    at t=0 in that box, or a function that builds it in any box: until the
    first substep is kept, a growth builds the seed again in the larger box
    rather than padding it, so its own truncation does not carry over.

    Raises :class:`TruncationError` when the starting box passes
    ``cfg.dim_cap``, when the state needs a box past it while a tail passes
    ``_TAIL_TOL``, when the evolution needs more than ``_MAX_STEPS`` substeps
    in all, or when a Hamiltonian 1-norm or step count is past the range of
    doubles. Substeps are planned from the current box, and the 1-norm only
    grows with the box, so the budget can refuse before any step is taken.
    """
    if callable(psi0):
        seed = psi0
    elif psi0.amplitudes.shape != (cfg.nmax_atom, cfg.nmax_phot):
        raise InvalidParameterError(
            f"psi0 has shape {psi0.amplitudes.shape}, cfg a "
            f"{cfg.nmax_atom}x{cfg.nmax_phot} box"
        )
    else:
        def seed(box):
            return replace(psi0, amplitudes=_padded(psi0.amplitudes, box))
    if cfg.dim > cfg.dim_cap:
        raise TruncationError(
            f"starting truncation {cfg.nmax_atom}x{cfg.nmax_phot} "
            f"> dimension cap {cfg.dim_cap}"
        )
    times = sorted(times)
    box = cfg
    amplitudes = _seeded(seed, box)
    while (grown := _grow(amplitudes, box)) is not None:
        box, amplitudes = grown, _seeded(seed, grown)
    fresh = True  # no substep kept yet: a growth builds the seed again
    used, start = 0, 0.0
    scaled, centre, radius, onenorm = _generator(params, box, used,
                                                 np.diff(times, prepend=0.0))
    states = []
    for i, target in enumerate(times):
        done, count = 0, int(_substeps(target - start, onenorm))
        while done < count:
            dt = (target - start) / count
            stepped = chebyshev_step(scaled, centre, radius, dt,
                                     amplitudes.reshape(-1)).reshape(amplitudes.shape)
            used += 1
            grown = _grow(stepped, box)
            if grown is None:
                amplitudes, done, fresh = stepped, done + 1, False
                continue
            # discard the substep and plan the rest of the interval again
            start, done = start + done * dt, 0
            box, amplitudes = grown, (_seeded(seed, grown) if fresh
                                      else _padded(amplitudes, grown))
            scaled, centre, radius, onenorm = _generator(
                params, box, used, [target - start, *np.diff(times[i:])])
            count = int(_substeps(target - start, onenorm))
        start = target
        tail = max(_tails(amplitudes))
        states.append(
            FockState(
                amplitudes=amplitudes,
                tail_mass=tail,
                trusted=tail <= _TAIL_TOL,
            )
        )
    return states


def oracle_records(
    params: ModelParams,
    init: OpticalInit,
    times: list[float],
    cfg: FockConfig | None = None,
) -> tuple[list[CorrelationRecord], FockConfig]:
    """Records at every requested time from one evolution in a growing box.

    The coherent seed starts in the box of ``cfg`` (``FockConfig()`` by
    default) and grows until its top levels pass the guard; the evolution then
    grows the box as :func:`evolve_fock` says. Raises :class:`TruncationError`
    when the state needs a box past the product dimension cap, or more
    substeps than the budget. Returns the records and the final box, whose
    sides need not be powers of two.
    """
    cfg = cfg or FockConfig()
    times = sorted(times)
    states = evolve_fock(params, partial(_coherent, init.amp, init.phase), times, cfg)
    records = [oracle_observables(s, t) for s, t in zip(states, times)]
    shape = states[-1].amplitudes.shape if states else (cfg.nmax_atom, cfg.nmax_phot)
    return records, replace(cfg, nmax_atom=shape[0], nmax_phot=shape[1])


def __getattr__(name):
    # scipy's ``expm_multiply``, which the oracle no longer calls, is served
    # on request only (PEP 562): ``bench/tracer.py`` still looks the name up
    # here, and importing ``scipy.sparse.linalg`` costs every oracle run
    # memory and start-up time.
    if name == "expm_multiply":
        from scipy.sparse.linalg import expm_multiply

        return expm_multiply
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

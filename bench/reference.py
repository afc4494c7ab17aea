"""Independent reference for the benchmark's correctness checks.

Nothing here imports the package under test or scipy: the generator is
written out again from the Hamiltonian, G(t) comes from an eigendecomposition
(or, for a defective generator, a Taylor series with scaling and squaring),
and the normally ordered fourth moments of the Gaussian state are taken in
closed form (Isserlis) instead of through a generic Wick loop.

Operator order is x = (c, c+, a, a+): c is the atomic side mode, a the light
mode. The initial state is atomic vacuum times an optical coherent state with
alpha = |alpha| exp(-i phi).
"""

from __future__ import annotations

import math

import numpy as np


def generator(delta: float, chi: float) -> np.ndarray:
    """M with dx/dt = i M x, from H = c+c + delta a+a + chi (a+ + a)(c+ + c).

    i[H, c] = -i c - i chi (a + a+), i[H, a] = -i delta a - i chi (c + c+);
    the rows for c+ and a+ are the negated conjugates.
    """
    return np.array(
        [
            [-1.0, 0.0, -chi, -chi],
            [0.0, 1.0, chi, chi],
            [-chi, -chi, -delta, 0.0],
            [chi, chi, 0.0, delta],
        ]
    )


def _taylor_expm(a: np.ndarray) -> np.ndarray:
    """exp(a) for a stack of matrices: scaling, 20-term Taylor, squaring."""
    norm = float(np.max(np.abs(a).sum(axis=-1)))
    squarings = max(0, math.ceil(math.log2(norm / 0.25))) if norm > 0.25 else 0
    a = a / 2.0**squarings
    term = np.broadcast_to(np.eye(4, dtype=complex), a.shape).copy()
    total = term.copy()
    for k in range(1, 20):
        term = term @ a / k
        total = total + term
    for _ in range(squarings):
        total = total @ total
    return total


def green(delta: float, chi: float, times) -> np.ndarray:
    """G(t) = exp(i M t) for each time, shape (T, 4, 4)."""
    m = generator(delta, chi)
    times = np.atleast_1d(np.asarray(times, dtype=float))
    w, v = np.linalg.eig(m)
    if np.linalg.cond(v) < 1e4:
        vinv = np.linalg.inv(v)
        phase = np.exp(1j * w[None, :] * times[:, None])
        return np.einsum("ik,tk,kj->tij", v, phase, vinv)
    return _taylor_expm(1j * m[None, :, :] * times[:, None, None])


def green_grid(delta: float, chi: float, t0: float, dt: float, n: int,
               block: int = 256) -> np.ndarray:
    """G(t0 + k dt) for k < n, as G(t0) times powers of G(dt); shape (n, 4, 4)."""
    step = green(delta, chi, [dt])[0]
    powers = [np.eye(4, dtype=complex)]
    for _ in range(block - 1):
        powers.append(powers[-1] @ step)
    powers = np.array(powers)
    jump = powers[-1] @ step
    base = green(delta, chi, [t0])[0]
    out = []
    for _ in range(-(-n // block)):
        out.append(base @ powers)
        base = base @ jump
    return np.concatenate(out)[:n]


def _alpha(alpha2, phi):
    return np.sqrt(np.asarray(alpha2, dtype=float)) * np.exp(
        -1j * np.asarray(phi, dtype=float)
    )


def stats(g: np.ndarray, alpha2, phi) -> dict:
    """Occupations, g11, g33, g13 and both bounds for G (T,4,4) and cells (C,).

    Returns arrays shaped (T, C). Fluctuations start in the vacuum, whose only
    ordered moments are <dc dc+> = <da da+> = 1, so
    <dx_i dx_j>(t) = G_i0 G_j1 + G_i2 G_j3.
    """
    alpha = np.atleast_1d(_alpha(alpha2, phi))[None, :]
    gt = g[:, :, :, None]

    def fluct(i, j):
        return gt[:, i, 0] * gt[:, j, 1] + gt[:, i, 2] * gt[:, j, 3]

    mu_c = gt[:, 0, 2] * alpha + gt[:, 0, 3] * np.conj(alpha)
    mu_a = gt[:, 2, 2] * alpha + gt[:, 2, 3] * np.conj(alpha)
    n_c, m_c = fluct(1, 0).real, fluct(0, 0)  # <dc+ dc>, <dc dc>
    n_a, m_a = fluct(3, 2).real, fluct(2, 2)
    p, q = fluct(1, 2), fluct(0, 2)  # <dc+ da>, <dc da>

    def single(mu, n, m):
        # <x+ x+ x x> = |mu|^4 + 4 n |mu|^2 + 2 Re(m mu*^2) + 2 n^2 + |m|^2
        mu2 = np.abs(mu) ** 2
        num = mu2**2 + 4 * n * mu2 + 2 * (m * np.conj(mu) ** 2).real
        num = num + 2 * n**2 + np.abs(m) ** 2
        occ = mu2 + n
        return occ, num / occ**2

    n1, g11 = single(mu_c, n_c, m_c)
    n3, g33 = single(mu_a, n_a, m_a)
    # <c+ c a+ a>: means, the six single contractions, three full pairings
    cross = (
        np.abs(mu_c) ** 2 * np.abs(mu_a) ** 2
        + n_c * np.abs(mu_a) ** 2
        + n_a * np.abs(mu_c) ** 2
        + 2 * (q * np.conj(mu_c * mu_a)).real
        + 2 * (p * mu_c * np.conj(mu_a)).real
        + n_c * n_a
        + np.abs(q) ** 2
        + np.abs(p) ** 2
    )
    g13 = cross / (n1 * n3)
    return {
        "n1": n1,
        "n3": n3,
        "g11": g11,
        "g33": g33,
        "g13": g13,
        "classical_bound": np.sqrt(g11 * g33),
        "quantum_bound": np.sqrt((g11 + 1.0 / n1) * (g33 + 1.0 / n3)),
    }


def threshold_g2(delta_c: float, chi: float, alpha2, phi):
    """The paper's long-time g2 on delta_c in {0, 4 chi^2}: 1 + 2a(a+8u)/(a+4u)^2."""
    u = np.asarray(alpha2) * np.cos(np.asarray(phi) - math.pi * delta_c / (8 * chi**2)) ** 2
    a = 1.0 + delta_c
    return 1.0 + 2.0 * a * (a + 8.0 * u) / (a + 4.0 * u) ** 2


def single_exponential_limit(delta: float, chi: float, alpha2, phi) -> dict:
    """Long-time g2 in regime ii: G(t) tends to exp(gamma t) times v l^T.

    The scale factor cancels from every normalized correlator, so the limit
    is the statistics of the rank-1 matrix v l^T itself.
    """
    m = generator(delta, chi)
    w, v = np.linalg.eig(m)
    k = int(np.argmin(w.imag))
    rank1 = np.outer(v[:, k], np.linalg.inv(v)[k, :])
    return stats(rank1[None, :, :], alpha2, phi)


def oscillation_mean(delta: float, chi: float, alpha2, phi,
                     t_ref: float = 30.0, samples: int = 65) -> dict:
    """Mean of g2 over samples on [t_ref, t_ref + 2 pi / omega] in regime iii."""
    w = np.linalg.eigvals(generator(delta, chi))
    period = 2.0 * math.pi / float(np.max(np.abs(w.real)))
    times = np.linspace(t_ref, t_ref + period, samples)
    s = stats(green(delta, chi, times), alpha2, phi)
    return {k: v.mean(axis=0) for k, v in s.items()}


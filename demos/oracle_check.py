"""
Cross-checking the moment pipeline against a truncated Fock oracle
==================================================================

The library computes statistics from Gaussian moments, which is exact
for this quadratic model but rests on a chain of algebra (Green's
function, Wick expansion, normalization). A brute-force check evolves
the same state in a truncated number basis and reads the correlations
off the wavefunction directly.

The oracle applies exp(-iH dt) to the state vector by the Chebyshev
series of the exponential, in short substeps, and grows its truncation
with the state during one evolution: after every substep it checks that
the top two Fock levels of each mode hold a negligible population, and
pads the box by about a quarter where they do not. So agreement below is a real consistency test,
not two codes sharing one approximation. The printed truncation is the
box the evolution ended in; its sides need not be powers of two.
"""

import math

from caosim import (
    ModelParams,
    OpticalInit,
    build_generator,
    evolve,
    green_stack,
    initial_state,
    oracle_records,
    records,
)

params = ModelParams(1.0, 1.0)
init = OpticalInit(2.0, math.pi / 4)
times = [0.25, 0.5, 1.0, 2.0]

fock, cfg = oracle_records(params, init, times)
print(f"oracle truncation used: {cfg.nmax_atom} x {cfg.nmax_phot} levels\n")

# one propagator stack and one batched record cover every time
gauss = records(evolve(initial_state(init), green_stack(build_generator(params), times)),
                times)

print(f"{'t':>5} {'n3 gauss':>12} {'n3 fock':>12} {'g13 gauss':>11} "
      f"{'g13 fock':>11} {'worst dev':>10}")
for rec, n3, g13 in zip(fock, gauss.n3, gauss.g13):
    dev = max(abs(rec.n3 - n3) / n3, abs(rec.g13 - g13))
    print(f"{rec.t:5.2f} {n3:12.8f} {rec.n3:12.8f} "
          f"{g13:11.7f} {rec.g13:11.7f} {dev:10.2e}")

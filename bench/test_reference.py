"""The benchmark's reference agrees with the library and rejects wrong values.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q bench/test_reference.py
"""

import io
import math
import random

import pytest

import reference as ref
import workloads
from caosim import (
    ModelParams,
    OpticalInit,
    build_generator,
    correlation_record,
    evolve,
    green_function,
    initial_state,
    long_time_g2,
    threshold_g2,
)
from caosim.cli import main

POINTS = [
    (1.0, 1.0, 4.0, 0.7, 3.0),   # regime ii
    (-1.0, 1.0, 2.0, 2.5, 1.5),  # regime iii
    (2.0, 0.3, 9.0, 5.9, 0.3),   # regime i
    (4.0, 1.0, 1.0, 1.0, 2.0),   # threshold delta = 4 chi^2 (defective M)
]


@pytest.mark.parametrize("delta, chi, alpha2, phi, t", POINTS)
def test_stats_match_library(delta, chi, alpha2, phi, t):
    gen = build_generator(ModelParams(delta, chi))
    state = evolve(initial_state(OpticalInit(math.sqrt(alpha2), phi)),
                   green_function(gen, t))
    rec = correlation_record(state, t)
    want = ref.stats(ref.green(delta, chi, [t]), [alpha2], [phi])
    for name in ("n1", "n3", "g11", "g33", "g13",
                 "classical_bound", "quantum_bound"):
        assert getattr(rec, name) == pytest.approx(want[name][0, 0], rel=1e-10)


def test_threshold_formula_matches_library():
    for delta_c, chi in ((0.0, 1.0), (4.0, 1.0), (0.64, 0.4)):
        for alpha2, phi in ((0.0, 0.0), (4.0, 0.5), (9.0, 2.0)):
            got = threshold_g2(ModelParams(delta_c, chi),
                               OpticalInit(math.sqrt(alpha2), phi), delta_c)
            assert got == pytest.approx(
                ref.threshold_g2(delta_c, chi, alpha2, phi), rel=1e-14)


def test_single_exponential_limit_matches_library():
    want = ref.single_exponential_limit(1.0, 1.0, [2.0], [2.5])
    for mode, name in (("atomic", "g11"), ("optical", "g33"), ("cross", "g13")):
        got = long_time_g2(ModelParams(1.0, 1.0), OpticalInit(math.sqrt(2.0), 2.5),
                           mode)
        assert got == pytest.approx(want[name][0, 0], rel=1e-6)


def _perturb(text, row, column, factor):
    lines = text.splitlines(keepends=True)
    fields = lines[row].rstrip("\n").split(",")
    fields[column] = repr(float(fields[column]) * factor)
    lines[row] = ",".join(fields) + "\n"
    return "".join(lines)


def test_checker_accepts_cli_output_and_rejects_a_perturbed_value():
    (call,) = workloads.grid_fixed(random.Random(0))
    buf = io.StringIO()
    rc = main(call.argv, out=buf)
    text = buf.getvalue()
    assert call.check(text, rc) == 0
    with pytest.raises(workloads.WrongValue):
        call.check(_perturb(text, 4000, 4, 1.0 + 1e-7), rc)  # one g13
    with pytest.raises(workloads.WrongValue):
        call.check(text, 3)


def test_longtime_checker_rejects_a_perturbed_value():
    ii = workloads.longtime(random.Random(0))[0]
    buf = io.StringIO()
    rc = main(ii.argv, out=buf)
    text = buf.getvalue()
    assert ii.check(text, rc) == 0
    with pytest.raises(workloads.WrongValue):
        ii.check(_perturb(text, 7, 3, 1.0 + 1e-5), rc)  # one g33


"""The benchmark's workloads: the CLI calls of one round and their checks.

A round is a fixed list of ``caosim`` command lines built from the seed.
Each call knows how many operations (output rows) it asks for and how to
check its output against :mod:`reference`. A check raises
:class:`WrongValue` on any value that disagrees, and returns the number of
operations that failed (rows the CLI left empty).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import reference as ref

TWO_PI = 2.0 * math.pi
#: chi on the negative-delta threshold surface (1 - delta^2)^2 / |delta| = 16 chi^2
#: at delta = -3.
CHI_NEGATIVE_SURFACE = 2.0 / math.sqrt(3.0)


class WrongValue(AssertionError):
    """The program printed a value that the reference rejects."""


@dataclass
class Call:
    """One CLI invocation of a round."""

    argv: list[str]
    ops: int
    check: Callable[[str, int], int] = field(repr=False)


def _num(x: float) -> str:
    return repr(float(x))


def parse_csv(text: str):
    """Header, float rows (NaN for empty fields) and ``#`` footer lines."""
    lines = text.splitlines()
    header = lines[0].split(",")
    body = [ln for ln in lines[1:] if not ln.startswith("#")]
    footer = [ln[2:] for ln in lines[1:] if ln.startswith("#")]
    rows = np.array(
        [[float(v) if v else math.nan for v in ln.split(",")] for ln in body]
    ).reshape(len(body), len(header))
    return header, rows, footer


def _close(label, got, want, rtol, atol=0.0):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    bad = ~(np.abs(got - want) <= atol + rtol * np.abs(want))
    if np.any(bad):
        i = int(np.flatnonzero(bad.ravel())[0])
        raise WrongValue(
            f"{label}: {np.count_nonzero(bad)} value(s) off, first "
            f"{got.ravel()[i]!r} against reference {want.ravel()[i]!r}"
        )


def _require(label, ok):
    ok = np.asarray(ok)
    if not np.all(ok):
        raise WrongValue(f"{label}: fails on {np.count_nonzero(~ok)} row(s)")


def _expect_rc(rc, want, label):
    if rc != want:
        raise WrongValue(f"{label}: exit code {rc}, expected {want}")


def _bounds_hold(label, col):
    """classical_bound <= quantum_bound and g13 <= quantum_bound."""
    _require(f"{label} classical <= quantum bound",
             col["classical_bound"] <= col["quantum_bound"] * (1 + 1e-12))
    _require(f"{label} g13 <= quantum bound",
             col["g13"] <= col["quantum_bound"] * (1 + 1e-9))


def _grid(a_lo, a_hi, a_n, p_lo, p_hi, p_n):
    """The (alpha2, phi) cells of ``caosim sweep``, alpha2-major."""
    a = np.linspace(a_lo, a_hi, a_n)
    p = np.linspace(p_lo, p_hi, p_n, endpoint=False)
    return np.repeat(a, p_n), np.tile(p, a_n)


def _sweep_argv(delta, chi, grid, policy, extra=()):
    a_lo, a_hi, a_n, p_lo, p_hi, p_n = grid
    return [
        "sweep", "--delta", _num(delta), "--chi", _num(chi),
        "--time-policy", policy,
        "--alpha2-min", _num(a_lo), "--alpha2-max", _num(a_hi),
        "--alpha2-count", str(a_n),
        "--phi-min", _num(p_lo), "--phi-max", _num(p_hi),
        "--phi-count", str(p_n), "--jobs", "1", *extra,
    ]


def _seeded_grid(rng, a_n, p_n, a_span):
    a_lo = rng.uniform(0.0, 0.5)
    p_lo = rng.uniform(0.0, 0.1)
    return (a_lo, a_lo + rng.uniform(*a_span), a_n,
            p_lo, p_lo + TWO_PI - 0.1, p_n)


def _sweep_columns(text, grid, label):
    header, rows, _ = parse_csv(text)
    a, p = _grid(*grid)
    if rows.shape[0] != a.size:
        raise WrongValue(f"{label}: {rows.shape[0]} rows, expected {a.size}")
    _close(f"{label} alpha2", rows[:, 0], a, 1e-15)
    _close(f"{label} phi", rows[:, 1], p, 1e-15)
    col = dict(zip(header, rows.T))
    return col, a, p


# --- grid_fixed -------------------------------------------------------------

def grid_fixed(rng) -> list[Call]:
    """101x64 fixed-time sweep in regime ii (delta=1, chi=1, t=8)."""
    grid = _seeded_grid(rng, 101, 64, (9.0, 10.0))

    def check(text, rc):
        _expect_rc(rc, 0, "grid_fixed")
        col, a, p = _sweep_columns(text, grid, "grid_fixed")
        want = ref.stats(ref.green(1.0, 1.0, [8.0]), a, p)
        for name in ("g11", "g33", "g13", "classical_bound", "quantum_bound"):
            _close(f"grid_fixed {name}", col[name], want[name][0], 1e-9)
        _bounds_hold("grid_fixed", col)
        return 0

    argv = _sweep_argv(1.0, 1.0, grid, "fixed", ("--t", "8"))
    return [Call(argv, 101 * 64, check)]


# --- series -------------------------------------------------------------------

def series(rng) -> list[Call]:
    """evolve --steps 10000 at one seeded (|alpha|^2, phi) in regime ii."""
    alpha2, phi, steps = rng.uniform(1.0, 9.0), rng.uniform(0.0, TWO_PI), 10000

    def check(text, rc):
        _expect_rc(rc, 0, "series")
        header, rows, footer = parse_csv(text)
        times = np.linspace(0.05, 6.0, steps)
        if rows.shape[0] != steps or footer:
            raise WrongValue(f"series: {rows.shape[0]} rows, footer {footer}")
        col = dict(zip(header, rows.T))
        _close("series t", col["t"], times, 1e-15)
        want = ref.stats(ref.green(1.0, 1.0, times), [alpha2], [phi])
        for name in ("n1", "n3", "g11", "g33", "g13",
                     "classical_bound", "quantum_bound"):
            _close(f"series {name}", col[name], want[name][:, 0], 1e-9)
        _bounds_hold("series", col)
        return 0

    argv = ["evolve", "--delta", "1", "--chi", "1",
            "--alpha2", _num(alpha2), "--phi", _num(phi),
            "--t-start", "0.05", "--t-end", "6", "--steps", str(steps)]
    return [Call(argv, steps, check)]


# --- longtime -----------------------------------------------------------------

MODES = ("g11", "g33", "g13")


def _longtime_call(delta, chi, grid, label, make_check):
    """A longtime sweep whose non-empty cells pass ``make_check``'s test."""
    check_cells = make_check(delta, chi, label)

    def check(text, rc):
        _expect_rc(rc, 0, label)
        col, a, p = _sweep_columns(text, grid, label)
        if not np.all(np.isnan(col["classical_bound"])
                      & np.isnan(col["quantum_bound"])):
            raise WrongValue(f"{label}: longtime rows carry bounds")
        empty = np.isnan(col["g11"]) | np.isnan(col["g33"]) | np.isnan(col["g13"])
        ok = ~empty
        check_cells({k: col[k][ok] for k in MODES}, a[ok], p[ok])
        return int(np.count_nonzero(empty))

    return Call(_sweep_argv(delta, chi, grid, "longtime"), grid[2] * grid[5], check)


def _check_single_exponential(delta, chi, label):
    def check_cells(col, a, p):
        want = ref.single_exponential_limit(delta, chi, a, p)
        for k in MODES:
            _close(f"{label} {k}", col[k], want[k][0], 1e-6)
        # criterion 7: g11 = g33; criterion 10: g13 >= 1
        _close(f"{label} g11 = g33", col["g11"], col["g33"], 1e-6)
        _require(f"{label} g13 >= 1", col["g13"] >= 1.0 - 1e-6)
    return check_cells


def _check_beating(delta, chi, label):
    def check_cells(col, a, p):
        want = ref.oscillation_mean(delta, chi, a, p)
        for k in MODES:
            _close(f"{label} {k}", col[k], want[k], 1e-9)
    return check_cells


def _check_in_late_range(delta, chi, label):
    """Each window mean lies within the range g2(t) sweeps on [10, 2560].

    2560 is the end of the last window long_time_g2 samples before t_max.
    The slack covers extremes that fall between the samples.
    """
    def check_cells(col, a, p):
        g = ref.green_grid(delta, chi, 10.0, 0.05, 51001)
        for i in range(a.size):
            s = ref.stats(g, [a[i]], [p[i]])
            for k in MODES:
                lo, hi = s[k].min(), s[k].max()
                slack = 1e-2 * (hi - lo) + 1e-9 * hi
                if not lo - slack <= col[k][i] <= hi + slack:
                    raise WrongValue(
                        f"{label} {k} at alpha2={a[i]!r}, phi={p[i]!r}: "
                        f"{col[k][i]!r} outside [{lo!r}, {hi!r}]"
                    )
    return check_cells


def _check_threshold(delta_c, chi, label):
    in_range = _check_in_late_range(delta_c, chi, label)

    def check_cells(col, a, p):
        want = ref.threshold_g2(delta_c, chi, a, p)
        # criterion 1 holds the closed form to 1% on these surfaces
        _close(f"{label} g11", col["g11"], want, 1e-2)
        _close(f"{label} g33", col["g33"], want, 1e-2)
        in_range(col, a, p)
    return check_cells


def longtime(rng) -> list[Call]:
    """Longtime sweeps in regimes ii and iii and on the three regime-iv surfaces.

    The delta=4 chi^2 and negative-delta grids are the same for every seed:
    some of their cells never converge (a known fault) and come back empty,
    and the share of failed operations must not depend on the seed.
    """
    return [
        _longtime_call(1.0, 1.0, _seeded_grid(rng, 6, 8, (8.0, 9.0)),
                       "longtime ii", _check_single_exponential),
        _longtime_call(-1.0, 1.0, _seeded_grid(rng, 4, 6, (8.0, 9.0)),
                       "longtime iii", _check_beating),
        _longtime_call(0.0, 1.0, _seeded_grid(rng, 6, 8, (8.0, 9.0)),
                       "longtime delta=0", _check_threshold),
        _longtime_call(4.0, 1.0, (8.0, 10.0, 3, 0.0, TWO_PI, 16),
                       "longtime delta=4chi^2", _check_threshold),
        _longtime_call(-3.0, CHI_NEGATIVE_SURFACE, (1.0, 9.0, 4, 0.0, TWO_PI, 8),
                       "longtime negative surface", _check_in_late_range),
    ]


# --- oracle -------------------------------------------------------------------

def _oracle_call(delta, chi, alpha2, phi, times):
    label = f"oracle delta={delta} chi={chi}"

    def check(text, rc):
        _expect_rc(rc, 0, label)
        header, rows, footer = parse_csv(text)
        if "status: PASS" not in footer:
            raise WrongValue(f"{label}: footer {footer}")
        col = dict(zip(header, rows.T))
        _close(f"{label} t", col["t"], times, 0.0)
        want = ref.stats(ref.green(delta, chi, times), [alpha2], [phi])
        for name in ("n1", "n3", "g11", "g33", "g13"):
            w = want[name][:, 0]
            _close(f"{label} {name}_gaussian", col[f"{name}_gaussian"], w, 1e-9)
            # the oracle's own acceptance: occupations to 1e-6 relative,
            # correlations to 1e-4 absolute
            if name in ("n1", "n3"):
                _close(f"{label} {name}_fock", col[f"{name}_fock"], w, 1e-6)
            else:
                _close(f"{label} {name}_fock", col[f"{name}_fock"], w, 0.0, 1e-4)
        return 0

    argv = ["oracle-compare", "--delta", _num(delta), "--chi", _num(chi),
            "--alpha2", _num(alpha2), "--phi", _num(phi),
            "--times", ",".join(_num(t) for t in times)]
    return Call(argv, len(times), check)


def oracle(rng) -> list[Call]:
    """Fock-oracle comparisons: two regime iii cases and two regime i cases.

    The regime iii inputs are fixed: their truncation grows through several
    stages (to 128x256 and 128x128), and how far it grows jumps with the
    phase, so seeding them would change the work from run to run. The
    regime i cases are cheap and take their intensity and phase from the seed.
    """
    return [
        _oracle_call(-1.0, 1.0, 1.0, 0.3, [0.5, 1.0, 1.5]),
        _oracle_call(-0.5, 0.8, 1.0, 0.3, [0.5, 1.0, 1.5]),
        _oracle_call(2.0, 0.3, rng.uniform(0.5, 3.0), rng.uniform(0.0, TWO_PI),
                     [1.0, 2.0, 3.0]),
        _oracle_call(-2.0, 0.2, rng.uniform(0.5, 3.0), rng.uniform(0.0, TWO_PI),
                     [1.0, 2.0, 3.0]),
    ]


WORKLOADS = {
    "grid_fixed": grid_fixed,
    "series": series,
    "longtime": longtime,
    "oracle": oracle,
}


def build(name: str, seed: int) -> list[Call]:
    """The calls of one round of workload ``name`` for ``seed``."""
    return WORKLOADS[name](random.Random(seed))

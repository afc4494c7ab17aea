"""End-to-end checks of the command-line front end.

Everything goes through ``cli.main`` with an in-memory stream so the tests
see exactly the bytes a shell pipeline would.
"""

import gc
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from caosim import (
    OCCUPATION_THRESHOLD,
    CaosimError,
    InvalidParameterError,
    NonConvergenceError,
    PropagatorOverflowError,
    UndefinedCorrelationError,
    build_generator,
    cli,
    correlation_record,
    evolve,
    green_function,
    green_stack,
    initial_state,
    observables,
)
from caosim.observables import long_time_g2, threshold_g2
from caosim.model import ModelParams
from caosim.fock import FockConfig
from caosim.gaussian import OpticalInit


def run_cli(argv):
    out = io.StringIO()
    code = cli.main(argv, out=out)
    return code, out.getvalue()


def parse_csv(text):
    lines = text.split("\n")
    header = lines[0].split(",")
    rows = []
    comments = []
    for line in lines[1:]:
        if not line:
            continue
        if line.startswith("# "):
            comments.append(line[2:])
        else:
            rows.append(line.split(","))
    return header, rows, comments


def test_evolve_csv_shape_and_determinism():
    argv = ["evolve", "--delta", "1", "--chi", "1", "--steps", "12"]
    code1, text1 = run_cli(argv)
    code2, text2 = run_cli(argv)
    assert code1 == code2 == cli.EXIT_OK
    assert text1 == text2  # byte-for-byte reproducible
    header, rows, comments = parse_csv(text1)
    assert header == cli.RECORD_HEADER
    assert len(rows) == 12
    assert comments == []
    # 17-significant-digit round trip
    for row in rows:
        for cell in row:
            if cell:
                float(cell)


def test_evolve_undefined_statistics_leave_empty_fields():
    # chi=0 with no optical seed keeps both modes empty, so every
    # normalized statistic is undefined.
    code, text = run_cli(
        ["evolve", "--delta", "1", "--chi", "0", "--steps", "3"]
    )
    assert code == cli.EXIT_OK
    header, rows, _ = parse_csv(text)
    for row in rows:
        assert float(row[header.index("n1")]) < 1e-12
        assert float(row[header.index("n3")]) < 1e-12
        for name in ("g11", "g33", "g13", "classical_bound", "quantum_bound"):
            assert row[header.index(name)] == ""


def test_evolve_overflow_footer_and_exit_code():
    code, text = run_cli(
        ["evolve", "--delta", "1", "--chi", "1",
         "--t-start", "100", "--t-end", "400", "--steps", "4"]
    )
    assert code == cli.EXIT_NUMERICAL
    header, rows, comments = parse_csv(text)
    assert len(rows) < 4
    assert comments and comments[0].startswith("overflow at t=")


def test_evolve_moment_overflow_is_numerical_failure():
    # G(t) is fine, but the fourth moments of |alpha|^2 = 1e300 overflow
    argv = ["evolve", "--delta", "1", "--chi", "1", "--alpha2", "1e300",
            "--steps", "3"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # and no numpy warning is printed
        code, text = run_cli(argv)
        json_code, json_text = run_cli(argv + ["--json"])
    assert code == json_code == cli.EXIT_NUMERICAL
    header, rows, comments = parse_csv(text)
    assert rows == []
    assert comments == ["overflow at t=0.050000000000000003"]
    assert json.loads(json_text)["overflow"] == comments[0]


def test_evolve_json_schema():
    code, text = run_cli(
        ["evolve", "--delta", "-1", "--chi", "1", "--steps", "5", "--json"]
    )
    assert code == cli.EXIT_OK
    doc = json.loads(text)
    assert doc["schema_version"] == cli.SCHEMA_VERSION
    assert doc["command"] == "evolve"
    assert doc["columns"] == cli.RECORD_HEADER
    assert len(doc["rows"]) == 5
    assert doc["overflow"] is None


def test_single_cell_sweep_matches_evolve_point():
    t = 2.5
    code_s, text_s = run_cli(
        ["sweep", "--delta", "1", "--chi", "1",
         "--alpha2-min", "4", "--alpha2-max", "4", "--alpha2-count", "1",
         "--phi-min", "0.7", "--phi-count", "1",
         "--time-policy", "fixed", "--t", str(t), "--jobs", "1"]
    )
    code_e, text_e = run_cli(
        ["evolve", "--delta", "1", "--chi", "1", "--alpha2", "4",
         "--phi", "0.7", "--t-start", str(t), "--t-end", str(t),
         "--steps", "1"]
    )
    assert code_s == code_e == cli.EXIT_OK
    s_header, s_rows, _ = parse_csv(text_s)
    e_header, e_rows, _ = parse_csv(text_e)
    assert len(s_rows) == len(e_rows) == 1
    for name in ("g11", "g33", "g13", "classical_bound", "quantum_bound"):
        a = float(s_rows[0][s_header.index(name)])
        b = float(e_rows[0][e_header.index(name)])
        assert a == pytest.approx(b, rel=1e-12)


def test_sweep_parallel_matches_serial():
    argv = ["sweep", "--delta", "-1", "--chi", "1",
            "--alpha2-min", "0", "--alpha2-max", "4", "--alpha2-count", "2",
            "--phi-count", "3", "--time-policy", "fixed", "--t", "4"]
    _, serial = run_cli(argv + ["--jobs", "1"])
    _, parallel = run_cli(argv + ["--jobs", "2"])
    assert serial == parallel


def test_classify_json_regimes():
    code, text = run_cli(["classify", "--delta", "-1", "--chi", "1", "--json"])
    assert code == cli.EXIT_OK
    doc = json.loads(text)
    assert doc["regime"] == "iii"
    assert doc["omega"] == pytest.approx(1.2720196495140690, abs=1e-12)
    assert doc["gamma"] == pytest.approx(0.78615137775742328, abs=1e-12)


def test_threshold_matches_library_call():
    code, text = run_cli(
        ["threshold", "--delta-c", "0", "--chi", "1",
         "--alpha2", "4", "--phi", "0.5"]
    )
    assert code == cli.EXIT_OK
    expected = threshold_g2(
        ModelParams(0.0, 1.0), OpticalInit(2.0, 0.5), 0.0
    )
    assert float(text.strip()) == pytest.approx(expected, rel=1e-15)


def test_threshold_spontaneous_is_three():
    code, text = run_cli(["threshold", "--delta-c", "0", "--chi", "1"])
    assert code == cli.EXIT_OK
    assert float(text.strip()) == pytest.approx(3.0, abs=1e-14)


def test_preset_requiring_phase_is_usage_error():
    code, _ = run_cli(["evolve", "--preset", "fig3b", "--steps", "3"])
    assert code == cli.EXIT_USAGE


def test_preset_with_phase_runs():
    code, text = run_cli(
        ["evolve", "--preset", "fig3b", "--phi", str(math.pi / 4),
         "--steps", "4", "--json"]
    )
    assert code == cli.EXIT_OK
    doc = json.loads(text)
    assert doc["alpha2"] == 4.0
    assert doc["delta"] == 1.0


def test_missing_required_option_is_usage_error():
    code, _ = run_cli(["classify", "--chi", "1"])
    assert code == cli.EXIT_USAGE


def test_config_file_supplies_and_flags_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# comment line\n"
        "delta = 1.0\n"
        "chi = 1.0   # inline comment\n"
        "tol = 1e-9\n"
    )
    code, text = run_cli(["classify", "--config", str(cfg), "--json"])
    assert code == cli.EXIT_OK
    assert json.loads(text)["regime"] == "ii"
    # flag wins over the config value
    code, text = run_cli(
        ["classify", "--config", str(cfg), "--delta", "-1", "--json"]
    )
    assert code == cli.EXIT_OK
    assert json.loads(text)["regime"] == "iii"


def test_config_file_syntax_error_is_usage_error(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("delta 1.0\n")
    code, _ = run_cli(["classify", "--config", str(cfg), "--chi", "1"])
    assert code == cli.EXIT_USAGE


def test_oracle_compare_pass():
    code, text = run_cli(
        ["oracle-compare", "--delta", "1", "--chi", "1",
         "--times", "0.25,0.5", "--json"]
    )
    assert code == cli.EXIT_OK
    doc = json.loads(text)
    assert doc["status"] == "PASS"
    assert doc["errors"]["max_occupation_rel"] < 1e-6
    assert doc["errors"]["max_g2_abs"] < 1e-4


def test_oracle_compare_truncation_inadequate():
    # a dimension cap below the smallest usable truncation cannot converge,
    # and chi=1e10 would need about 1e9 substeps in the first 16x16 box
    for chi, times, cap in (("1", "2.0", "64"), ("1e10", "0.1", "1024")):
        code, text = run_cli(
            ["oracle-compare", "--delta", "1", "--chi", chi,
             "--times", times, "--dim-cap", cap, "--json"]
        )
        assert code == cli.EXIT_NUMERICAL
        doc = json.loads(text)
        assert doc["status"] == "TRUNCATION-INADEQUATE"


def test_oracle_compare_late_time_warning_comment():
    code, text = run_cli(
        ["oracle-compare", "--delta", "1", "--chi", "0.2",
         "--times", "0.5,3.5", "--json"]
    )
    doc = json.loads(text)
    assert any("beyond t=3" in c for c in doc["comments"])


def test_oracle_compare_is_byte_reproducible():
    # the oracle's Chebyshev steps draw no random numbers, so the global
    # numpy seed cannot change a digit of the output
    argv = ["oracle-compare", "--delta", "-1", "--chi", "1", "--alpha2", "1",
            "--phi", "0.3", "--times", "0.5,1,1.5"]
    outputs = []
    for seed in (1, 4):
        np.random.seed(seed)
        outputs.append(run_cli(argv))
    assert outputs[0][0] == cli.EXIT_OK
    assert outputs[0] == outputs[1]


def test_oracle_compare_starting_truncation_over_cap():
    # the default 16x16 start already exceeds a cap of 100
    code, text = run_cli(
        ["oracle-compare", "--delta", "2", "--chi", "0.2", "--dim-cap", "100",
         "--times", "0.1"]
    )
    assert code == cli.EXIT_NUMERICAL
    assert "# status: TRUNCATION-INADEQUATE" in text.splitlines()


class ClosedPipe(io.TextIOWrapper):
    """A stdout whose reader has gone away."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_broken_pipe_exits_quietly(tmp_path, monkeypatch):
    path = tmp_path / "stdout"
    stdout = ClosedPipe(open(path, "wb"))
    monkeypatch.setattr(sys, "stdout", stdout)
    code = cli.main(["evolve", "--delta", "1", "--chi", "1", "--steps", "3"])
    assert code == cli.EXIT_OK
    # stdout now points at devnull: a later flush goes nowhere and succeeds
    os.write(stdout.fileno(), b"late bytes\n")
    stdout.close()
    assert path.read_bytes() == b""


SWEEP_STATS = ("g11", "g33", "g13", "classical_bound", "quantum_bound")


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(
    delta=st.floats(-3.0, 3.0),
    chi=st.one_of(st.just(0.0), st.floats(0.0, 2.0)),
    t=st.floats(0.0, 8.0),
    alpha2_max=st.floats(0.0, 9.0),
    alpha2_count=st.integers(1, 3),
    phi_count=st.integers(1, 4),
)
def test_fixed_sweep_matches_per_cell_records(
    delta, chi, t, alpha2_max, alpha2_count, phi_count
):
    # the grid always starts at alpha2 = 0, the cell with no optical seed
    code, text = run_cli(
        ["sweep", f"--delta={delta!r}", f"--chi={chi!r}",
         "--alpha2-min", "0", f"--alpha2-max={alpha2_max!r}",
         "--alpha2-count", str(alpha2_count), "--phi-count", str(phi_count),
         "--time-policy", "fixed", f"--t={t!r}"]
    )
    header, rows, comments = parse_csv(text)
    gen = build_generator(ModelParams(delta, chi))
    try:
        g = green_function(gen, t)
    except PropagatorOverflowError:  # no rows, the footer and exit 3
        assert (code, rows, comments) == (cli.EXIT_NUMERICAL, [], [f"overflow at t={t!r}"])
        return
    assert code == cli.EXIT_OK
    assert len(rows) == alpha2_count * phi_count
    for row in rows:
        alpha2, phi = float(row[0]), float(row[1])
        rec = correlation_record(
            evolve(initial_state(OpticalInit(math.sqrt(alpha2), phi)), g), t
        )
        for name in SWEEP_STATS:
            cell, want = row[header.index(name)], getattr(rec, name)
            if want is None:
                assert cell == ""
            else:
                assert float(cell) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--delta", "1", "--chi", "1", "--alpha2-min", "-1",
         "--alpha2-count", "2", "--phi-count", "2"],
        ["evolve", "--delta", "1", "--chi", "1", "--alpha2", "-1"],
        ["evolve", "--delta", "1", "--chi", "1", "--alpha2", "nan"],
        ["oracle-compare", "--delta", "1", "--chi", "1", "--times", "0.5,x"],
        ["oracle-compare", "--delta", "1", "--chi", "1", "--times", "nan"],
        ["oracle-compare", "--delta", "1", "--chi", "1", "--times", "0.5,inf"],
        ["classify", "--delta", "-1", "--chi", "1", "--tol", "2"],
        ["oracle-compare", "--delta", "1", "--chi", "1", "--times", "0.1",
         "--rtol-occupation", "nan"],
        ["oracle-compare", "--delta", "1", "--chi", "1", "--times", "0.1",
         "--atol-g2", "nan"],
        ["oracle-compare", "--delta", "1", "--chi", "1", "--times", "0.1",
         "--atol-g2", "-1"],
        # tol is a roundoff band: at 0.5 it put (-1, 1) of regime iii on delta=0
        ["classify", "--delta", "-1", "--chi", "1", "--tol", "0.5"],
        # an infinite intensity is named before the grid is built from it
        ["sweep", "--delta", "1", "--chi", "1", "--alpha2-max", "inf",
         "--alpha2-count", "2", "--phi-count", "2"],
    ],
)
def test_bad_values_are_usage_errors(argv):
    code, text = run_cli(argv)
    assert code == cli.EXIT_USAGE
    assert text == ""


def test_strong_coupling_does_not_widen_the_delta_zero_band():
    # the delta=0 band is |delta| <= tol, whatever chi: delta=1 at chi=2e4 is
    # regime ii, and no threshold value exists for delta_c=1 there
    code, text = run_cli(["classify", "--delta", "1", "--chi", "2e4"])
    assert code == cli.EXIT_OK
    assert text.splitlines()[0] == "regime: ii"
    code, text = run_cli(["threshold", "--delta-c", "1", "--chi", "2e4", "--alpha2", "1"])
    assert (code, text) == (cli.EXIT_USAGE, "")


@pytest.mark.parametrize(
    "command, line",
    [
        pytest.param("evolve", "steps = 12.5", id="steps"),
        pytest.param("oracle-compare", "dim_cap = abc", id="dim_cap"),
        pytest.param("sweep", "time_policy = foo", id="time_policy"),
        # a NaN tolerance would pass every comparison
        pytest.param("oracle-compare", "atol_g2 = nan", id="atol_g2"),
    ],
)
def test_config_value_of_wrong_type_is_usage_error(tmp_path, command, line):
    # a config value is read with its flag's type or choices, and checked as
    # the flag's value is
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"delta = 1\nchi = 1\n{line}\n")
    code, text = run_cli([command, "--config", str(cfg)])
    assert code == cli.EXIT_USAGE
    assert text == ""


@pytest.mark.parametrize(
    "line, code",
    [
        pytest.param("detla = 2", cli.EXIT_USAGE, id="misspelt"),
        pytest.param("preset = fig1", cli.EXIT_USAGE, id="flag-only"),
        pytest.param("steps = 3", cli.EXIT_OK, id="evolve-key"),
    ],
)
def test_config_key_of_no_subcommand_is_usage_error(tmp_path, line, code):
    # a key of another subcommand is allowed: one file serves several
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"delta = 1\nchi = 1\n{line}\n")
    got, text = run_cli(["classify", "--config", str(cfg)])
    assert got == code
    assert (text == "") == (code == cli.EXIT_USAGE)


@pytest.mark.parametrize("content", [None, b"delta = \xff\n"],
                         ids=["missing", "not-utf8"])
def test_unreadable_config_is_usage_error(tmp_path, content):
    cfg = tmp_path / "run.cfg"
    if content is not None:
        cfg.write_bytes(content)
    code, _ = run_cli(["classify", "--config", str(cfg), "--chi", "1"])
    assert code == cli.EXIT_USAGE


def test_config_and_flags_print_the_same_bytes(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("delta = 1\nchi = 1\nsteps = 3\n")
    for extra in ([], ["--json"]):
        from_config = run_cli(["evolve", "--config", str(cfg), *extra])
        from_flags = run_cli(
            ["evolve", "--delta", "1", "--chi", "1", "--steps", "3", *extra]
        )
        assert from_config == from_flags


def test_overflow_is_numerical_failure():
    # chi**2, or 4 chi^2, overflows while the regime is classified
    for chi in ("1e200", "1e154"):
        code, text = run_cli(["classify", "--delta", "1e308", "--chi", chi])
        assert code == cli.EXIT_NUMERICAL
        assert text == ""


def test_threshold_finite_at_huge_intensity():
    code, text = run_cli(
        ["threshold", "--delta-c", "0", "--chi", "1", "--alpha2", "1e308"]
    )
    assert code == cli.EXIT_OK
    assert 1.0 <= float(text) <= 3.0


def test_classification_failure_is_numerical_failure(monkeypatch):
    def fail(*args, **kwargs):
        raise CaosimError("classification failed")

    monkeypatch.setattr(cli, "classify_regime", fail)
    code, _ = run_cli(["classify", "--delta", "1", "--chi", "1"])
    assert code == cli.EXIT_NUMERICAL


def test_classify_near_delta_zero_is_threshold():
    # inside the delta=0 band |delta| <= 1e-9, with an eigenvalue split
    # (7.6e-5) wider than sqrt(tol) times the spectrum
    code, text = run_cli(
        ["classify", "--delta=-9.9e-10", "--chi", "1.2137432172653515"]
    )
    assert code == cli.EXIT_OK
    assert text.startswith("regime: iv (threshold delta=0)")


@pytest.mark.parametrize(
    "extra, rows_before",
    [
        pytest.param(["--t", "400"], 0, id="propagator-over-cap"),
        # only the alpha2=0 cells stay below the range of doubles
        pytest.param(["--alpha2-max", "1e300", "--alpha2-count", "3", "--t", "1"], 2,
                     id="moments-overflow"),
    ],
)
def test_fixed_sweep_overflow_is_numerical_failure(extra, rows_before):
    # the rows stop at the first overflowing cell, as in evolve
    argv = ["sweep", "--delta", "1", "--chi", "1", "--alpha2-count", "2",
            "--phi-count", "2", *extra]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # and no numpy warning is printed
        code, text = run_cli(argv)
        json_code, json_text = run_cli(argv + ["--json"])
    assert code == json_code == cli.EXIT_NUMERICAL
    header, rows, comments = parse_csv(text)
    assert len(rows) == rows_before
    assert all(float(row[0]) == 0.0 and row[2] for row in rows)
    assert comments == [f"overflow at t={extra[-1]}"]
    doc = json.loads(json_text)
    assert doc["overflow"] == comments[0]
    assert len(doc["rows"]) == rows_before


def test_sweep_json_has_no_overflow_without_one():
    code, text = run_cli(
        ["sweep", "--delta", "1", "--chi", "1", "--alpha2-count", "2",
         "--phi-count", "2", "--t", "2", "--json"]
    )
    assert code == cli.EXIT_OK
    doc = json.loads(text)
    assert doc["overflow"] is None
    assert len(doc["rows"]) == 4


def test_longtime_sweep_leaves_overflowing_cell_empty():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, text = run_cli(
            ["sweep", "--delta", "1", "--chi", "1", "--time-policy", "longtime",
             "--alpha2-min", "1e150", "--alpha2-max", "1e150",
             "--alpha2-count", "1", "--phi-count", "1"]
        )
    assert code == cli.EXIT_OK
    header, rows, comments = parse_csv(text)
    assert comments == []
    assert [row[2:] for row in rows] == [[""] * 5]


def test_longtime_sweep_leaves_undefined_cell_empty():
    # at chi=1e-8 from the vacuum every long-time correlator is 0/0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, text = run_cli(
            ["sweep", "--delta", "0", "--chi", "1e-8", "--time-policy", "longtime",
             "--alpha2-count", "1", "--phi-count", "1"]
        )
    assert code == cli.EXIT_OK
    header, rows, comments = parse_csv(text)
    assert comments == []
    assert [row[2:] for row in rows] == [[""] * 5]


def test_longtime_sweep_in_stable_regime_is_usage_error(capsys):
    # the regime is classified once per sweep, before any row
    code, text = run_cli(["sweep", "--delta", "2", "--chi", "0.3",
                          "--time-policy", "longtime"])
    assert code == cli.EXIT_USAGE
    assert text == ""
    assert "requires an unstable regime" in capsys.readouterr().err


LONGTIME_MODES = ("atomic", "optical", "cross")


def longtime_argv(delta, chi, a_lo, a_hi, a_n, p_n):
    return ["sweep", "--delta", repr(delta), "--chi", repr(chi),
            "--time-policy", "longtime", "--alpha2-min", repr(a_lo),
            "--alpha2-max", repr(a_hi), "--alpha2-count", str(a_n),
            "--phi-count", str(p_n)]


def long_time_outcome(call):
    """A comparable form of a long_time_g2 result, or of the error it raised."""
    try:
        got = call()
    except CaosimError as exc:
        return type(exc), str(exc), getattr(exc, "last_window", None)
    if isinstance(got, observables.OscillationSummary):
        return [got.minimum.tolist(), got.maximum.tolist(), got.mean.tolist(),
                got.period]
    return got.tolist()


@pytest.mark.parametrize(
    "delta, chi, grid, outcomes",
    [
        pytest.param(1.0, 1.0, (0.0, 9.0, 3, 3), {"ok"}, id="ii"),
        pytest.param(-1.0, 1.0, (0.0, 9.0, 3, 3), {"ok"}, id="iii"),
        pytest.param(0.0, 1.0, (0.0, 9.0, 3, 3), {"ok"}, id="delta=0"),
        pytest.param(4.0, 1.0, (8.0, 10.0, 3, 4), {"ok"}, id="delta=4chi^2"),
        # some cells never converge: NonConvergenceError with its last window
        pytest.param(-3.0, 2.0 / math.sqrt(3.0), (1.0, 9.0, 4, 8),
                     {"ok", NonConvergenceError}, id="negative-surface"),
        # every cell is 0/0
        pytest.param(0.0, 1e-8, (0.0, 0.0, 1, 2), {UndefinedCorrelationError},
                     id="undefined"),
        # the second row overflows its moments beside a converging first row
        pytest.param(1.0, 1.0, (0.0, 1e150, 2, 2), {"ok", NonConvergenceError},
                     id="overflow"),
    ],
)
def test_longtime_sweep_cells_equal_standalone_calls(monkeypatch, delta, chi, grid,
                                                     outcomes):
    cells = []

    def spy(*args, **kwargs):
        cells.append((args, kwargs))
        return long_time_g2(*args, **kwargs)

    monkeypatch.setattr(cli, "long_time_g2", spy)
    code, _ = run_cli(longtime_argv(delta, chi, *grid))
    assert code == cli.EXIT_OK
    assert len(cells) == grid[2] * grid[3]
    # one walk for the whole sweep, passed to every cell
    walks = {id(kwargs["windows"]) for _, kwargs in cells}
    assert len(walks) == 1 and cells[0][1]["windows"] is not None
    # replayed in sweep order on one shared walk, each cell gives what a
    # standalone call (a private walk) gives: the same bits or the same error
    shared = observables.LongTimeWindows(ModelParams(delta, chi))
    seen = set()
    for (params, init, modes), _ in cells:
        alone = long_time_outcome(lambda: long_time_g2(params, init, modes))
        assert long_time_outcome(
            lambda: long_time_g2(params, init, modes, windows=shared)) == alone
        seen.add(alone[0] if isinstance(alone, tuple) else "ok")
    assert seen == outcomes


def test_long_time_windows_serve_only_their_parameters():
    windows = observables.LongTimeWindows(ModelParams(1.0, 1.0))
    with pytest.raises(InvalidParameterError, match="cannot serve"):
        long_time_g2(ModelParams(1.0, 2.0), OpticalInit(1.0), "atomic",
                     windows=windows)


def test_no_longtime_state_outlives_a_sweep(monkeypatch):
    # sweeps A, B, A in one process: each prints the bytes of a fresh
    # process, and the second A computes every window again
    a = longtime_argv(1.0, 1.0, 0.0, 9.0, 3, 4)
    b = longtime_argv(-3.0, 2.0 / math.sqrt(3.0), 1.0, 9.0, 2, 4)
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    fresh = {tuple(argv): subprocess.run(
        [sys.executable, "-m", "caosim.cli", *argv], env=env, capture_output=True,
        text=True, check=True, timeout=120).stdout for argv in (a, b)}
    stacks = []

    def counted(*args, **kwargs):
        stacks[-1] += 1
        return green_stack(*args, **kwargs)

    monkeypatch.setattr(observables, "green_stack", counted)
    for argv in (a, b, a):
        stacks.append(0)
        code, text = run_cli(argv)
        assert code == cli.EXIT_OK
        assert text == fresh[tuple(argv)]
    # one stack per window that the slowest cell reaches, not one per cell
    # and window: A settles in its second window, B in its third
    assert stacks == [2, 3, 2]


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "--delta", "1", "--chi", "1"],
        ["evolve", "--delta", "1", "--chi", "1", "--steps", "3"],
        ["sweep", "--delta", "1", "--chi", "1", "--alpha2-count", "2",
         "--phi-count", "2"],
        longtime_argv(1.0, 1.0, 0.0, 9.0, 2, 2),
        ["threshold", "--delta-c", "0", "--chi", "1", "--alpha2", "4"],
        ["oracle-compare", "--delta", "2", "--chi", "0.3", "--times", "0.5"],
    ],
    ids=["classify", "evolve", "sweep-fixed", "sweep-longtime", "threshold",
         "oracle-compare"],
)
def test_main_leaves_no_cyclic_garbage(argv):
    # the parser is built once per process: a parser per call left its
    # reference cycles behind, and the heap grew with the number of calls
    run_cli(argv)
    gc.collect()
    gc.disable()
    try:
        code, _ = run_cli(argv)
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert code == cli.EXIT_OK


@pytest.mark.parametrize("span", [["--t-end=inf"], ["--t-start=-inf"], ["--t-end=nan"]])
def test_evolve_nonfinite_time_span_is_usage_error(span):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # checked before the time grid is built
        code, text = run_cli(["evolve", "--delta", "1", "--chi", "1", "--steps", "3",
                              *span])
    assert code == cli.EXIT_USAGE
    assert text == ""


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["sweep", "--alpha2-count", "1000000", "--phi-count", "1000000"],
                     id="sweep"),
        pytest.param(["evolve", "--steps", str(10**12)], id="evolve"),
    ],
)
def test_table_over_max_rows_is_usage_error(argv):
    # rejected before any array is built: the grids would need terabytes
    code, text = run_cli([*argv, "--delta", "1", "--chi", "1"])
    assert code == cli.EXIT_USAGE
    assert text == ""


def test_oracle_compare_rows_stop_at_moment_overflow(monkeypatch):
    # the Fock oracle cannot hold |alpha|^2 = 1e300; stand in the Gaussian
    # records so that only the overflow rule decides the table
    def gaussian_oracle(params, init, times, cfg):
        gen = build_generator(params)
        return [correlation_record(evolve(initial_state(init), green_function(gen, t)), t)
                for t in times], cfg or FockConfig()

    monkeypatch.setattr(cli, "oracle_records", gaussian_oracle)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(over="ignore", invalid="ignore"):
            code, text = run_cli(
                ["oracle-compare", "--delta", "1", "--chi", "1",
                 "--alpha2", "1e300", "--times", "0.5,1.0"]
            )
    assert code == cli.EXIT_NUMERICAL
    header, rows, comments = parse_csv(text)
    assert rows == []
    assert comments[-2:] == ["overflow at t=0.5", "status: OVERFLOW"]


NO_SCIPY_AT_START = """
import io, sys
import caosim
import caosim.cli

loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
assert not loaded, loaded
assert "caosim.fock" not in sys.modules
code = caosim.cli.main(["oracle-compare", "--delta", "1", "--chi", "1",
                        "--alpha2", "0", "--times", "0.1"], out=io.StringIO())
assert code == 0, code
assert "caosim.fock" in sys.modules
from caosim import fock
assert caosim.FockConfig is fock.FockConfig
assert caosim.oracle_records is fock.oracle_records
assert caosim.cli.oracle_records is fock.oracle_records
"""


def test_start_up_loads_no_scipy():
    # scipy is only the Fock oracle's: it loads with the first oracle-compare
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    subprocess.run([sys.executable, "-c", NO_SCIPY_AT_START], env=env, check=True,
                   timeout=120)
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "caosim.cli", "--help"],
                          env=env, capture_output=True, text=True, check=True,
                          timeout=120)
    imported = [line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()
                if line.startswith("import time:")]
    assert "caosim.propagator" in imported
    assert not [m for m in imported if m == "scipy" or m.startswith("scipy.")]


def per_time_evolve(delta, chi, alpha2, phi, times):
    """The records of ``evolve`` one time at a time, up to the first overflow.

    Returns the records and the time of the overflow, or None.
    """
    gen = build_generator(ModelParams(delta, chi))
    s0 = initial_state(OpticalInit(math.sqrt(alpha2), phi))
    recs = []
    for t in times.tolist():
        try:
            g = green_function(gen, t)
        except PropagatorOverflowError:
            return recs, t
        with np.errstate(over="ignore", invalid="ignore"):
            rec = correlation_record(evolve(s0, g), t)
        n1, n3 = rec.n1 > OCCUPATION_THRESHOLD, rec.n3 > OCCUPATION_THRESHOLD
        normalized = {"g11": n1, "g33": n3, "g13": n1 and n3}
        if not (math.isfinite(rec.n1) and math.isfinite(rec.n3)) or any(
            defined and not math.isfinite(getattr(rec, name) or math.nan)
            for name, defined in normalized.items()
        ):
            return recs, t
        recs.append(rec)
    return recs, None


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(
    delta=st.floats(-3.0, 3.0),
    chi=st.one_of(st.just(0.0), st.floats(0.0, 2.0)),
    # clear of sqrt(max double), where the last digit decides the overflow
    alpha2=st.one_of(st.floats(0.0, 9.0), st.floats(1e150, 1e153),
                     st.just(1e300)),
    phi=st.floats(0.0, 6.28),
    t_span=st.tuples(st.integers(0, 2500), st.integers(0, 2500)).map(
        lambda span: (span[0] / 10.0, span[1] / 10.0)
    ),
    steps=st.one_of(st.integers(1, 600), st.integers(250, 600)),
)
# past a block edge: G(t) over the cap, moments past the range of doubles
@example(delta=1.0, chi=1.0, alpha2=4.0, phi=0.5, t_span=(0.0, 250.0), steps=600)
@example(delta=1.0, chi=1.0, alpha2=4.0, phi=0.5, t_span=(250.0, 0.0), steps=600)
@example(delta=1.0, chi=1.0, alpha2=1e150, phi=0.5, t_span=(0.0, 8.0), steps=600)
def test_evolve_blocks_match_per_time_records(
    delta, chi, alpha2, phi, t_span, steps
):
    # ascending or descending spans, past the cap in the fast-growing cases
    # and past the range of doubles in the moments for the huge seeds
    t_start, t_end = t_span
    code, text = run_cli(
        ["evolve", f"--delta={delta!r}", f"--chi={chi!r}",
         f"--alpha2={alpha2!r}", f"--phi={phi!r}", f"--t-start={t_start!r}",
         f"--t-end={t_end!r}", "--steps", str(steps)]
    )
    recs, overflow = per_time_evolve(
        delta, chi, alpha2, phi, np.linspace(t_start, t_end, steps)
    )
    header, rows, comments = parse_csv(text)
    if overflow is None:
        assert (code, comments) == (cli.EXIT_OK, [])
    else:
        assert code == cli.EXIT_NUMERICAL
        assert comments == [f"overflow at t={overflow:.17g}"]
    assert len(rows) == len(recs)
    for row, rec in zip(rows, recs):
        assert float(row[0]) == rec.t
        for name, cell in zip(header[1:], row[1:]):
            want = getattr(rec, name)
            if want is None:
                assert cell == ""
            else:
                assert float(cell) == pytest.approx(want, rel=1e-12)


# The fuzz gate of the error contract: every numeric flag of every subcommand
# draws from the edges of the doubles. Each entry is the fixed part of the
# argv, the flags that must be given and the flags that may be left out.
FUZZ_VALUES = ["0", "-0", "1", "-1", "1e-308", "-1e-308", "1e10", "-1e10",
               "1e154", "-1e154", "1e308", "-1e308", "nan", "inf", "-inf"]
FUZZ_COMMANDS = {
    "classify": (["classify"], ["delta", "chi"], ["tol"]),
    "threshold": (["threshold"], ["delta-c", "chi"], ["alpha2", "phi"]),
    "evolve": (["evolve", "--steps", "3"], ["delta", "chi"],
               ["alpha2", "phi", "t-start", "t-end"]),
    "sweep-fixed": (["sweep", "--alpha2-count", "2", "--phi-count", "2"],
                    ["delta", "chi"],
                    ["alpha2-min", "alpha2-max", "phi-min", "phi-max", "t"]),
    "sweep-longtime": (["sweep", "--time-policy", "longtime", "--alpha2-count", "2",
                        "--phi-count", "2"], ["delta", "chi"],
                       ["alpha2-min", "alpha2-max", "phi-min", "phi-max"]),
    "oracle-compare": (["oracle-compare", "--times", "0.1", "--dim-cap", "1024"],
                       ["delta", "chi"], ["alpha2", "phi"]),
}


@pytest.mark.parametrize("command", sorted(FUZZ_COMMANDS))
@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(data=st.data())
def test_fuzz_error_contract(command, data):
    fixed, required, optional = FUZZ_COMMANDS[command]
    value = st.sampled_from(FUZZ_VALUES)
    argv = list(fixed)
    for flag in required:
        argv.append(f"--{flag}={data.draw(value, label=flag)}")
    for flag in optional:
        drawn = data.draw(st.none() | value, label=flag)
        if drawn is not None:
            argv.append(f"--{flag}={drawn}")
    assert_error_contract(argv)


def assert_error_contract(argv, context=None):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, text = run_cli(argv)  # no exception may escape main
    assert code in (cli.EXIT_OK, cli.EXIT_COMPARISON_FAILED, cli.EXIT_USAGE,
                    cli.EXIT_NUMERICAL), (argv, context)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], (argv, context)
    assert not re.search(r"(?i)\b(nan|inf|infinity)\b", text), (argv, context, text)
    return code


# The same gate through --config files: the values above and values of the
# wrong type, keys of every subcommand (and keys of none), and lines that are
# not UTF-8. The argv keeps the fixed flags, which take precedence over the file.
CONFIG_VALUES = FUZZ_VALUES + ["", "abc", "1.5", "1e3", "0x10", "fixed", "0.1,0.2",
                               "1_0", "\u0661", "a=b"]
CONFIG_KEYS = sorted({opt.name for _, _, opts in cli.COMMANDS.values() for opt in opts}
                     | {"detla", "json", "config"})
NOT_UTF8 = [b"phi = \xff\xfe\n", b"# caf\xe9\n", b"delta = 1\xc0\n"]


@pytest.mark.parametrize("command", sorted(FUZZ_COMMANDS))
@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(data=st.data())
def test_fuzz_error_contract_through_config_files(command, data, tmp_path_factory):
    fixed, required, optional = FUZZ_COMMANDS[command]
    value = st.sampled_from(CONFIG_VALUES)
    keys = [key.replace("-", "_") for key in required]
    keys += [key.replace("-", "_") for key in optional if data.draw(st.booleans())]
    keys += data.draw(st.lists(st.sampled_from(CONFIG_KEYS), max_size=3), label="extra")
    lines = [f"{key} = {data.draw(value, label=key)}\n".encode() for key in keys]
    if data.draw(st.booleans(), label="not utf-8"):
        lines.insert(data.draw(st.integers(0, len(lines))), data.draw(st.sampled_from(NOT_UTF8)))
    path = tmp_path_factory.getbasetemp() / f"fuzz-{command}.cfg"
    path.write_bytes(b"".join(lines))
    code = assert_error_contract([*fixed, "--config", str(path)], lines)
    if any(line in NOT_UTF8 for line in lines):
        assert code == cli.EXIT_USAGE, lines

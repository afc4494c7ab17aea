"""End-to-end checks of the command-line front end.

Everything goes through ``cli.main`` with an in-memory stream so the tests
see exactly the bytes a shell pipeline would.
"""

import io
import json
import math
import os
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from caosim import (
    ClassificationError,
    PropagatorOverflowError,
    build_generator,
    cli,
    correlation_record,
    evolve,
    green_function,
    initial_state,
)
from caosim.observables import threshold_g2
from caosim.model import ModelParams
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
    # a dimension cap below the smallest usable truncation cannot converge
    code, text = run_cli(
        ["oracle-compare", "--delta", "1", "--chi", "1",
         "--times", "2.0", "--dim-cap", "64", "--json"]
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
    # scipy estimates the norms of large Krylov steps from random vectors
    # (seeds 1 and 4 once gave different last digits); the oracle's steps
    # stay small enough to be exact, so the global seed cannot matter
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
    assert code == cli.EXIT_OK
    header, rows, _ = parse_csv(text)
    assert len(rows) == alpha2_count * phi_count
    gen = build_generator(ModelParams(delta, chi))
    try:
        g = green_function(gen, t)
    except PropagatorOverflowError:
        g = None
    for row in rows:
        alpha2, phi = float(row[0]), float(row[1])
        if g is None:
            assert all(row[header.index(name)] == "" for name in SWEEP_STATS)
            continue
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
    ],
)
def test_bad_values_are_usage_errors(argv):
    code, text = run_cli(argv)
    assert code == cli.EXIT_USAGE
    assert text == ""


@pytest.mark.parametrize(
    "command, line",
    [
        pytest.param("evolve", "steps = 12.5", id="steps"),
        pytest.param("oracle-compare", "dim_cap = abc", id="dim_cap"),
        pytest.param("sweep", "time_policy = foo", id="time_policy"),
    ],
)
def test_config_value_of_wrong_type_is_usage_error(tmp_path, command, line):
    # a config value is read with its flag's type or choices
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"delta = 1\nchi = 1\n{line}\n")
    code, text = run_cli([command, "--config", str(cfg)])
    assert code == cli.EXIT_USAGE
    assert text == ""


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
    # chi**2 overflows while the regime is classified
    code, text = run_cli(["classify", "--delta", "1e308", "--chi", "1e200"])
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
        raise ClassificationError("spectrum matches no regime pattern")

    monkeypatch.setattr(cli, "classify_regime", fail)
    code, _ = run_cli(["classify", "--delta", "1", "--chi", "1"])
    assert code == cli.EXIT_NUMERICAL


def test_classify_near_delta_zero_is_threshold():
    code, text = run_cli(
        ["classify", "--delta=-1.2479530186683278e-09",
         "--chi", "1.2137432172653515"]
    )
    assert code == cli.EXIT_OK
    assert text.startswith("regime: iv (threshold delta=0)")


def test_fixed_sweep_overflow_leaves_rows_empty():
    code, text = run_cli(
        ["sweep", "--delta", "1", "--chi", "1", "--alpha2-count", "2",
         "--phi-count", "2", "--t", "400"]
    )
    assert code == cli.EXIT_OK
    header, rows, _ = parse_csv(text)
    assert len(rows) == 4
    for row in rows:
        assert [row[header.index(name)] for name in SWEEP_STATS] == [""] * 5

"""Command-line front end emitting machine-readable tables.

Subcommands: classify, evolve, sweep, threshold, oracle-compare. Output is
CSV (header row, ``#``-prefixed comment/footer rows, 17-significant-digit
floats, ``\\n`` line endings) or a single JSON object via ``--json``.

Exit codes: 0 success, 1 comparison failure, 2 usage error, 3 numerical
failure (overflow / non-convergence / truncation inadequacy).

Option precedence is flags > preset > config file (flat ``key=value`` text,
``#`` comments) > built-in defaults; there are no environment variables.
Every option is declared once, in ``COMMANDS``: a config value is read with
its flag's type or choices, and an unreadable config file, or a key that no
subcommand has (flag-only options such as ``preset`` included), is a usage
error like a bad flag.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from typing import NamedTuple

import numpy as np

from .errors import CaosimError, InvalidParameterError, TruncationError
# green_function, evolve and correlation_record are unused here but stay
# importable: bench/tracer.py wraps them in cli by name. The Fock oracle is
# not imported here: see ``__getattr__`` below.
from .gaussian import OpticalInit, coherent_states, evolve, initial_state  # noqa: F401
from .model import ModelParams, build_generator, classify_regime
from .observables import (  # noqa: F401
    CorrelationRecord,
    LongTimeWindows,
    correlation_record,
    evaluate,
    long_time_g2,
    threshold_g2,
)
from .propagator import green_function  # noqa: F401


# ``oracle_records`` is a module attribute that imports the Fock oracle on
# first use (PEP 562): its sparse-matrix library would otherwise be most of
# every command's start-up. oracle-compare calls it through the module, so a
# patched ``cli.oracle_records`` is the one called.
def __getattr__(name):
    if name == "oracle_records":
        from .fock import oracle_records

        return oracle_records
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_COMPARISON_FAILED = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3

# Times per G(t) stack in ``evolve``: one stack of every time of a long
# series would hold them all in memory at once.
EVOLVE_BLOCK = 256

# Most rows of one table (``evolve`` steps, ``sweep`` cells): 100x the
# largest benchmark table (10000 steps). A fixed-sweep row costs about 1 kB
# (its record cell, its Python row and its text), so a table at the cap
# needs about 1 GB; a larger count is a usage error before any array is
# built, not a failed allocation or a full memory.
MAX_ROWS = 10**6

# Figure presets: captioned parameters baked in. The phases behind the 3b/3c
# and 4b/4c panels are not published, so those presets require --phi.
PRESETS = {
    "fig1": {"delta": 1.0, "chi": 1.0, "time_policy": "longtime"},
    "fig2": {"delta": -1.0, "chi": 1.0, "time_policy": "fixed", "t": 8.0},
    "fig3a": {"delta": 1.0, "chi": 1.0, "alpha2": 0.0, "phi": 0.0},
    "fig3b": {"delta": 1.0, "chi": 1.0, "alpha2": 4.0, "need_phi": True},
    "fig3c": {"delta": 1.0, "chi": 1.0, "alpha2": 4.0, "need_phi": True},
    "fig4a": {"delta": -1.0, "chi": 1.0, "alpha2": 0.0, "phi": 0.0},
    "fig4b": {"delta": -1.0, "chi": 1.0, "alpha2": 4.0, "need_phi": True},
    "fig4c": {"delta": -1.0, "chi": 1.0, "alpha2": 4.0, "need_phi": True},
}


def _fmt(value) -> str:
    if value is None:
        return ""
    return format(float(value), ".17g")


def _emit_csv(out, header, rows, footer_comments=()):
    out.write(",".join(header) + "\n")
    for row in rows:
        out.write(",".join(_fmt(v) for v in row) + "\n")
    for comment in footer_comments:
        out.write(f"# {comment}\n")


def _emit_json(out, command, payload):
    doc = {"schema_version": SCHEMA_VERSION, "command": command}
    doc.update(payload)
    out.write(json.dumps(doc, indent=2, default=_json_default) + "\n")


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    raise TypeError(f"not JSON-serializable: {obj!r}")


def _load_config(path):
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidParameterError(f"cannot read config file: {exc}") from None
    values = {}
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidParameterError(
                f"{path}:{lineno}: expected key=value, got {raw!r}"
            )
        key, value = (part.strip() for part in line.split("=", 1))
        values[key.replace("-", "_")] = value
    return values


REQUIRED = object()  # must come from a flag or the config file
FLAG_ONLY = object()  # has no config key


class Option(NamedTuple):
    """One subcommand option: flag ``--name-with-dashes``, config key ``name``.

    ``kind`` is the type of the value or the tuple of its choices, for the
    flag and the config value alike. ``default`` is ``REQUIRED``, a value,
    ``None`` for a genuinely optional setting, or ``FLAG_ONLY``.
    """

    name: str
    kind: type | tuple
    default: object = None
    help: str | None = None

    def parse(self, raw: str):
        """The config value ``raw``, read as argparse reads the flag."""
        if isinstance(self.kind, tuple):
            if raw in self.kind:
                return raw
            raise InvalidParameterError(
                f"{self.name} must be one of {self.kind}, got {raw!r}"
            )
        try:
            return self.kind(raw)
        except ValueError:
            raise InvalidParameterError(
                f"{self.name}: invalid {self.kind.__name__} value {raw!r}"
            ) from None


def _resolve(args, options):
    """Apply precedence flags > config file > defaults to the parsed args."""
    config = _load_config(args.config) if args.config else {}
    # a key of another subcommand is allowed, so one file can serve several
    keys = {opt.name for _, _, opts in COMMANDS.values() for opt in opts
            if opt.default is not FLAG_ONLY}
    for key in config:
        if key not in keys:
            raise InvalidParameterError(
                f"{args.config}: {key!r} is not a config key of any subcommand"
            )
    missing = []
    for opt in options:
        if opt.default is FLAG_ONLY or getattr(args, opt.name) is not None:
            continue
        if opt.name in config:
            setattr(args, opt.name, opt.parse(config[opt.name]))
        elif opt.default is REQUIRED:
            missing.append(opt.name)
        else:
            setattr(args, opt.name, opt.default)
    if missing:
        raise InvalidParameterError(f"missing required option(s): {missing}")


def _apply_preset(args):
    preset = PRESETS.get(getattr(args, "preset", None), {})
    if preset.get("need_phi") and getattr(args, "phi", None) is None:
        raise InvalidParameterError(
            f"preset {args.preset} requires --phi (the published panels do "
            "not state the phase)"
        )
    for key, value in preset.items():
        if key == "need_phi":
            continue
        if getattr(args, key, None) is None:
            setattr(args, key, value)


def _amplitudes(alpha2):
    """|alpha| for an intensity, or a grid of them, checked finite and >= 0."""
    alpha2 = np.asarray(alpha2, dtype=float)
    bad = alpha2[~((0.0 <= alpha2) & (alpha2 < math.inf))]
    if bad.size:
        raise InvalidParameterError(f"alpha2 must be finite and >= 0, got {bad[0]}")
    return np.sqrt(alpha2)


RECORD_HEADER = CorrelationRecord.field_names()
SWEEP_HEADER = ["alpha2", "phi", *RECORD_HEADER[3:]]


def cmd_classify(args, out):
    report = classify_regime(
        build_generator(ModelParams(args.delta, args.chi)), tol=args.tol
    )
    if args.json:
        _emit_json(
            out,
            "classify",
            {
                "delta": args.delta,
                "chi": args.chi,
                "regime": report.regime.value,
                "eigenfrequencies": list(report.eigenfrequencies),
                "omega": report.omega,
                "gamma": report.gamma,
                "threshold_kind": report.threshold_kind.value
                if report.threshold_kind
                else None,
            },
        )
    else:
        label = f"regime: {report.regime.value}"
        if report.threshold_kind is not None:
            label += f" (threshold {report.threshold_kind.value})"
        out.write(label + "\n")
        freqs = ", ".join(
            f"{w.real:+.12g}{w.imag:+.12g}j" for w in report.eigenfrequencies
        )
        out.write(f"eigenfrequencies: {freqs}\n")
        if report.omega is not None:
            out.write(f"omega: {_fmt(report.omega)}\n")
            out.write(f"gamma: {_fmt(report.gamma)}\n")
    return EXIT_OK


def _rows(columns, stop=None) -> list:
    """The first ``stop`` rows (all by default), in C order, of a table whose
    columns broadcast together, with None (an empty field) for NaN."""
    cells = np.stack(np.broadcast_arrays(*columns), -1).reshape(-1, len(columns))
    return [[None if math.isnan(v) else v for v in row] for row in cells[:stop].tolist()]


def _emit_table(args, out, command, params, header, rows, overflow):
    """Write ``rows``, which stop before the first overflow, at time
    ``overflow`` (None when there is none): the ``#`` footer, or the JSON
    ``overflow`` field, names it, and the exit code is 3."""
    footer = [] if overflow is None else [f"overflow at t={_fmt(overflow)}"]
    if args.json:
        _emit_json(out, command, {**params, "columns": header, "rows": rows,
                                  "overflow": footer[0] if footer else None})
    else:
        _emit_csv(out, header, rows, footer)
    return EXIT_NUMERICAL if footer else EXIT_OK


def _check_rows(what, rows):
    if rows > MAX_ROWS:
        raise InvalidParameterError(
            f"{what} asks for {rows} rows, more than MAX_ROWS={MAX_ROWS}"
        )


def cmd_evolve(args, out):
    if args.steps < 1:
        raise InvalidParameterError(f"steps must be >= 1, got {args.steps}")
    _check_rows("steps", args.steps)
    if not (math.isfinite(args.t_start) and math.isfinite(args.t_end)):
        raise InvalidParameterError(
            f"t_start and t_end must be finite, got {args.t_start}, {args.t_end}"
        )
    gen = build_generator(ModelParams(args.delta, args.chi))
    s0 = initial_state(OpticalInit(_amplitudes(args.alpha2), args.phi))
    times = np.linspace(args.t_start, args.t_end, args.steps)
    rows = []
    overflow = None
    for start in range(0, times.size, EVOLVE_BLOCK):
        block = times[start:start + EVOLVE_BLOCK]
        rec, stop = evaluate(gen, s0, block)
        rows += _rows([getattr(rec, name) for name in RECORD_HEADER], stop)
        if stop < block.size:
            overflow = block[stop]
            break
    params = {"delta": args.delta, "chi": args.chi, "alpha2": args.alpha2,
              "phi": args.phi}
    return _emit_table(args, out, "evolve", params, RECORD_HEADER, rows, overflow)


def cmd_sweep(args, out):
    if args.alpha2_count < 1 or args.phi_count < 1:
        raise InvalidParameterError("grid counts must be >= 1")
    _check_rows("alpha2_count * phi_count", args.alpha2_count * args.phi_count)
    if not 0.0 <= args.phi_min <= args.phi_max < 2.0 * math.pi + 1e-12:
        raise InvalidParameterError("phi range must lie within [0, 2*pi)")
    # checked before the grid, which would turn an infinite end into NaN
    _amplitudes([args.alpha2_min, args.alpha2_max])
    alpha2s = np.linspace(args.alpha2_min, args.alpha2_max, args.alpha2_count)
    phis = np.linspace(args.phi_min, args.phi_max, args.phi_count, endpoint=False) \
        if args.phi_count > 1 else np.array([args.phi_min])
    params = ModelParams(args.delta, args.chi)
    amps = _amplitudes(alpha2s)
    overflow = None
    if args.time_policy == "fixed":
        # G(t) and the fluctuation moments are the same for every cell: one
        # propagator and one batched record cover the whole grid.
        rec, stop = evaluate(
            build_generator(params), coherent_states(amps[:, None], phis), args.t
        )
        rows = _rows([alpha2s[:, None], phis,
                      *(getattr(rec, name) for name in SWEEP_HEADER[2:])], stop)
        if stop < alpha2s.size * phis.size:
            overflow = args.t
    else:
        # The regime, G(t) and the vacuum fluctuation moments of each window
        # are the same for every cell: the cells share one set of windows,
        # each computed by the first cell that reaches it. A stable regime
        # fails here, before any row. Each cell still makes its own
        # long_time_g2 call, which raises when the cell is left empty.
        windows = LongTimeWindows(params)
        rows = []
        for a2, amp in zip(alpha2s.tolist(), amps.tolist()):
            for phi in phis.tolist():
                try:  # one walk of long-time windows for all three modes
                    limits = long_time_g2(params, OpticalInit(amp, phi),
                                          ("atomic", "optical", "cross"),
                                          windows=windows)
                except CaosimError:
                    limits = [None] * 3
                else:  # beating regime: the oscillation means
                    means = limits if isinstance(limits, np.ndarray) else limits.mean
                    limits = means.tolist()
                rows.append([a2, phi, *limits, None, None])
    return _emit_table(args, out, "sweep", {
        "delta": args.delta,
        "chi": args.chi,
        "time_policy": args.time_policy,
        "t": args.t if args.time_policy == "fixed" else None,
    }, SWEEP_HEADER, rows, overflow)


def cmd_threshold(args, out):
    value = threshold_g2(
        ModelParams(args.delta_c, args.chi),
        OpticalInit(_amplitudes(args.alpha2), args.phi),
        args.delta_c,
    )
    if args.json:
        _emit_json(
            out,
            "threshold",
            {
                "delta_c": args.delta_c,
                "chi": args.chi,
                "alpha2": args.alpha2,
                "phi": args.phi,
                "g2": value,
            },
        )
    else:
        out.write(_fmt(value) + "\n")
    return EXIT_OK


def cmd_oracle_compare(args, out):
    tols = (args.rtol_occupation, args.atol_g2)
    if not all(0.0 <= tol < math.inf for tol in tols):  # a NaN would always pass
        raise InvalidParameterError(f"tolerances must be finite and >= 0, got {tols}")
    try:
        times = sorted(float(v) for v in args.times.split(","))
        if not all(map(math.isfinite, times)):
            raise ValueError
    except ValueError:
        raise InvalidParameterError(
            f"times must be comma-separated finite numbers, got {args.times!r}"
        ) from None
    late = [t for t in times if t > 3.0]
    comments = []
    if late:
        comments.append(
            f"warning: t={late} beyond t=3 may exhaust the oracle truncation"
        )
    from .fock import FockConfig

    params = ModelParams(args.delta, args.chi)
    init = OpticalInit(_amplitudes(args.alpha2), args.phi)
    cfg = None if args.dim_cap is None else FockConfig(dim_cap=args.dim_cap)
    fields = RECORD_HEADER[1:]
    names = fields[:5]  # the compared columns, without the bounds
    header = ["t", *(f"{n}_{side}" for n in names for side in ("gaussian", "fock")),
              "occupation_rel_dev", "g2_abs_dev"]
    rows = []
    errors = None
    overflow = None
    try:
        fock_recs, cfg = sys.modules[__name__].oracle_records(params, init, times, cfg)
        comments.append(f"truncation: {cfg.nmax_atom}x{cfg.nmax_phot}")
    except TruncationError as exc:
        comments.append(f"truncation inadequate: {exc}")
        status = "TRUNCATION-INADEQUATE"
    else:
        rec, stop = evaluate(build_generator(params), initial_state(init), times)
        if stop < len(times):
            overflow = times[stop]
            comments.append(f"overflow at t={_fmt(overflow)}")
        gauss = {n: getattr(rec, n)[:stop] for n in fields}
        # an undefined fock correlator (None) becomes NaN
        fock = {n: np.array([getattr(r, n) for r in fock_recs[:stop]], dtype=float)
                for n in fields}
        dn = np.maximum(
            abs(fock["n3"] - gauss["n3"]) / np.maximum(gauss["n3"], 1e-300),
            abs(fock["n1"] - gauss["n1"]) / np.where(gauss["n1"] > 0, gauss["n1"], np.inf),
        )
        # a correlator undefined (NaN) on either side is not compared
        dg = np.fmax.reduce([abs(fock[n] - gauss[n]) for n in fields[2:]],
                            axis=0, initial=0.0)
        rows = _rows([times[:stop], *(side[n] for n in names for side in (gauss, fock)),
                      dn, dg])
        errors = {"max_occupation_rel": float(np.max(dn, initial=0.0)),
                  "max_g2_abs": float(np.max(dg, initial=0.0))}
        if overflow is not None:
            status = "OVERFLOW"
        elif (errors["max_occupation_rel"] > args.rtol_occupation
              or errors["max_g2_abs"] > args.atol_g2):
            status = "FAIL"
        else:
            status = "PASS"
    comments.append(f"status: {status}")
    if args.json:
        _emit_json(
            out,
            "oracle-compare",
            {
                "delta": args.delta,
                "chi": args.chi,
                "alpha2": args.alpha2,
                "phi": args.phi,
                "status": status,
                "errors": errors,
                "columns": header,
                "rows": rows,
                "comments": comments,
            },
        )
    else:
        _emit_csv(out, header, rows, comments)
    return {"PASS": EXIT_OK, "FAIL": EXIT_COMPARISON_FAILED}.get(status, EXIT_NUMERICAL)


DELTA = Option("delta", float, REQUIRED)
CHI = Option("chi", float, REQUIRED)
ALPHA2 = Option("alpha2", float, 0.0, "optical intensity |alpha|^2")
PHI = Option("phi", float, 0.0, "optical phase in radians")
PRESET = Option("preset", tuple(sorted(PRESETS)), FLAG_ONLY)

# subcommand: (help, handler, options in the order of the usage line)
COMMANDS = {
    "classify": ("regime of the linear system", cmd_classify, (
        DELTA, CHI, Option("tol", float, 1e-9))),
    "evolve": ("time series of correlations", cmd_evolve, (
        DELTA, CHI, ALPHA2, PHI, Option("t_start", float, 0.05),
        Option("t_end", float, 6.0), Option("steps", int, 120), PRESET)),
    "sweep": ("(alpha2, phi) grid of correlations", cmd_sweep, (
        DELTA, CHI, Option("alpha2_min", float, 0.0),
        Option("alpha2_max", float, 10.0), Option("alpha2_count", int, 11),
        Option("phi_min", float, 0.0), Option("phi_max", float, 2.0 * math.pi),
        Option("phi_count", int, 16),
        Option("time_policy", ("fixed", "longtime"), "fixed"),
        Option("t", float, 8.0, "time for the fixed policy"),
        Option("jobs", int, FLAG_ONLY,
               "accepted for compatibility; sweeps run in one process"),
        PRESET)),
    "threshold": ("closed-form asymptotic g2", cmd_threshold, (
        Option("delta_c", float, REQUIRED), CHI, ALPHA2, PHI)),
    "oracle-compare": ("moment pipeline vs Fock oracle", cmd_oracle_compare, (
        DELTA, CHI, ALPHA2, PHI,
        Option("times", str, "0.5,1.0", "comma-separated evolution times"),
        Option("rtol_occupation", float, 1e-6), Option("atol_g2", float, 1e-4),
        Option("dim_cap", int, None))),
}


# One parser per process: each one built leaves cyclic garbage behind, so
# repeated ``main`` calls would grow the heap until a collection runs.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="caosim",
        description="Linear atom-photon dynamics, statistics and bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (text, _, options) in COMMANDS.items():
        p = sub.add_parser(command, help=text)
        for opt in options:
            kind = "choices" if isinstance(opt.kind, tuple) else "type"
            p.add_argument("--" + opt.name.replace("_", "-"), help=opt.help,
                           **{kind: opt.kind})
        p.add_argument("--json", action="store_true", help="emit a JSON object")
        p.add_argument("--config", help="flat key=value config file")
    return parser


def main(argv=None, out=None) -> int:
    out = out or sys.stdout
    args = build_parser().parse_args(argv)
    _, run, options = COMMANDS[args.command]
    try:
        _apply_preset(args)
        _resolve(args, options)
        code = run(args, out)
        out.flush()
        return code
    except BrokenPipeError:
        # The reader closed the pipe (``caosim evolve ... | head -1``). Point
        # stdout at devnull so that the interpreter's final flush cannot
        # raise again.
        if out is sys.stdout:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, out.fileno())
            os.close(devnull)
        return EXIT_OK
    except InvalidParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (CaosimError, ArithmeticError) as exc:
        # every other package error, and float overflow, is numerical
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end emitting machine-readable tables.

Subcommands: classify, evolve, sweep, threshold, oracle-compare. Output is
CSV (header row, ``#``-prefixed comment/footer rows, 17-significant-digit
floats, ``\\n`` line endings) or a single JSON object via ``--json``.

Exit codes: 0 success, 1 comparison failure, 2 usage error, 3 numerical
failure (overflow / non-convergence / truncation inadequacy).

Option precedence is flags > config file (flat ``key=value`` text, ``#``
comments) > built-in defaults; there are no environment variables.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .errors import (
    CaosimError,
    InvalidParameterError,
    PropagatorOverflowError,
    TruncationError,
)
from .fock import FockConfig, oracle_records
from .gaussian import OpticalInit, coherent_states, evolve, initial_state
from .model import ModelParams, build_generator, classify_regime
from .observables import (
    CorrelationRecord,
    correlation_record,
    long_time_g2,
    records,
    threshold_g2,
)
from .propagator import green_function

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_COMPARISON_FAILED = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3

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
    values = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
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


REQUIRED = object()


def _coerce(raw, fallback):
    if fallback is REQUIRED or fallback is None:
        try:
            return int(raw)
        except ValueError:
            pass
        try:
            return float(raw)
        except ValueError:
            return raw
    try:
        return type(fallback)(raw)
    except ValueError as exc:
        raise InvalidParameterError(str(exc)) from None


def _resolve(args, defaults):
    """Apply precedence flags > config file > defaults to the parsed args.

    ``REQUIRED`` marks options that must come from a flag or the config
    file; a fallback of ``None`` marks a genuinely optional setting.
    """
    config = _load_config(args.config) if getattr(args, "config", None) else {}
    for key, fallback in defaults.items():
        if getattr(args, key, None) is None:
            if key in config:
                setattr(args, key, _coerce(config[key], fallback))
            elif fallback is not REQUIRED:
                setattr(args, key, fallback)
    missing = [
        k for k, v in defaults.items()
        if v is REQUIRED and getattr(args, k, None) is None
    ]
    if missing:
        raise InvalidParameterError(f"missing required option(s): {missing}")
    return args


def _apply_preset(args):
    preset = PRESETS.get(getattr(args, "preset", None) or "")
    if preset is None:
        return
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
    args = _resolve(args, {"delta": REQUIRED, "chi": REQUIRED, "tol": 1e-9})
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


def cmd_evolve(args, out):
    _apply_preset(args)
    args = _resolve(
        args,
        {
            "delta": REQUIRED,
            "chi": REQUIRED,
            "alpha2": 0.0,
            "phi": 0.0,
            "t_start": 0.05,
            "t_end": 6.0,
            "steps": 120,
        },
    )
    if args.steps < 1:
        raise InvalidParameterError(f"steps must be >= 1, got {args.steps}")
    gen = build_generator(ModelParams(args.delta, args.chi))
    s0 = initial_state(OpticalInit(_amplitudes(args.alpha2), args.phi))
    rows = []
    footer = []
    overflowed = False
    for t in np.linspace(args.t_start, args.t_end, args.steps):
        try:
            rec = correlation_record(evolve(s0, green_function(gen, t)), float(t))
        except PropagatorOverflowError:
            footer.append(f"overflow at t={_fmt(t)}")
            overflowed = True
            break
        rows.append([getattr(rec, name) for name in RECORD_HEADER])
    if args.json:
        _emit_json(
            out,
            "evolve",
            {
                "delta": args.delta,
                "chi": args.chi,
                "alpha2": args.alpha2,
                "phi": args.phi,
                "columns": RECORD_HEADER,
                "rows": rows,
                "overflow": footer[0] if footer else None,
            },
        )
    else:
        _emit_csv(out, RECORD_HEADER, rows, footer)
    return EXIT_NUMERICAL if overflowed else EXIT_OK


def cmd_sweep(args, out):
    _apply_preset(args)
    args = _resolve(
        args,
        {
            "delta": REQUIRED,
            "chi": REQUIRED,
            "alpha2_min": 0.0,
            "alpha2_max": 10.0,
            "alpha2_count": 11,
            "phi_min": 0.0,
            "phi_max": 2.0 * math.pi,
            "phi_count": 16,
            "time_policy": "fixed",
            "t": 8.0,
        },
    )
    if args.alpha2_count < 1 or args.phi_count < 1:
        raise InvalidParameterError("grid counts must be >= 1")
    if not 0.0 <= args.phi_min <= args.phi_max < 2.0 * math.pi + 1e-12:
        raise InvalidParameterError("phi range must lie within [0, 2*pi)")
    if args.time_policy not in ("fixed", "longtime"):
        raise InvalidParameterError(
            f"time-policy must be 'fixed' or 'longtime', got {args.time_policy!r}"
        )
    alpha2s = np.linspace(args.alpha2_min, args.alpha2_max, args.alpha2_count)
    phis = np.linspace(args.phi_min, args.phi_max, args.phi_count, endpoint=False) \
        if args.phi_count > 1 else np.array([args.phi_min])
    params = ModelParams(args.delta, args.chi)
    amps = _amplitudes(alpha2s)
    if args.time_policy == "fixed":
        # G(t) and the fluctuation moments are the same for every cell: one
        # propagator and one batched record cover the whole grid.
        try:
            g = green_function(build_generator(params), args.t)
        except PropagatorOverflowError:
            stats = [np.nan] * 5
        else:
            rec = records(evolve(coherent_states(amps[:, None], phis), g), args.t)
            stats = [getattr(rec, name) for name in SWEEP_HEADER[2:]]
        cells = np.stack(
            np.broadcast_arrays(alpha2s[:, None], phis, *stats), axis=-1
        ).reshape(-1, len(SWEEP_HEADER))
        rows = [[None if math.isnan(v) else v for v in row]
                for row in cells.tolist()]
    else:
        rows = []
        for a2, amp in zip(alpha2s.tolist(), amps.tolist()):
            for phi in phis.tolist():
                init = OpticalInit(amp, phi)
                try:
                    limits = [long_time_g2(params, init, mode)
                              for mode in ("atomic", "optical", "cross")]
                except CaosimError:
                    limits = [None] * 3
                else:  # beating regime: report the oscillation means
                    limits = [v if isinstance(v, float) else v.mean for v in limits]
                rows.append([a2, phi, *limits, None, None])
    if args.json:
        _emit_json(
            out,
            "sweep",
            {
                "delta": args.delta,
                "chi": args.chi,
                "time_policy": args.time_policy,
                "t": args.t if args.time_policy == "fixed" else None,
                "columns": SWEEP_HEADER,
                "rows": rows,
            },
        )
    else:
        _emit_csv(out, SWEEP_HEADER, rows)
    return EXIT_OK


def cmd_threshold(args, out):
    args = _resolve(
        args,
        {"delta_c": REQUIRED, "chi": REQUIRED, "alpha2": 0.0, "phi": 0.0},
    )
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
    args = _resolve(
        args,
        {
            "delta": REQUIRED,
            "chi": REQUIRED,
            "alpha2": 0.0,
            "phi": 0.0,
            "times": "0.5,1.0",
            "rtol_occupation": 1e-6,
            "atol_g2": 1e-4,
            "dim_cap": None,
        },
    )
    try:
        times = sorted(float(v) for v in str(args.times).split(","))
    except ValueError:
        raise InvalidParameterError(
            f"times must be comma-separated numbers, got {args.times!r}"
        ) from None
    late = [t for t in times if t > 3.0]
    comments = []
    if late:
        comments.append(
            f"warning: t={late} beyond t=3 may exhaust the oracle truncation"
        )
    params = ModelParams(args.delta, args.chi)
    init = OpticalInit(_amplitudes(args.alpha2), args.phi)
    cfg = None if args.dim_cap is None else FockConfig(dim_cap=int(args.dim_cap))
    gen = build_generator(params)

    rows = []
    status = "PASS"
    max_dn = 0.0
    max_dg = 0.0
    try:
        fock_recs, cfg = oracle_records(params, init, times, cfg)
        comments.append(f"truncation: {cfg.nmax_atom}x{cfg.nmax_phot}")
    except TruncationError as exc:
        comments.append(f"truncation inadequate: {exc}")
        fock_recs = None
    if fock_recs is None:
        status = "TRUNCATION-INADEQUATE"
        errors = None
    else:
        for rec in fock_recs:
            gauss = correlation_record(
                evolve(initial_state(init), green_function(gen, rec.t)), rec.t
            )
            dn = abs(rec.n3 - gauss.n3) / max(gauss.n3, 1e-300)
            if gauss.n1 > 0:
                dn = max(dn, abs(rec.n1 - gauss.n1) / gauss.n1)
            dg = 0.0
            for name in ("g11", "g33", "g13", "classical_bound", "quantum_bound"):
                a, b = getattr(rec, name), getattr(gauss, name)
                if a is not None and b is not None:
                    dg = max(dg, abs(a - b))
            max_dn = max(max_dn, dn)
            max_dg = max(max_dg, dg)
            rows.append(
                [rec.t, gauss.n1, rec.n1, gauss.n3, rec.n3, gauss.g11, rec.g11,
                 gauss.g33, rec.g33, gauss.g13, rec.g13, dn, dg]
            )
        errors = {"max_occupation_rel": max_dn, "max_g2_abs": max_dg}
        if max_dn > args.rtol_occupation or max_dg > args.atol_g2:
            status = "FAIL"
    comments.append(f"status: {status}")
    header = [
        "t", "n1_gaussian", "n1_fock", "n3_gaussian", "n3_fock",
        "g11_gaussian", "g11_fock", "g33_gaussian", "g33_fock",
        "g13_gaussian", "g13_fock", "occupation_rel_dev", "g2_abs_dev",
    ]
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
    if status == "PASS":
        return EXIT_OK
    if status == "FAIL":
        return EXIT_COMPARISON_FAILED
    return EXIT_NUMERICAL


def _add_common(p):
    p.add_argument("--json", action="store_true", help="emit a JSON object")
    p.add_argument("--config", help="flat key=value config file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="caosim",
        description="Linear atom-photon dynamics, statistics and bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="regime of the linear system")
    p.add_argument("--delta", type=float)
    p.add_argument("--chi", type=float)
    p.add_argument("--tol", type=float)
    _add_common(p)
    p.set_defaults(run=cmd_classify)

    p = sub.add_parser("evolve", help="time series of correlations")
    p.add_argument("--delta", type=float)
    p.add_argument("--chi", type=float)
    p.add_argument("--alpha2", type=float, help="optical intensity |alpha|^2")
    p.add_argument("--phi", type=float, help="optical phase in radians")
    p.add_argument("--t-start", type=float, dest="t_start")
    p.add_argument("--t-end", type=float, dest="t_end")
    p.add_argument("--steps", type=int)
    p.add_argument("--preset", choices=sorted(PRESETS))
    _add_common(p)
    p.set_defaults(run=cmd_evolve)

    p = sub.add_parser("sweep", help="(alpha2, phi) grid of correlations")
    p.add_argument("--delta", type=float)
    p.add_argument("--chi", type=float)
    p.add_argument("--alpha2-min", type=float, dest="alpha2_min")
    p.add_argument("--alpha2-max", type=float, dest="alpha2_max")
    p.add_argument("--alpha2-count", type=int, dest="alpha2_count")
    p.add_argument("--phi-min", type=float, dest="phi_min")
    p.add_argument("--phi-max", type=float, dest="phi_max")
    p.add_argument("--phi-count", type=int, dest="phi_count")
    p.add_argument("--time-policy", choices=["fixed", "longtime"],
                   dest="time_policy")
    p.add_argument("--t", type=float, help="time for the fixed policy")
    p.add_argument("--jobs", type=int, help="accepted for compatibility; "
                   "sweeps run in one process")
    p.add_argument("--preset", choices=sorted(PRESETS))
    _add_common(p)
    p.set_defaults(run=cmd_sweep)

    p = sub.add_parser("threshold", help="closed-form asymptotic g2")
    p.add_argument("--delta-c", type=float, dest="delta_c")
    p.add_argument("--chi", type=float)
    p.add_argument("--alpha2", type=float)
    p.add_argument("--phi", type=float)
    _add_common(p)
    p.set_defaults(run=cmd_threshold)

    p = sub.add_parser("oracle-compare", help="moment pipeline vs Fock oracle")
    p.add_argument("--delta", type=float)
    p.add_argument("--chi", type=float)
    p.add_argument("--alpha2", type=float)
    p.add_argument("--phi", type=float)
    p.add_argument("--times", help="comma-separated evolution times")
    p.add_argument("--rtol-occupation", type=float, dest="rtol_occupation")
    p.add_argument("--atol-g2", type=float, dest="atol_g2")
    p.add_argument("--dim-cap", type=int, dest="dim_cap")
    _add_common(p)
    p.set_defaults(run=cmd_oracle_compare)

    return parser


def main(argv=None, out=None) -> int:
    out = out or sys.stdout
    args = build_parser().parse_args(argv)
    try:
        code = args.run(args, out)
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
    except CaosimError as exc:  # every other package error is numerical
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())

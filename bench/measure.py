"""Measurement process for one run of one workload.

Started by ``run.py`` with BLAS/OpenMP threads set to 1 and ``src`` on the
path. Repeats whole rounds of the workload's CLI calls through
``caosim.cli.main`` until the calls have taken the requested seconds, then
checks the outputs and prints one JSON line. With ``--trace 0`` it times
cold starts of the CLI between calls, spread evenly over the run. With
``--trace 1`` it alternates untraced and traced rounds, so that the
tracing overhead is measured in the same process.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import workloads
from tracer import Tracer, failure_reasons, layer_metrics, traced

COLD_STARTS = 10
COLD_START_ARGV = [sys.executable, "-m", "caosim.cli", "--help"]


def _environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {k: os.environ.get(k) for k in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def cold_start():
    """Wall seconds of one ``caosim --help`` in a new interpreter."""
    t0 = time.perf_counter()
    subprocess.run(COLD_START_ARGV, stdout=subprocess.DEVNULL, check=True,
                   timeout=60)
    return time.perf_counter() - t0


def run_round(main, calls, before_call):
    """Run every call once; returns wall and CPU seconds and the outputs.

    ``before_call(wall)`` runs ahead of each call, outside the timed spans,
    with the round's wall seconds so far.
    """
    outputs, wall, cpu = [], 0.0, 0.0
    for call in calls:
        before_call(wall)
        buf = io.StringIO()
        wall0, cpu0 = time.perf_counter(), time.process_time()
        rc = main(list(call.argv), out=buf)
        wall += time.perf_counter() - wall0
        cpu += time.process_time() - cpu0
        outputs.append((rc, buf.getvalue()))
    return wall, cpu, outputs


def _digest(outputs):
    h = hashlib.sha256()
    for rc, text in outputs:
        h.update(f"{rc}\n{text}".encode())
    return h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import caosim
    import caosim.cli

    src = os.path.abspath("src")
    if not os.path.abspath(caosim.__file__).startswith(src + os.sep):
        print(f"caosim imported from {caosim.__file__}, not {src}", file=sys.stderr)
        return 2

    calls = workloads.build(args.workload, args.seed)
    untraced = {"wall": [], "cpu": []}
    traced_walls, layers = [], []
    # every distinct output is checked once; most workloads print the same
    # bytes every round
    outputs_by_digest, round_digests = {}, []
    reasons = traced_digest = None

    # Cold start k is due once the calls have run k/COLD_STARTS of the run,
    # so that set-up is sampled in every phase of a host that changes speed
    # over tens of seconds. The first start, which may write the bytecode
    # cache as a user's first call does, is not counted.
    setup_times = []
    measured = 0.0

    def cold_starts_until(due):
        while len(setup_times) < min(due, COLD_STARTS):
            setup_times.append(cold_start())

    def before_call(round_wall):
        if not args.trace:
            elapsed = measured + round_wall
            cold_starts_until(1 + int(elapsed * COLD_STARTS / args.seconds))

    if not args.trace:
        cold_start()
    while not round_digests or measured < args.seconds or (
        args.trace and not traced_walls
    ):
        trace_this = bool(args.trace) and len(round_digests) % 2 == 1
        if trace_this:
            tracer = Tracer()
            with traced(tracer):
                wall, _, outputs = run_round(
                    tracer.wrap("cli.main", caosim.cli.main), calls, before_call)
            traced_walls.append(wall)
            layers.append(layer_metrics(tracer))
            reasons, traced_digest = failure_reasons(tracer), _digest(outputs)
        else:
            wall, cpu, outputs = run_round(caosim.cli.main, calls, before_call)
            untraced["wall"].append(wall)
            untraced["cpu"].append(cpu)
        measured += wall
        round_digests.append(_digest(outputs))
        outputs_by_digest.setdefault(round_digests[-1], outputs)
    if not args.trace:
        cold_starts_until(COLD_STARTS)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    try:
        failed_by_digest = {
            digest: sum(call.check(text, rc)
                        for call, (rc, text) in zip(calls, outputs))
            for digest, outputs in outputs_by_digest.items()
        }
    except workloads.WrongValue as exc:
        print(f"wrong value: {exc}", file=sys.stderr)
        return 1
    if len(set(failed_by_digest.values())) != 1:
        print(f"failures differ between rounds: {failed_by_digest}", file=sys.stderr)
        return 1
    failed_per_round = failed_by_digest[round_digests[0]]
    if reasons is not None and sum(reasons.values()) != failed_by_digest[traced_digest]:
        print(f"empty cells per round {failed_per_round}, long_time_g2 "
              f"errors traced {dict(reasons)}", file=sys.stderr)
        return 1

    ops_per_round = sum(call.ops for call in calls)
    walls = untraced["wall"]
    result = {
        "rounds": len(round_digests),
        "distinct_outputs": len(outputs_by_digest),
        "attempted": ops_per_round * len(round_digests),
        "failed": failed_per_round * len(round_digests),
        "environment": _environment(),
        "argv": [call.argv for call in calls],
        "round_walls": walls,
        "traced_round_walls": traced_walls,
        "metrics": {
            # means, not medians: the host alternates between a fast and a
            # slow state for tens of seconds, and the median of a run's
            # rounds jumps between the two where the mean moves smoothly
            "wall_s": statistics.mean(walls),
            "cpu_s": statistics.mean(untraced["cpu"]),
            "units_per_s": (ops_per_round - failed_per_round) * len(walls) / sum(walls),
            "peak_rss_mb": peak_rss_mb,
        },
    }
    if not args.trace:
        result["metrics"]["setup_s"] = statistics.median(setup_times)
        result["setup_times"] = setup_times
    else:
        per_layer = {k: statistics.median(d[k] for d in layers) for k in layers[0]}
        per_layer["trace.overhead_s"] = (
            statistics.median(traced_walls) - statistics.median(walls)
        )
        result["per_layer"] = per_layer
        result["failure_reasons"] = dict(reasons)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

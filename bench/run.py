"""Benchmark of the caosim command line: one run of one workload.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Every child process gets one BLAS/OpenMP
thread and the sweeps ``--jobs 1``, so that the load comes from one process.
The workload runs in one measurement process (``measure.py``), which also
times the cold starts of the CLI for ``setup_s``. Workloads and metric
names and units come from ``BENCHMARK.json``. The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``. A copy with the environment goes to
``bench/results/``. A wrong value ends the run with a non-zero exit code and
no result line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
IMPORT_SAMPLES = 5
CHILD_TIMEOUT_S = 150


def child_env():
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    # cold starts load the package from its bytecode cache, as a user's
    # second and later calls do
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    return env


_IMPORTTIME = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)")


def import_seconds(stderr):
    """Total import time of caosim.cli and its scipy part, from -X importtime."""
    entries = [
        (len(m.group(3)), int(m.group(2)), m.group(4))
        for m in map(_IMPORTTIME.match, stderr.splitlines()) if m
    ]
    total = sum(cum for _, cum, name in entries if name in ("caosim", "caosim.cli"))
    scipy_us, ancestors = 0, []
    # the listing is post-order, so reversed it visits parents first
    for level, cum, name in reversed(entries):
        while ancestors and ancestors[-1][0] >= level:
            ancestors.pop()
        if name.startswith("scipy") and not any(
            a.startswith("scipy") for _, a in ancestors
        ):
            scipy_us += cum
        ancestors.append((level, name))
    return total / 1e6, scipy_us / 1e6


def import_metrics(env):
    cmd = [sys.executable, "-X", "importtime", "-c", "import caosim.cli"]
    subprocess.run(cmd, env=env, capture_output=True, check=True, timeout=60)
    samples = [
        import_seconds(subprocess.run(cmd, env=env, capture_output=True,
                                      text=True, check=True, timeout=60).stderr)
        for _ in range(IMPORT_SAMPLES)
    ]
    return {
        "cli.import_s": statistics.median(s[0] for s in samples),
        "cli.import_scipy_s": statistics.median(s[1] for s in samples),
    }


def git_sha():
    """HEAD of the checkout when it is a git work tree of its own, else None."""
    if not os.path.exists(".git"):
        return None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(os.getcwd()))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], env=env,
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_identity():
    """git commit when the checkout has one, and a digest of the sources."""
    digest = hashlib.sha256()
    for root, dirs, files in sorted(os.walk("src")):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(root, name)
                with open(path, "rb") as fh:
                    digest.update(path.encode() + b"\0" + fh.read())
    return {"git_sha": git_sha(), "source_sha256": digest.hexdigest()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "caosim", "cli.py")):
        print("error: run from the root of a caosim checkout "
              "(src/caosim/cli.py not found)", file=sys.stderr)
        return 2
    env = child_env()

    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "measure.py"),
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)],
        env=env, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        print(f"error: measurement exited with {proc.returncode}", file=sys.stderr)
        return proc.returncode
    child = json.loads(proc.stdout.strip().splitlines()[-1])

    if args.trace:
        values = {**child["per_layer"], **import_metrics(env)}
        specs = SPEC["per_layer"]
    else:
        values, specs = child["metrics"], SPEC["end_to_end"]
    result = {
        "correct": True,
        "attempted": child["attempted"],
        "failed": child["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in specs},
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": child["rounds"],
        "distinct_outputs": child["distinct_outputs"],
        "source": source_identity(),
        "environment": child["environment"],
        "argv": child["argv"],
        "round_walls": child["round_walls"],
        "traced_round_walls": child["traced_round_walls"],
        "setup_times": child.get("setup_times"),
        "failure_reasons": child.get("failure_reasons"),
        **result,
    }
    out_dir = os.path.join(HERE, "results")
    os.makedirs(out_dir, exist_ok=True)
    out_path = os.path.join(
        out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    )
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
    print(f"# rounds={child['rounds']} "
          f"distinct_outputs={child['distinct_outputs']} source={record['source']} "
          f"environment={json.dumps(child['environment'])}")
    if child.get("failure_reasons"):
        print(f"# empty cells per round by cause: {child['failure_reasons']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Per-layer tracing from outside the package.

While a :func:`traced` block is open, the names that each calling module
imported (``caosim.cli.green_function``, ``caosim.observables.moment4``,
``caosim.fock.expm_multiply`` ...) are replaced by timing wrappers; the
package's source is not touched. Every wrapper records calls, inclusive
time and self time (inclusive minus the wrapped calls made beneath it).
"""

from __future__ import annotations

import importlib
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

# (calling module, imported name, layer-qualified name)
PATCHES = [
    ("caosim.cli", "build_generator", "model.build_generator"),
    ("caosim.cli", "classify_regime", "model.classify_regime"),
    ("caosim.cli", "green_function", "propagator.green_function"),
    ("caosim.cli", "initial_state", "gaussian.initial_state"),
    ("caosim.cli", "evolve", "gaussian.evolve"),
    ("caosim.cli", "correlation_record", "observables.correlation_record"),
    ("caosim.cli", "long_time_g2", "observables.long_time_g2"),
    ("caosim.cli", "threshold_g2", "observables.threshold_g2"),
    ("caosim.cli", "oracle_records", "fock.oracle_records"),
    ("caosim.observables", "build_generator", "model.build_generator"),
    ("caosim.observables", "classify_regime", "model.classify_regime"),
    ("caosim.observables", "green_function", "propagator.green_function"),
    ("caosim.observables", "initial_state", "gaussian.initial_state"),
    ("caosim.observables", "evolve", "gaussian.evolve"),
    ("caosim.observables", "moment4", "gaussian.moment4"),
    ("caosim.fock", "sparse_hamiltonian", "fock.sparse_hamiltonian"),
    ("caosim.fock", "expm_multiply", "fock.expm_multiply"),
]


class Tracer:
    """Counters and timings of one traced round."""

    def __init__(self):
        self.calls = Counter()
        self.seconds = defaultdict(float)
        self.self_seconds = defaultdict(float)
        self.green_times = set()
        #: one (regime, seconds, green calls, outcome) per long_time_g2 call
        self.long_time = []
        #: per oracle_records call, one [dimension, Krylov seconds] per stage
        self.fock_runs = []
        self._child_time = []
        self._regime = None

    def wrap(self, name, fn):
        def traced_call(*args, **kwargs):
            greens = self.calls["propagator.green_function"]
            if name == "fock.oracle_records":
                self.fock_runs.append([])
            self._child_time.append(0.0)
            t0 = perf_counter()
            outcome = "ok"
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                outcome = type(exc).__name__
                raise
            finally:
                dt = perf_counter() - t0
                child = self._child_time.pop()
                if self._child_time:
                    self._child_time[-1] += dt
                self.calls[name] += 1
                self.seconds[name] += dt
                self.self_seconds[name] += dt - child
                if name == "observables.long_time_g2":
                    self.long_time.append((
                        self._regime, dt,
                        self.calls["propagator.green_function"] - greens,
                        outcome,
                    ))
                elif name == "fock.expm_multiply":
                    self.fock_runs[-1][-1][1] += dt
            if name == "propagator.green_function":
                self.green_times.add(args[1])
            elif name == "model.classify_regime":
                self._regime = result.regime.value
            elif name == "fock.sparse_hamiltonian":
                self.fock_runs[-1].append([result.shape[0], 0.0])
            return result

        return traced_call


@contextmanager
def traced(tracer: Tracer):
    """Install ``tracer``'s wrappers for the duration of the block."""
    saved = []
    try:
        for module_name, attr, name in PATCHES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(name, original))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def _per_call(tracer, name, scale):
    calls = tracer.calls[name]
    return tracer.seconds[name] / calls * scale if calls else 0.0


def layer_metrics(tracer: Tracer) -> dict:
    """The per-layer metrics of one traced round (import times excluded)."""
    t = tracer
    records = t.calls["observables.correlation_record"]
    greens = t.calls["propagator.green_function"]
    lt = t.long_time
    out = {
        "cli.main_self_s": t.self_seconds["cli.main"],
        "model.classify_regime.calls": t.calls["model.classify_regime"],
        "model.classify_regime.us_per_call":
            _per_call(t, "model.classify_regime", 1e6),
        "propagator.green_function.calls": greens,
        "propagator.green_function.us_per_call":
            _per_call(t, "propagator.green_function", 1e6),
        "propagator.green_function.distinct_t_share":
            len(t.green_times) / greens if greens else 0.0,
        "gaussian.evolve.calls": t.calls["gaussian.evolve"],
        "gaussian.evolve.us_per_call": _per_call(t, "gaussian.evolve", 1e6),
        "gaussian.moment4.per_record":
            t.calls["gaussian.moment4"] / records if records else 0.0,
        "observables.correlation_record.calls": records,
        "observables.correlation_record.us_per_call":
            _per_call(t, "observables.correlation_record", 1e6),
        "observables.long_time_g2.calls": len(lt),
        "observables.long_time_g2.green_calls_per_call":
            sum(x[2] for x in lt) / len(lt) if lt else 0.0,
        "observables.long_time_g2.converged_share":
            sum(x[3] == "ok" for x in lt) / len(lt) if lt else 0.0,
        "observables.long_time_g2.nonconvergence_errors":
            sum(x[3] == "NonConvergenceError" for x in lt),
        "fock.stages": sum(len(run) for run in t.fock_runs),
        "fock.final_dim": max((run[-1][0] for run in t.fock_runs if run), default=0),
        "fock.sparse_hamiltonian.s": t.seconds["fock.sparse_hamiltonian"],
        "fock.expm_multiply.calls": t.calls["fock.expm_multiply"],
        "fock.expm_multiply.s": t.seconds["fock.expm_multiply"],
    }
    for regime in ("ii", "iii", "iv"):
        ms = [x[1] * 1e3 for x in lt if x[0] == regime]
        out[f"observables.long_time_g2.ms_per_call.{regime}"] = (
            sum(ms) / len(ms) if ms else 0.0
        )
    krylov = t.seconds["fock.expm_multiply"]
    final = sum(run[-1][1] for run in t.fock_runs if run)
    out["fock.final_stage_share"] = final / krylov if krylov else 0.0
    return out


def failure_reasons(tracer: Tracer) -> Counter:
    """Exception names of the long_time_g2 calls that raised."""
    return Counter(x[3] for x in tracer.long_time if x[3] != "ok")

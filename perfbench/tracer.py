"""Outside-in tracer: times calls into the program's public functions by
patching them from the benchmark, with no edit to the program.

Each target is patched at the name the caller looks it up by.  The
confinement path calls ``eigen_full`` through ``evolve``'s own binding, so
wrapping ``spectral.eigen_full`` would record nothing; the table below
therefore names ``evolve.eigen_full``, ``quasimode.eigen_lowest`` and so on.

Spans are kept in memory as ``[label, start, end, parent]`` (parent is
the index of the enclosing span, -1 at top level).  When the traced
execution ends they are reduced to per-layer metrics and written out,
unreduced, with the execution's result.  A target that no
longer exists is reported as absent with zero calls.  Only traced runs
import this module.
"""

from __future__ import annotations

import importlib
import time


def _op_pairs(tr, args, kwargs, result):
    op = args[0]
    tr.add("spectral.eigenpairs", op.n)
    tr.peak("spectral.eigen_full.n_max", op.n)


def _lowest_pairs(tr, args, kwargs, result):
    tr.add("spectral.eigenpairs", len(result))


def _reconstruction_flop(tr, args, kwargs, result):
    # real evecs rows (r x n) times c (n x m); a complex c costs two real products
    prop, c = args[0], args[1]
    m = c.shape[1] if c.ndim == 2 else 1
    flop = 2.0 * result.shape[0] * prop.evecs.shape[1] * m * (2 if c.dtype.kind == "c" else 1)
    tr.add("evolve.from_spectral.gflop", flop / 1e9)


def _bytes_written(tr, args, kwargs, result):
    tr.add("cli.output.bytes", result.stat().st_size)


# (module, attribute path, label, hook run after each call)
TARGETS = [
    ("warptrap.evolve", "eigen_full", "spectral.eigen_full", _op_pairs),
    ("warptrap.quasimode", "eigen_lowest", "spectral.eigen_lowest", _lowest_pairs),
    ("warptrap.spectral", "ShellAccumulator.add", "spectral.ShellAccumulator.add", None),
    ("warptrap._kernels", "bisect_eigenvalues", "kernels.bisect_eigenvalues", None),
    ("warptrap._kernels", "inverse_iteration", "kernels.inverse_iteration", None),
    ("warptrap.evolve", "get_propagator", "evolve.get_propagator", None),
    # methods first: the class is then swapped for a subclass that inherits them
    ("warptrap.evolve", "ModePropagator.to_spectral", "evolve.to_spectral", None),
    ("warptrap.evolve", "ModePropagator.from_spectral", "evolve.from_spectral",
     _reconstruction_flop),
    ("warptrap.evolve", "ModePropagator", "evolve.ModePropagator", None),
    ("warptrap.evolve", "run_confinement", "evolve.run_confinement", None),
    ("warptrap.evolve", "space_time_norms", "evolve.space_time_norms", None),
    ("warptrap.quasimode", "build_quasimode", "quasimode.build_quasimode", None),
    ("warptrap.quasimode", "bracket_check", "quasimode.bracket_check", None),
    ("warptrap.quasimode", "smooth_step", "quasimode.smooth_step", None),
    ("warptrap.multiplier", "MultiplierPair.coefficients",
     "multiplier.MultiplierPair.coefficients", None),
    ("warptrap.multiplier", "find_admissible_delta", "multiplier.find_admissible_delta", None),
    ("warptrap.multiplier", "make_corpus", "multiplier.make_corpus", None),
    ("warptrap.multiplier", "verify_ibp", "multiplier.verify_ibp", None),
    ("warptrap.multiplier", "hardy_random_corpus", "multiplier.hardy_random_corpus", None),
    ("warptrap.cli", "OutputCollector.write_csv", "cli.output", _bytes_written),
    ("warptrap.cli", "OutputCollector.write_json", "cli.output", _bytes_written),
    ("warptrap.cli", "OutputCollector.write_text", "cli.output", _bytes_written),
    ("warptrap.cli", "OutputCollector.finish", "cli.output", _bytes_written),
]

# Labels whose calls and self time are reported, and the hooks' counters.
LAYERS = sorted({label for _, _, label, _ in TARGETS})
COUNTERS = ["spectral.eigenpairs", "spectral.eigen_full.n_max", "evolve.from_spectral.gflop",
            "cli.output.bytes"]


def _resolve(module: str, path: str):
    """(owner, attribute name) of a target, or None when it is gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *parents, name = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    return (owner, name) if hasattr(owner, name) else None


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: dict[str, float] = dict.fromkeys(COUNTERS, 0)
        self.absent: list[str] = []

    def add(self, key: str, amount: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def peak(self, key: str, value: float) -> None:
        self.counters[key] = max(self.counters.get(key, 0), value)

    def install(self) -> "Tracer":
        for module, path, label, hook in TARGETS:
            found = _resolve(module, path)
            if found is None:
                self.absent.append(f"{module}:{path}")
                continue
            owner, name = found
            setattr(owner, name, self._wrap(getattr(owner, name), label, hook))
        return self

    def _wrap(self, fn, label: str, hook):
        tracer = self

        def call(*args, **kwargs):
            rec = [label, time.perf_counter(), 0.0, tracer.stack[-1] if tracer.stack else -1]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                tracer.stack.pop()
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        if isinstance(fn, type):
            # a class stays a class: a subclass whose construction is the span
            return type(fn.__name__, (fn,), {"__init__": self._wrap(fn.__init__, label, hook),
                                             "__module__": fn.__module__})
        return call

    def metrics(self, run_s: float) -> dict[str, float]:
        """Per-layer figures of one traced execution lasting ``run_s``."""
        dur = [end - start for _, start, end, _ in self.spans]
        child = [0.0] * len(self.spans)
        top = 0.0
        for i, (_, _, _, parent) in enumerate(self.spans):
            if parent < 0:
                top += dur[i]
            else:
                child[parent] += dur[i]
        out: dict[str, float] = {}
        for label in LAYERS:
            out[f"{label}.calls"] = 0
            out[f"{label}.self_s"] = 0.0
        for i, (label, _, _, _) in enumerate(self.spans):
            out[f"{label}.calls"] += 1
            out[f"{label}.self_s"] += dur[i] - child[i]
        out.update(self.counters)
        calls = out["evolve.get_propagator.calls"]
        misses = out["evolve.ModePropagator.calls"]
        out["evolve.propagator.misses"] = misses
        out["evolve.propagator.hit_ratio"] = (calls - misses) / calls if calls else 0.0
        fs = out["evolve.from_spectral.self_s"]
        out["evolve.from_spectral.gflops"] = (
            out["evolve.from_spectral.gflop"] / fs if fs > 0 else 0.0)
        out["trace.unattributed_s"] = run_s - top
        return out

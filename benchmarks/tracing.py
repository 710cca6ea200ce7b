"""In-memory span tracer installed from outside the nlqsim package.

The package's modules reach each other through module attributes
(``evolution.evolve``, ``nlcompiler.execute``, ``statevec.apply_mcx_k``...)
and through module globals, so replacing those attributes with timing
wrappers traces every call across a layer boundary without touching the
program. Spans are kept in memory, each with its parent, and written out
when the invocation ends. The hot ``statevec`` primitives and the reference
solver's potential rule are called hundreds of thousands of times, so they
keep a call count and summed time instead of one span per call; that time
is still subtracted from the enclosing span's self time.
"""

from __future__ import annotations

import functools
import json
import time
import tracemalloc

#: module -> functions wrapped with one span per call
SPANNED = {
    "cli": (
        "main", "load_config", "build_coupling", "build_initial_amplitudes",
        "build_oracle_potential", "run_simulate", "run_compare", "_write_json",
    ),
    "problems": (
        "hartree_coupling", "gross_pitaevskii_coupling", "navier_stokes_coupling",
        "coupling_from_triplet_csv", "gaussian_packet", "uniform_amplitudes",
        "basis_amplitudes", "plane_wave_amplitudes",
    ),
    "nlcompiler": (
        "compile_w", "gammas_from_coupling", "schedule_blocks", "execute",
        "apply_w_direct",
    ),
    "evolution": (
        "evolve", "trotter_step", "apply_kinetic", "observables",
        "summary_dict", "write_trajectory_csv",
    ),
    "oracle": ("split_step_solve", "field_from_csv"),
    "statevec": ("init_from_amplitudes",),
}

#: module -> functions wrapped with a call counter and summed time
COUNTED = {
    "statevec": (
        "apply_mcx_k", "apply_nonlinear", "apply_ancilla_phase",
        "apply_principal_diagonal", "dft_principal",
    ),
}

#: oracle factories whose returned potential rule is counted as oracle.potential
RULE_FACTORIES = ("kernel_potential", "coupling_potential")


class Tracer:
    """Spans as ``[id, parent_id, name, start, end, child_seconds]``."""

    def __init__(self, track_compile_memory: bool = False):
        self.spans: list[list] = []
        self.counters: dict[str, list] = {}
        self.values: dict[str, float] = {}
        self._stack: list[list] = []
        self._track_compile_memory = track_compile_memory

    def spanned(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = [len(self.spans), parent[0] if parent else None, name,
                    time.perf_counter(), 0.0, 0.0]
            self.spans.append(span)
            self._stack.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                self._stack.pop()
                if parent is not None:
                    parent[5] += span[4] - span[3]

        return wrapper

    def counted(self, name: str, fn):
        counter = self.counters.setdefault(name, [0, 0.0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                counter[0] += 1
                counter[1] += dt
                if self._stack:
                    self._stack[-1][5] += dt

        return wrapper

    def _compile_memory(self, fn):
        """Peak traced allocation of each compile (MiB); slows the compile,
        so it runs in its own invocation, never in a timed one."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1] / 2**20
                tracemalloc.stop()
                key = "nlcompiler.compile_peak_mb"
                self.values[key] = max(self.values.get(key, 0.0), peak)

        return wrapper

    def install(self) -> None:
        """Replace the package's module attributes with traced wrappers."""
        import importlib

        def module(short):
            return importlib.import_module(f"nlqsim.{short}")

        for short, names in SPANNED.items():
            mod = module(short)
            for fname in names:
                setattr(mod, fname, self.spanned(f"{short}.{fname}", getattr(mod, fname)))
        for short, names in COUNTED.items():
            mod = module(short)
            for fname in names:
                setattr(mod, fname, self.counted(f"{short}.{fname}", getattr(mod, fname)))

        oracle = module("oracle")
        for fname in RULE_FACTORIES:
            factory = getattr(oracle, fname)

            def traced_factory(*args, _factory=factory, **kwargs):
                return self.counted("oracle.potential", _factory(*args, **kwargs))

            setattr(oracle, fname, self.spanned(f"oracle.{fname}",
                                                functools.wraps(factory)(traced_factory)))

        evolution = module("evolution")
        write_csv = evolution.write_trajectory_csv

        @functools.wraps(write_csv)
        def counting_write(path, snapshots, *args, **kwargs):
            key = "evolution.snapshots"
            self.values[key] = self.values.get(key, 0) + len(snapshots)
            return write_csv(path, snapshots, *args, **kwargs)

        evolution.write_trajectory_csv = counting_write

        if self._track_compile_memory:
            nlcompiler = module("nlcompiler")
            nlcompiler.compile_w = self._compile_memory(nlcompiler.compile_w)

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(
                {"spans": self.spans, "counters": self.counters, "values": self.values},
                fh,
            )

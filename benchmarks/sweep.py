"""Per-layer sweep over register size n, in process.

    python3 benchmarks/sweep.py [--out .bench_work/sweep.json]

Times the layer functions named in the roadmap's baseline table, each as
the median of ``REPS`` samples; a sample repeats a fast call until it
covers at least 10 ms and reports the time per call. Rows are named
``<module>.<function>.n<k>_s``. Rows with a roadmap figure carry it, and a
ratio outside [2/3, 3/2] is flagged. The sweep is run by hand, apart from
run.py's workloads. At n=12 the dense couplings take about 130 MiB
each, and the Hartree coupling briefly holds twice that.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

import machine

#: baseline figures quoted in ROADMAP.md item 1 (seconds per call)
ROADMAP_S = {
    "nlcompiler.compile_w.n6_s": 0.033,
    "nlcompiler.compile_w.n8_s": 0.60,
    "nlcompiler.execute.n6_s": 0.044,
    "nlcompiler.execute.n8_s": 0.73,
    "nlcompiler.apply_w_direct.n6_s": 24e-6,
    "nlcompiler.apply_w_direct.n8_s": 44e-6,
    "nlcompiler.apply_w_direct.n12_s": 16.6e-3,
    "evolution.apply_kinetic.n6_s": 57e-6,
    "evolution.apply_kinetic.n8_s": 75e-6,
    "nlcompiler.gammas_from_coupling.n10_s": 1.3,
    "problems.hartree_coupling.n12_s": 0.79,
    "problems.navier_stokes_coupling.n12_s": 0.34,
}
MIN_SAMPLE_S = 0.01
REPS = 5


def median_time(fn, reps: int) -> float:
    """Median over reps samples of the time per call of fn()."""
    t0 = time.perf_counter()
    fn()
    first = time.perf_counter() - t0
    inner = max(1, int(MIN_SAMPLE_S / first)) if first > 0 else 1
    samples = []
    for _ in range(reps):
        t0 = time.perf_counter()
        for _ in range(inner):
            fn()
        samples.append((time.perf_counter() - t0) / inner)
    return statistics.median(samples)


def sweep(reps: int) -> list[dict]:
    machine.use_program()
    from nlqsim import evolution, nlcompiler, oracle, problems, statevec
    from nlqsim.oracle import FieldState
    from nlqsim.problems import GridSpec, KernelSpec

    kernel = KernelSpec.gaussian(1.0, 2.0)
    eps = 0.08
    rows = []

    def row(module, function, n, fn, **extra):
        name = f"{module}.{function}.n{n}_s"
        entry = {"name": name, "layer": module, "function": function, "n": n,
                 "median_s": median_time(fn, reps), "reps": reps, **extra}
        if name in ROADMAP_S:
            entry["roadmap_s"] = ROADMAP_S[name]
            entry["ratio_to_roadmap"] = entry["median_s"] / ROADMAP_S[name]
            entry["disagrees"] = not 2 / 3 <= entry["ratio_to_roadmap"] <= 3 / 2
        rows.append(entry)
        flag = "  DISAGREES with roadmap" if entry.get("disagrees") else ""
        print(f"{name:42s} {entry['median_s']:12.6g} s{flag}", flush=True)

    def grid_for(n):
        return GridSpec(points=(2**n,), dx=0.25, x0=-(2**n) * 0.125)

    def register_for(grid):
        return statevec.init_from_amplitudes(problems.gaussian_packet(grid, 0.0, 1.0, -1.0))

    for n in range(4, 13):
        grid = grid_for(n)
        row("problems", "hartree_coupling", n, lambda: problems.hartree_coupling(kernel, grid))
        row("problems", "navier_stokes_coupling", n,
            lambda: problems.navier_stokes_coupling(1.0, grid))
        f = problems.hartree_coupling(kernel, grid)
        size = grid.size
        if n <= 10:
            row("nlcompiler", "gammas_from_coupling", n,
                lambda: nlcompiler.gammas_from_coupling(f, eps))
        if n <= 8:
            row("nlcompiler", "compile_w", n, lambda: nlcompiler.compile_w(f, eps))
            seq = nlcompiler.compile_w(f, eps)
            r = register_for(grid)
            row("nlcompiler", "execute", n, lambda: nlcompiler.execute(seq, r), ops=len(seq))
            rows[-1]["us_per_op"] = rows[-1]["median_s"] / len(seq) * 1e6
        r = register_for(grid)
        row("nlcompiler", "apply_w_direct", n, lambda: nlcompiler.apply_w_direct(r, f, eps),
            computed_bytes=8 * size * size + 48 * size)
        del f
        spec = evolution.KineticSpec(1.0, grid)
        row("evolution", "apply_kinetic", n, lambda: evolution.apply_kinetic(r, spec, eps))
        phi0 = FieldState.from_amplitudes(register_for(grid).ancilla0.copy(), grid)
        rule = oracle.kernel_potential(kernel, grid)
        dt = eps / 20
        row("oracle", "split_step_solve", n,
            lambda: oracle.split_step_solve(phi0, rule, 1.0, dt, dt))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="per-layer n-sweep")
    parser.add_argument("--out", default=str(machine.WORK / "sweep.json"))
    args = parser.parse_args(argv)
    if not machine.program_present():
        print(f"nlqsim sources not found under {machine.SRC}", file=sys.stderr)
        return 2
    rows = sweep(REPS)
    report = {"environment": machine.record(), "rows": rows}
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

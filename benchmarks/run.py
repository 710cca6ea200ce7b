"""End-to-end benchmark of the nlqsim CLI.

    python3 benchmarks/run.py --workload gate-dense --seed 1 --seconds 30 --trace 0

Every invocation of ``nlqsim.cli.main`` runs in a fresh process, one at a
time, on a config generated from ``--seed`` (see workloads.py). A run first
makes the workload's untimed check invocations, then repeats invocations
until ``--seconds`` have passed (at least two rounds):

* ``--trace 0``: one full invocation per round and one zero-step
  (``--steps 0``) invocation every other round; reports the end-to-end
  metrics as medians over the invocations.
* ``--trace 1``: one untraced and one traced full invocation per round, plus
  one zero-step invocation that records compile memory; reports the
  per-layer metrics as medians over the traced invocations, and the traced
  minus untraced wall time as ``trace.overhead_s``.

Every invocation's outputs are checked (exit code, no traceback, norm drift,
gate tally against the closed form, step-halving ratios, byte-identical
repeats, and compiled against direct final states); an invocation that fails
any check counts as failed. The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; a fuller record with
the machine description and the spans of the last traced invocation goes to
``.bench_work/results/``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import machine
import workloads
from workloads import Call, Workload

INVOKE = Path(__file__).resolve().parent / "invoke.py"
OUTPUTS = ("summary.json", "compare.json", "trajectory.csv", "convergence.csv")
NORM_DRIFT_MAX = 1e-10
L2_RATIO_BAND = (1.6, 2.6)
STATE_MATCH_TOL = 1e-12
CHILD_TIMEOUT_S = 150
MIN_ROUNDS = 2

GATES = ("statevec.apply_mcx_k", "statevec.apply_nonlinear", "statevec.apply_ancilla_phase")
COUPLING_FUNCS = (
    "problems.hartree_coupling", "problems.gross_pitaevskii_coupling",
    "problems.navier_stokes_coupling", "problems.coupling_from_triplet_csv",
)
STATE_FUNCS = (
    "problems.gaussian_packet", "problems.uniform_amplitudes",
    "problems.basis_amplitudes", "problems.plane_wave_amplitudes",
)
LAYERS = ("cli", "problems", "nlcompiler", "statevec", "evolution", "oracle")

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "ref_l2_error": "l2",
    "ok_frac": "ratio",
}

PER_LAYER_UNITS = {
    "statevec.gate_calls": "count",
    "statevec.gate_s": "s",
    "nlcompiler.execute_s": "s",
    "nlcompiler.us_per_op": "us",
    "nlcompiler.ops_per_step": "count",
    "nlcompiler.compile_s": "s",
    "nlcompiler.gammas_s": "s",
    "nlcompiler.compile_peak_mb": "MiB",
    "problems.coupling_s": "s",
    "problems.state_s": "s",
    "problems.coupling_mb": "MiB",
    "nlcompiler.direct_s": "s",
    "nlcompiler.direct_bytes_per_step": "bytes",
    "evolution.kinetic_s": "s",
    "statevec.dft_calls": "count",
    "statevec.dft_s": "s",
    "evolution.snapshots": "count",
    "evolution.trajectory_write_s": "s",
    "evolution.evolve_s": "s",
    "evolution.step_ms_p50": "ms",
    "evolution.step_ms_p90": "ms",
    "evolution.observables_s": "s",
    "oracle.solve_s": "s",
    "oracle.ref_steps": "count",
    "oracle.ref_step_us": "us",
    "oracle.potential_s": "s",
    "cli.config_s": "s",
    "cli.write_s": "s",
    "cli.import_s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.overhead_s": "s",
}


@dataclass
class Invocation:
    kind: str
    call: Call
    out: Path
    wall_s: float | None = None
    peak_rss_mb: float | None = None
    trace: dict | None = None
    problems: list[str] = field(default_factory=list)


class Run:
    """Invokes the CLI on one generated config and checks every output."""

    def __init__(self, wl: Workload, work: Path):
        self.wl = wl
        self.work = work
        self.config_path = work / "config.json"
        self.config_path.write_text(wl.config_text())
        self.env = machine.child_env()
        self.invocations: list[Invocation] = []
        self._digests: dict[tuple[str, ...], dict[str, str]] = {}
        self.direct_final = None
        self.ref_l2_error: float | None = None

    @property
    def failed(self) -> int:
        return sum(1 for inv in self.invocations if inv.problems)

    def invoke(self, kind: str, call: Call, trace: bool = False,
               compile_memory: bool = False) -> Invocation:
        tag = f"{len(self.invocations):03d}-{kind}"
        inv = Invocation(kind, call, self.work / tag)
        self.invocations.append(inv)
        record = self.work / f"{tag}.record.json"
        spans = self.work / f"{tag}.trace.json"
        cmd = [sys.executable, str(INVOKE), "--record", str(record)]
        if trace:
            cmd += ["--trace", str(spans)]
        if compile_memory:
            cmd.append("--compile-memory")
        cmd += ["--", *call.argv, "--config", str(self.config_path), "--out", str(inv.out)]
        try:
            proc = subprocess.run(
                cmd, env=self.env, cwd=machine.ROOT, capture_output=True,
                text=True, timeout=CHILD_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            inv.problems.append(f"timed out after {CHILD_TIMEOUT_S} s")
        else:
            if proc.returncode != 0:
                inv.problems.append(f"exit code {proc.returncode}")
            if "Traceback" in proc.stderr:
                inv.problems.append("traceback on stderr")
            if record.is_file():
                rec = json.loads(record.read_text())
                inv.wall_s, inv.peak_rss_mb = rec["wall_s"], rec["peak_rss_mb"]
            elif not inv.problems:
                inv.problems.append("no invocation record")
            if trace and spans.is_file():
                inv.trace = json.loads(spans.read_text())
            elif trace and not inv.problems:
                inv.problems.append("no trace written")
            if proc.stderr.strip() and inv.problems:
                inv.problems.append("stderr: " + proc.stderr.strip().splitlines()[-1])
        if not inv.problems:
            try:
                self._check_outputs(inv)
            except (OSError, KeyError, TypeError, ValueError) as exc:
                inv.problems.append(f"unreadable outputs: {exc!r}")
        for problem in inv.problems:
            print(f"FAILED {tag} {' '.join(call.argv)}: {problem}", file=sys.stderr)
        shutil.rmtree(inv.out, ignore_errors=True)
        return inv

    # -- output checks ----------------------------------------------------

    def _check_outputs(self, inv: Invocation) -> None:
        call, out, problems = inv.call, inv.out, inv.problems
        if call.subcommand == "simulate":
            summary = json.loads((out / "summary.json").read_text())
            self._check_drift(summary["norm_drift"], problems)
            expected = self._estimate(call.steps[0]).as_dict()
            if summary["tally"] != expected:
                problems.append(f"tally {summary['tally']} != closed form {expected}")
            final = _final_state(out / "trajectory.csv")
            if inv.kind == "direct":
                self.direct_final = final
            elif self.direct_final is not None and call.steps[0] > 0:
                err = _aligned_max_error(self.direct_final, final)
                if not err <= STATE_MATCH_TOL:
                    problems.append(f"compiled vs direct final state differ by {err:.3e}")
        else:
            rows = json.loads((out / "compare.json").read_text())["comparisons"]
            if tuple(r["n_steps"] for r in rows) != call.steps:
                problems.append(f"compare rows have steps {[r['n_steps'] for r in rows]}")
            for row in rows:
                self._check_drift(row["norm_drift"], problems)
            for row in rows[:-1]:
                lo, hi = L2_RATIO_BAND
                if not lo <= row["l2_ratio"] <= hi:
                    problems.append(f"l2_ratio {row['l2_ratio']:.4f} outside [{lo}, {hi}]")
            if inv.kind == self.wl.ref_call:
                self.ref_l2_error = rows[-1]["l2_error"]
        if inv.trace is not None:
            gate_calls = sum(inv.trace["counters"].get(g, (0, 0.0))[0] for g in GATES)
            expected = self._gate_total(call) if self.wl.compiled else 0
            if gate_calls != expected:
                problems.append(f"traced gate calls {gate_calls} != tally {expected}")
        digests = {
            name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in OUTPUTS if (out / name).is_file()
        }
        first = self._digests.setdefault(call.argv, digests)
        if digests != first:
            problems.append("outputs differ from the first invocation of the same call")

    @staticmethod
    def _check_drift(drift: float, problems: list[str]) -> None:
        if not drift < NORM_DRIFT_MAX:
            problems.append(f"norm drift {drift!r} >= {NORM_DRIFT_MAX}")

    def _estimate(self, steps: int):
        from nlqsim import nlcompiler

        singles, pairs = self.wl.sparsity or (None, None)
        return nlcompiler.estimate_resources(
            self.wl.n_qubits, steps, singles=singles, pairs=pairs
        )

    def _gate_total(self, call: Call) -> int:
        total = 0
        for steps in call.steps:
            t = self._estimate(steps).total
            total += t.mcx + t.nonlinear + t.ancilla_phase
        return total


def _number(text: str) -> float:
    # under numpy 2 the trajectory writer emits repr(np.float64), e.g.
    # "np.float64(0.25)"; the value inside is still the full-precision repr
    if text.startswith("np.float64("):
        text = text[len("np.float64("):-1]
    return float(text)


def _final_state(path: Path):
    import numpy as np

    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    last = max(int(r["step"]) for r in rows)
    return np.array(
        [complex(_number(r["re"]), _number(r["im"])) for r in rows if int(r["step"]) == last]
    )


def _aligned_max_error(reference, state) -> float:
    """Largest amplitude difference after removing the global phase."""
    import numpy as np

    ov = np.vdot(reference, state)
    aligned = state * (abs(ov) / ov) if ov != 0 else state
    return float(np.max(np.abs(aligned - reference)))


# -- metrics ---------------------------------------------------------------


def _median(values) -> float:
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else 0.0


def _rounds(deadline: float, body) -> None:
    """Call body until the deadline would pass during the next round."""
    durations: list[float] = []
    while True:
        t0 = time.perf_counter()
        body()
        durations.append(time.perf_counter() - t0)
        if (len(durations) >= MIN_ROUNDS
                and time.perf_counter() + statistics.median(durations) > deadline):
            return


def end_to_end(run: Run, deadline: float) -> dict[str, float]:
    wl = run.wl
    fulls, setups = [], []

    def one_round():
        fulls.append(run.invoke("full", wl.full))
        # zero-step invocations in every other round leave more of the run
        # to the full ones: wall_s needs the samples to stay within its
        # bound from run to run, setup_s only has to be comparable
        if len(fulls) % 2:
            setups.append(run.invoke("setup", wl.setup))

    _rounds(deadline, one_round)
    attempted = len(run.invocations)
    return {
        "wall_s": _median(inv.wall_s for inv in fulls),
        "setup_s": _median(inv.wall_s for inv in setups),
        "peak_rss_mb": _median(inv.peak_rss_mb for inv in fulls),
        "ref_l2_error": run.ref_l2_error or 0.0,
        "ok_frac": 1.0 - run.failed / attempted,
    }


def _outermost_total(spans: list[list], names) -> float:
    """Summed duration of spans named in ``names`` that no such span encloses."""
    names = set(names)
    by_id = {s[0]: s for s in spans}
    total = 0.0
    for span in spans:
        if span[2] not in names:
            continue
        parent = span[1]
        while parent is not None and by_id[parent][2] not in names:
            parent = by_id[parent][1]
        if parent is None:
            total += span[4] - span[3]
    return total


def layer_metrics(trace: dict, wl: Workload) -> dict[str, float]:
    spans, counters, values = trace["spans"], trace["counters"], trace["values"]

    def total(*names):
        return _outermost_total(spans, names)

    def calls(*names):
        return sum(counters.get(n, (0, 0.0))[0] for n in names)

    def seconds(*names):
        return sum(counters.get(n, (0, 0.0))[1] for n in names)

    def count_spans(name):
        return sum(1 for s in spans if s[2] == name)

    gate_calls = calls(*GATES)
    executes = count_spans("nlcompiler.execute")
    execute_s = total("nlcompiler.execute")
    step_ms = sorted((s[4] - s[3]) * 1e3 for s in spans if s[2] == "evolution.trotter_step")
    ref_steps = calls("oracle.potential")
    solve_s = total("oracle.split_step_solve")
    size = wl.grid_size

    self_s = dict.fromkeys(LAYERS, 0.0)
    for span in spans:
        self_s[span[2].split(".")[0]] += (span[4] - span[3]) - span[5]
    for name, (_, secs) in counters.items():
        self_s[name.split(".")[0]] += secs

    return {
        "statevec.gate_calls": gate_calls,
        "statevec.gate_s": seconds(*GATES),
        "nlcompiler.execute_s": execute_s,
        "nlcompiler.us_per_op": execute_s / gate_calls * 1e6 if gate_calls else 0.0,
        "nlcompiler.ops_per_step": gate_calls / executes if executes else 0.0,
        "nlcompiler.compile_s": total("nlcompiler.compile_w"),
        "nlcompiler.gammas_s": total("nlcompiler.gammas_from_coupling"),
        "problems.coupling_s": total(*COUPLING_FUNCS),
        "problems.state_s": total(*STATE_FUNCS),
        # computed: the dense float64 coupling matrix
        "problems.coupling_mb": 8 * size * size / 2**20,
        "nlcompiler.direct_s": total("nlcompiler.apply_w_direct"),
        # computed: read f (8 N^2), read/write the ancilla-0 branch (2 x 16 N),
        # write and read the density vector (2 x 8 N)
        "nlcompiler.direct_bytes_per_step": (
            8 * size * size + 48 * size if count_spans("nlcompiler.apply_w_direct") else 0
        ),
        "evolution.kinetic_s": total("evolution.apply_kinetic"),
        "statevec.dft_calls": calls("statevec.dft_principal"),
        "statevec.dft_s": seconds("statevec.dft_principal"),
        "evolution.snapshots": values.get("evolution.snapshots", 0),
        "evolution.trajectory_write_s": total("evolution.write_trajectory_csv"),
        "evolution.evolve_s": total("evolution.evolve"),
        "evolution.step_ms_p50": statistics.median(step_ms) if step_ms else 0.0,
        "evolution.step_ms_p90": step_ms[int(0.9 * (len(step_ms) - 1))] if step_ms else 0.0,
        "evolution.observables_s": total("evolution.observables"),
        "oracle.solve_s": solve_s,
        "oracle.ref_steps": ref_steps,
        "oracle.ref_step_us": solve_s / ref_steps * 1e6 if ref_steps else 0.0,
        "oracle.potential_s": seconds("oracle.potential"),
        "cli.config_s": total("cli.load_config"),
        "cli.write_s": total("cli._write_json"),
        "cli.import_s": values["cli.import_s"],
        **{f"{layer}.self_s": secs for layer, secs in self_s.items()},
    }


def per_layer(run: Run, deadline: float) -> dict[str, float]:
    wl = run.wl
    memory = run.invoke("memory", wl.setup, trace=True, compile_memory=True)
    plain, traced = [], []
    _rounds(deadline, lambda: (
        plain.append(run.invoke("full", wl.full)),
        traced.append(run.invoke("traced", wl.full, trace=True)),
    ))
    per_invocation = [layer_metrics(inv.trace, wl) for inv in traced if inv.trace]
    metrics = {
        name: _median(m[name] for m in per_invocation) for name in PER_LAYER_UNITS
        if per_invocation and name in per_invocation[0]
    }
    if memory.trace:
        peak = "nlcompiler.compile_peak_mb"
        metrics[peak] = memory.trace["values"].get(peak, 0.0)
    metrics["trace.overhead_s"] = (
        _median(inv.wall_s for inv in traced) - _median(inv.wall_s for inv in plain)
    )
    return {name: metrics.get(name, 0.0) for name in PER_LAYER_UNITS}


# -- entry point -------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not machine.program_present():
        print(f"nlqsim sources not found under {machine.SRC}", file=sys.stderr)
        return 2
    machine.use_program()
    # turn SIGTERM into SystemExit so a running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    start = time.perf_counter()
    deadline = start + args.seconds
    wl = workloads.make(args.workload, args.seed)
    machine.WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=machine.WORK))
    try:
        run = Run(wl, work)
        for kind, call in wl.checks.items():
            run.invoke(kind, call)
        if args.trace:
            values, units = per_layer(run, deadline), PER_LAYER_UNITS
        else:
            values, units = end_to_end(run, deadline), END_TO_END_UNITS
        last_trace = next(
            (inv.trace for inv in reversed(run.invocations) if inv.trace), None
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env = machine.record()
    attempted, failed = len(run.invocations), run.failed
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    results_dir = machine.WORK / "results"
    results_dir.mkdir(exist_ok=True)
    detail = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "elapsed_s": time.perf_counter() - start,
        "environment": env, "config": wl.config, "result": result,
        "invocations": [
            {"kind": inv.kind, "argv": list(inv.call.argv), "wall_s": inv.wall_s,
             "peak_rss_mb": inv.peak_rss_mb, "problems": inv.problems}
            for inv in run.invocations
        ],
        "spans": last_trace,
    }
    out = results_dir / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(detail, indent=1) + "\n")

    counts = Counter(inv.kind for inv in run.invocations)
    print(f"workload {wl.name} seed {args.seed} trace {args.trace}: "
          + ", ".join(f"{n} {kind}" for kind, n in counts.items())
          + f" invocations in {detail['elapsed_s']:.1f} s")
    print("environment " + json.dumps(env, sort_keys=True))
    for name, unit in units.items():
        print(f"  {name:34s} {values[name]:>14.6g} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

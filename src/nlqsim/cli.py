"""Batch front-end: parse an experiment config, run one subcommand, write
machine-readable results.

Subcommands:
  simulate   - run the gate-level evolution, write trajectory CSV + summary JSON
  compare    - run the gate-level path and the classical reference on the same
               physics; report fidelity, density error, optional step-halving
               convergence table
  resources  - closed-form gate-count table over a range of register sizes,
               optionally cross-checked against an instrumented run
  bec        - two-mode condensate phase-map check over a coupling sweep

Configs are read and checked in one place, config_from_dict: every section
accepts only its dataclass's fields (KernelSpec then refuses the keys of
other kernel forms), reals must be finite JSON numbers and integers JSON
integers within their bounds. config_to_dict echoes those fields, data-file
paths as written, and the --eps/--steps/--mode overrides re-enter
config_from_dict. The directory the data files are read against, the config
file's, is the field ExperimentConfig.base_dir, which no config may name
and no echo holds, so the outputs of a fixed config do not depend on where
it lies.

Every run is capped at MAX_STEPS steps: the gate-path steps of a
simulate/compare config (checked by config_from_dict), and for a compare run
the gate-path steps of all rows plus the reference steps of the solves it
makes (checked by run_compare before any work). A compare reference step is
one step of the fourth-order row, six potential rounds. A run above the cap
is a config error.

Every subcommand refuses an --out that cannot be a directory (empty, an
existing file, or a path below one) before any work; the directory is
created only when the outputs are written. A grid whose cell volume dx**dims
is not a normal float is refused by GridSpec, so as a config error.

Exit codes: 0 success, 1 numerical failure, an allocation that failed or an
output that could not be written, 2 usage or config error, each failure
reported as one stderr line, never a traceback.
All outputs are deterministic for a fixed config: floats are
serialized with full round-trip precision and JSON keys are sorted.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from functools import partial

import numpy as np

from . import evolution, nlcompiler, problems, statevec
from .evolution import KineticSpec, SimulationError
from .nlcompiler import CouplingMatrix
from .problems import GridSpec, KernelSpec

# the reference solver, `oracle`, is imported where it is used, so that
# `simulate` does not load it

PROBLEMS = ("hartree", "gross-pitaevskii", "navier-stokes", "custom-f")
PRESETS = ("gaussian", "uniform", "basis", "plane-wave", "file")

#: default kinetic prefactor per problem (second-derivative convention)
DEFAULT_CT = {
    "hartree": 1.0,
    "gross-pitaevskii": 0.5,
    "navier-stokes": 0.5,
    "custom-f": 1.0,
}


#: most steps one run may take: at about 10 us per step on the smallest grids a
#: run at the cap takes about a quarter of an hour, far more would never finish
MAX_STEPS = 10**8


#: largest register `resources` tabulates: 2**64 grid points, whose per-step
#: counts have about 40 digits
RESOURCES_MAX_QUBITS = 64
#: largest register `resources --instrument` compiles and executes: a dense
#: 256x256 coupling, its gate list and one step take about 3 s and 60 MiB,
#: and each added qubit multiplies both by about 4
INSTRUMENT_MAX_QUBITS = 8
#: largest basic-gate constant c of `resources`; with the step cap it keeps
#: every count under 70 digits
MAX_BASIC_C = 10**6
#: largest `bec` grid: the ground state diagonalizes a dense matrix of the
#: grid's size, at a cost that grows as its cube (about 0.3 s at 1024 points)
BEC_MAX_GRID_POINTS = 1024
#: most coupling scales one `bec` run sweeps (1, 1/2, ..., 2**-63), each a
#: two-mode solve
BEC_MAX_SWEEP = 64


class ConfigError(ValueError):
    """Invalid or inconsistent experiment configuration."""


@dataclass(frozen=True)
class InitialStateSpec:
    preset: str
    center: float | list[float] = 0.0
    sigma: float | list[float] = 1.0
    kappa: float | list[float] = 0.0
    k: int = 0
    mode: int = 1
    path: str | None = None


@dataclass(frozen=True)
class ExperimentConfig:
    """A checked experiment config; build it with config_from_dict."""

    problem: str
    grid: GridSpec
    t: float
    eps: float
    initial_state: InitialStateSpec = field(
        default_factory=lambda: InitialStateSpec("uniform")
    )
    kernel: KernelSpec | None = None
    g: float = 0.0
    rho0: float = 1.0
    coupling_csv: str | None = None
    c_T: float | None = None
    mode: str = "direct"
    oracle_dt: float | None = None
    record_stride: int = 0
    basic_c: int = 1
    #: directory the data-file paths are read against; not a config key
    base_dir: str = "."

    @property
    def kinetic_prefactor(self) -> float:
        return DEFAULT_CT[self.problem] if self.c_T is None else self.c_T

    def oracle_step(self, eps: float) -> float:
        """Reference step for a run of step eps: oracle_dt if set, else eps
        itself. `compare` steps the reference by the fourth-order
        `oracle.BLANES_MOAN4` row, whose error at step eps is negligible
        against the first-order error of the gate path at eps. The rows of
        `compare --halvings` share one reference at the finest row's step,
        continued from each row's final time to the next."""
        return eps if self.oracle_dt is None else self.oracle_dt

    def data_path(self, ref: str) -> str:
        """A data-file path as written in the config, read against base_dir
        (an absolute path stays as it is)."""
        return os.path.join(self.base_dir, ref)


def config_to_dict(cfg: ExperimentConfig) -> dict:
    """The JSON object that config_from_dict reads back to cfg, given the same
    base_dir (None fields left out; data-file paths as written)."""
    d = asdict(cfg, dict_factory=lambda kv: {k: v for k, v in kv if v is not None})
    del d["base_dir"]
    return d


def _real(key: str, value) -> float:
    """A finite JSON number (never a bool), as a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{key} must be a number, got {value!r}")
    if not abs(value) <= sys.float_info.max:  # also an int too large for a float
        raise ConfigError(f"{key} must be finite, got {value}")
    return float(value)


def _reals(key: str, value):
    """A number or a list of numbers (one per axis), kept as given."""
    for v in value if isinstance(value, list) else [value]:
        _real(key, v)
    return value


def _real_list(key: str, value) -> list[float]:
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{key} must be a list of numbers, got {value!r}")
    return [_real(key, v) for v in value]


def _integer(key: str, value, lower: int | None = None, upper: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    if lower is not None and value < lower:
        raise ConfigError(f"{key} must be >= {lower}, got {value}")
    if upper is not None and value > upper:
        raise ConfigError(f"{key} must be <= {upper}, got {value}")
    return value


def _points(key: str, value) -> tuple[int, ...]:
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{key} must be a list of integers, got {value!r}")
    return tuple(_integer(key, m, 2) for m in value)


def _string(key: str, value, choices: tuple[str, ...] | None = None) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{key} must be a string, got {value!r}")
    if choices is not None and value not in choices:
        raise ConfigError(f"unknown {key} {value!r}, choose one of {choices}")
    return value


def _not_a_key(key: str, value):
    """The parser of a field that config_from_dict sets itself."""
    raise ConfigError(f"{key} is not a config key: data files are read against "
                      "the config file's directory")


def _parse(name: str, d, cls, parsers: dict):
    """The cls built from the config object d, each key checked by its parser."""
    if not isinstance(d, dict):
        raise ConfigError(f"{name} must be an object, got {d!r}")
    names = [f.name for f in fields(cls)]
    for key in d:
        if key not in names:
            raise ConfigError(f"unknown {name} key {key!r}")
    for f in fields(cls):
        if f.name not in d and f.default is f.default_factory is MISSING:
            raise ConfigError(f"{name} needs {f.name!r}")
    return cls(**{key: parsers[key](key, value) for key, value in d.items()})


_GRID = {"points": _points, "dx": _real, "x0": _real}
_INITIAL_STATE = {
    "preset": partial(_string, choices=PRESETS), "center": _reals, "sigma": _reals,
    "kappa": _reals, "k": partial(_integer, lower=0), "mode": _integer, "path": _string,
}
# KernelSpec checks the form and which keys it takes
_KERNEL = {
    "form": lambda key, value: value, "samples": _real_list, "samples_signed": _real_list,
    **dict.fromkeys(("c", "sigma", "amplitude", "g"), _real),
}
_CONFIG = {
    "problem": partial(_string, choices=PROBLEMS),
    "grid": partial(_parse, cls=GridSpec, parsers=_GRID),
    "initial_state": partial(_parse, cls=InitialStateSpec, parsers=_INITIAL_STATE),
    "kernel": partial(_parse, cls=KernelSpec, parsers=_KERNEL),
    "coupling_csv": _string, "mode": partial(_string, choices=evolution.MODES),
    "record_stride": partial(_integer, lower=0), "basic_c": partial(_integer, lower=1),
    "base_dir": _not_a_key,
    **dict.fromkeys(("t", "eps", "g", "rho0", "c_T", "oracle_dt"), _real),
}


def config_from_dict(d: dict, base_dir: str = ".") -> ExperimentConfig:
    """The one reader of a simulate/compare config. Unknown keys, wrong JSON
    types, non-finite reals and out-of-range values raise ConfigError.
    Top-level reals become floats; initial-state values are kept as given.
    Data-file paths are kept as written; read against base_dir, they must
    name files that exist."""
    try:
        cfg = _parse("config", d, ExperimentConfig, _CONFIG)
    except ConfigError:
        raise
    except (ValueError, ArithmeticError) as exc:  # GridSpec, KernelSpec; float() overflow
        raise ConfigError(str(exc)) from exc
    if cfg.t < 0:
        raise ConfigError(f"t must be >= 0, got {cfg.t}")
    for name, step in (("eps", cfg.eps), ("oracle_dt", cfg.oracle_dt)):
        if step is not None and not step > 0:
            raise ConfigError(f"{name} must be positive, got {step}")
    if cfg.problem == "hartree" and cfg.kernel is None:
        raise ConfigError("hartree runs need a kernel")
    if cfg.problem == "custom-f" and not cfg.coupling_csv:
        raise ConfigError("custom-f runs need coupling_csv")
    if cfg.initial_state.preset == "file" and not cfg.initial_state.path:
        raise ConfigError("file preset needs a path")
    _check_step_counts(cfg, cfg.eps)
    _check_step_cap(evolution.n_steps_for(cfg.t, cfg.eps), "the gate path at eps")
    cfg = replace(cfg, base_dir=base_dir)
    for ref in (cfg.coupling_csv, cfg.initial_state.path):
        if ref is not None and not os.path.exists(cfg.data_path(ref)):
            raise ConfigError(f"referenced file does not exist: {ref}")
    return cfg


def _check_step_counts(cfg: ExperimentConfig, eps: float, name: str = "eps") -> None:
    """Refuse a run at step eps whose gate-path or reference step count,
    t/eps or t/oracle_dt, overflows a float: its integer step count would
    not exist."""
    steps = {name: eps}
    if cfg.oracle_dt is not None:
        steps["oracle_dt"] = cfg.oracle_dt
    for label, step in steps.items():
        if not (step > 0 and cfg.t / step <= sys.float_info.max):
            raise ConfigError(
                f"the step count t / ({label}) overflows: t {cfg.t!r}, {label} = {step!r}"
            )


def _check_step_cap(steps: int, what: str) -> None:
    """Refuse a run of more than MAX_STEPS steps, naming the count (in
    scientific notation from 10**12 on, also where it exceeds a float)."""
    if steps > MAX_STEPS:
        exp = math.floor(math.log10(steps))
        count = steps if steps < 10**12 else f"about {steps / 10**exp:.3g}e+{exp}"
        raise ConfigError(f"{what} takes {count} steps, above the cap of {MAX_STEPS}")


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # also non-UTF-8 or too deeply nested
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return config_from_dict(data, base_dir=os.path.dirname(os.path.abspath(path)))


def build_coupling(cfg: ExperimentConfig) -> CouplingMatrix:
    if cfg.problem == "hartree":
        return problems.hartree_coupling(cfg.kernel, cfg.grid)
    if cfg.problem == "gross-pitaevskii":
        return problems.gross_pitaevskii_coupling(cfg.g, cfg.grid)
    if cfg.problem == "navier-stokes":
        return problems.navier_stokes_coupling(cfg.rho0, cfg.grid)
    return problems.coupling_from_triplet_csv(cfg.data_path(cfg.coupling_csv), cfg.grid.size)


def build_problem(cfg: ExperimentConfig) -> tuple[CouplingMatrix, statevec.Register]:
    """Coupling and initial register of a config.

    The builders validate the physics and the referenced files (a kernel
    table shorter than the grid, a non-positive rho0, non-finite couplings,
    a state file of the wrong size or unreadable), so their ValueError or
    OSError is a config error like any other, and so is arithmetic that
    overflows or a grid too large to allocate.
    """
    try:
        f = build_coupling(cfg)
        r0 = statevec.init_from_amplitudes(build_initial_amplitudes(cfg))
    except (ValueError, OSError) as exc:
        raise ConfigError(str(exc)) from exc
    except (ArithmeticError, MemoryError) as exc:
        raise ConfigError(f"cannot build the problem: {type(exc).__name__}: {exc}") from exc
    return f, r0


def build_initial_amplitudes(cfg: ExperimentConfig) -> np.ndarray:
    spec = cfg.initial_state
    grid = cfg.grid
    if spec.preset == "gaussian":
        return problems.gaussian_packet(grid, spec.center, spec.sigma, spec.kappa)
    if spec.preset == "uniform":
        return problems.uniform_amplitudes(grid)
    if spec.preset == "basis":
        return problems.basis_amplitudes(grid, spec.k)
    if spec.preset == "plane-wave":
        return problems.plane_wave_amplitudes(grid, spec.mode)
    from . import oracle

    state = oracle.field_from_csv(cfg.data_path(spec.path), grid)
    return state.to_amplitudes()


def build_oracle_potential(cfg: ExperimentConfig):
    """Reference-solver potential rule, built from the config and never from
    the gate path's coupling: kernel convolution for hartree, pointwise g*rho
    for gross-pitaevskii, the rolled-grid Laplacian for navier-stokes, and
    for custom-f the oracle's own read of the triplet CSV."""
    from . import oracle

    if cfg.problem == "hartree":
        return oracle.kernel_potential(cfg.kernel, cfg.grid)
    if cfg.problem == "gross-pitaevskii":
        return oracle.kernel_potential(KernelSpec("contact", g=cfg.g), cfg.grid)
    if cfg.problem == "navier-stokes":
        return oracle.laplacian_potential(cfg.rho0, cfg.grid)
    return oracle.coupling_potential(cfg.data_path(cfg.coupling_csv), cfg.grid)


def _check_out_dir(path: str) -> None:
    """Refuse an output directory that cannot be created: an empty path, an
    existing path that is not a directory, or a path below one. The
    directory itself is created only when the outputs are written."""
    if not path:
        raise ConfigError("--out must name a directory, got ''")
    head = os.path.abspath(path)
    while not os.path.lexists(head):
        head = os.path.dirname(head)
    if not os.path.isdir(head):
        raise ConfigError(f"--out {path} cannot be a directory: {head} is not one")


def _write_csv(path: str, rows: list[dict], columns) -> None:
    """One header line, then one line per row; a missing column is empty."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows([row.get(c, "") for c in columns] for row in rows)


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def run_simulate(cfg: ExperimentConfig, out_dir: str) -> dict:
    f, r0 = build_problem(cfg)
    spec = KineticSpec(cfg.kinetic_prefactor, cfg.grid)
    n_steps = evolution.n_steps_for(cfg.t, cfg.eps)
    # stride 0 writes the first and last states: one stride covering the run
    result = evolution.evolve(
        r0, f, spec, n_steps, cfg.eps, mode=cfg.mode,
        record_stride=cfg.record_stride or max(n_steps, 1), basic_c=cfg.basic_c,
    )
    os.makedirs(out_dir, exist_ok=True)
    traj_path = os.path.join(out_dir, "trajectory.csv")
    evolution.write_trajectory_csv(traj_path, result.snapshots)
    summary = evolution.summary_dict(result, spec, f, extra={"config": config_to_dict(cfg)})
    _write_json(os.path.join(out_dir, "summary.json"), summary)
    return summary


def run_compare(cfg: ExperimentConfig, out_dir: str, halvings: int = 0) -> dict:
    from . import oracle

    if halvings < 0:
        raise ConfigError(f"halvings must be >= 0, got {halvings}")
    if halvings and evolution.n_steps_for(cfg.t, cfg.eps) == 0:
        # every row must take a step: a zero-step row has zero error and
        # the ratio over it would divide by zero
        raise ConfigError(f"halvings need t >= eps, got t {cfg.t}, eps {cfg.eps}")
    row_eps = [cfg.eps]
    for i in range(1, halvings + 1):
        row_eps.append(math.ldexp(cfg.eps, -i))  # eps/2**i; refused once it underflows
        _check_step_counts(cfg, row_eps[-1], f"eps/2**{i}")
    # the caps come after every overflow check, so an overflow is named as one
    row_steps = [evolution.n_steps_for(cfg.t, eps) for eps in row_eps]
    for i, n_steps in enumerate(row_steps[1:], 1):
        _check_step_cap(n_steps, f"the gate path at eps/2**{i}")
    # both paths of a row integrate to its final time t_run. Halving eps and
    # doubling the step count are exact, so the rows share one t_run whenever
    # t is a multiple of eps. The reference runs at the finest row's step and
    # reaches each distinct t_run from the next lower one (0 at first), so
    # its steps add up to those of a single solve to the latest t_run, not
    # of one solve per row
    t_runs = [n_steps * eps for n_steps, eps in zip(row_steps, row_eps)]
    ref_dt = cfg.oracle_step(row_eps[-1])
    ends = sorted(set(t_runs))
    starts = dict(zip(ends, [0.0] + ends[:-1]))
    total = sum(row_steps) + sum(
        oracle.step_count(end - start, ref_dt) for end, start in starts.items()
    )
    _check_step_cap(total, f"compare (gate path and reference, all {len(row_eps)} row(s))")
    f, r0 = build_problem(cfg)
    spec = KineticSpec(cfg.kinetic_prefactor, cfg.grid)
    rule = build_oracle_potential(cfg)
    references = {0.0: oracle.FieldState.from_amplitudes(r0.ancilla0.copy(), cfg.grid)}

    def reference(t_run: float) -> oracle.FieldState:
        # solved when a row first needs it, after that row's gate path
        if t_run not in references:
            start = starts[t_run]
            references[t_run] = oracle.split_step_solve(
                reference(start), rule, cfg.kinetic_prefactor, t_run - start, ref_dt,
                row=oracle.BLANES_MOAN4,
            )
        return references[t_run]

    def one_comparison(eps: float, n_steps: int, t_run: float) -> dict:
        result = evolution.evolve(r0, f, spec, n_steps, eps, mode=cfg.mode)
        ref_amps = reference(t_run).to_amplitudes()
        quantum = result.final.ancilla0.copy()
        ov = np.vdot(ref_amps, quantum)
        fid = float(abs(ov))
        l2 = float(np.linalg.norm(quantum * np.exp(-1j * np.angle(ov)) - ref_amps))
        dens_err = float(
            np.max(np.abs(np.abs(quantum) ** 2 - np.abs(ref_amps) ** 2))
        )
        return {
            "eps": eps,
            "n_steps": n_steps,
            "fidelity": fid,
            "infidelity": 1.0 - fid,
            "l2_error": l2,
            "max_density_error": dens_err,
            "norm_drift": result.norm_drift,
        }

    rows = [one_comparison(*row) for row in zip(row_eps, row_steps, t_runs)]
    for i in range(len(rows) - 1):
        nxt = rows[i + 1]
        rows[i]["l2_ratio"] = rows[i]["l2_error"] / nxt["l2_error"]
        rows[i]["infidelity_ratio"] = rows[i]["infidelity"] / nxt["infidelity"]
    report = {"config": config_to_dict(cfg), "comparisons": rows}
    os.makedirs(out_dir, exist_ok=True)
    _write_json(os.path.join(out_dir, "compare.json"), report)
    if halvings:
        _write_csv(
            os.path.join(out_dir, "convergence.csv"), rows,
            ("eps", "n_steps", "infidelity", "l2_error", "l2_ratio"),
        )
    return report


def instrumented_counts(
    seq: nlcompiler.GateSequence, r: statevec.Register
) -> nlcompiler.GateCounts:
    """Execute seq on r with a call counter on each statevec primitive that
    `nlcompiler.GATES` names, and return the calls made per kind."""
    calls = dict.fromkeys(nlcompiler.GATES.values(), 0)
    primitives = {name: getattr(statevec, name) for name in calls}

    def counting(name, apply):
        def wrapper(r, arg):
            calls[name] += 1
            return apply(r, arg)
        return wrapper

    try:
        for name, apply in primitives.items():
            setattr(statevec, name, counting(name, apply))
        nlcompiler.execute(seq, r)
    finally:
        for name, apply in primitives.items():
            setattr(statevec, name, apply)
    return nlcompiler.GateCounts(*calls.values())  # GATES is in field order


def run_resources(
    n_min: int,
    n_max: int,
    n_steps: int,
    basic_c: int,
    out_dir: str,
    instrument: bool = False,
) -> dict:
    if not 1 <= n_min <= n_max:
        raise ConfigError(f"need 1 <= n-min <= n-max, got n-min {n_min}, n-max {n_max}")
    _integer("n-max", n_max, upper=RESOURCES_MAX_QUBITS)
    if instrument and n_min > INSTRUMENT_MAX_QUBITS:
        raise ConfigError(f"--instrument needs n-min <= {INSTRUMENT_MAX_QUBITS}, got {n_min}")
    _integer("steps", n_steps, 0)
    _check_step_cap(n_steps, "the counted run")
    _integer("basic-c", basic_c, 1, MAX_BASIC_C)
    rows = []
    for n in range(n_min, n_max + 1):
        tally = nlcompiler.estimate_resources(n, n_steps, basic_c=basic_c)
        singles, pairs = nlcompiler.dense_sparsity(n)
        rows.append(
            {
                "n": n,
                "grid_points": 2**n,
                "singles": singles,
                "pairs": pairs,
                "mcx_per_step": tally.per_step.mcx,
                "nonlinear_per_step": tally.per_step.nonlinear,
                "ancilla_phase_per_step": tally.per_step.ancilla_phase,
                "basic_per_step": tally.basic_per_step,
                "mcx_total": tally.mcx_count,
                "nonlinear_total": tally.nonlinear_count,
                "basic_total": tally.basic_gate_count,
            }
        )
    report = {"n_steps": n_steps, "basic_c": basic_c, "rows": rows}
    if instrument:
        # execute a dense compiled step at the smallest size, count the
        # primitive calls it makes and check them against the closed form
        n = n_min
        rng = np.random.default_rng(0)
        dim = 2**n
        mat = rng.normal(size=(dim, dim))
        f = CouplingMatrix.from_dense((mat + mat.T) / 2.0)
        counts = instrumented_counts(nlcompiler.compile_w(f, 0.1), statevec.uniform_state(n))
        expected = nlcompiler.estimate_resources(n, 1, basic_c=basic_c).per_step
        report["instrumented"] = {
            "n": n,
            "measured": {
                "mcx": counts.mcx,
                "nonlinear": counts.nonlinear,
                "ancilla_phase": counts.ancilla_phase,
            },
            "matches_closed_form": counts == expected,
        }
    os.makedirs(out_dir, exist_ok=True)
    _write_json(os.path.join(out_dir, "resources.json"), report)
    _write_csv(os.path.join(out_dir, "resources.csv"), rows, rows[0].keys())
    return report


def run_bec(
    out_dir: str,
    grid_points: int,
    weight: float,
    g11: float,
    g22: float,
    g12: float,
    t: float,
    dt: float,
    sweep: int,
) -> dict:
    from . import oracle

    if grid_points < 2 or grid_points & (grid_points - 1):
        raise ConfigError(f"grid-points must be a power of two >= 2, got {grid_points}")
    _integer("grid-points", grid_points, upper=BEC_MAX_GRID_POINTS)
    for name, value in (("weight", weight), ("g11", g11), ("g22", g22), ("g12", g12),
                        ("t", t), ("dt", dt)):
        _real(name, value)
    if not 0 <= weight <= 1:
        raise ConfigError(f"weight must be in [0, 1], got {weight}")
    if t < 0:
        raise ConfigError(f"t must be >= 0, got {t}")
    if not dt > 0:
        raise ConfigError(f"dt must be positive, got {dt}")
    _integer("sweep", sweep, 1, BEC_MAX_SWEEP)
    if not t / dt <= sys.float_info.max:
        raise ConfigError(f"the step count t / dt overflows: t {t!r}, dt {dt!r}")
    _check_step_cap(sweep * oracle.step_count(t, dt), f"bec ({sweep} coupling scale(s))")
    grid = GridSpec(points=(grid_points,), dx=20.0 / grid_points, x0=-10.0)
    x = grid.coords(0)
    trap = 0.5 * x**2
    ground = oracle.ground_state(trap, grid)
    rows = []
    for i in range(sweep):
        scale = 1.0 / 2**i
        state = oracle.TwoModeState(
            phi1=ground.state,
            phi2=ground.state,
            alpha=complex(np.sqrt(weight)),
            beta=complex(np.sqrt(1.0 - weight)),
            g11=g11 * scale,
            g22=g22 * scale,
            g12=g12 * scale,
            V=trap,
        )
        check = oracle.bec_phase_check(state, t, dt)
        rows.append(
            {
                "coupling_scale": scale,
                "measured_relative": check.measured_relative,
                "predicted_relative": check.predicted_relative,
                "deviation": check.deviation,
            }
        )
    report = {
        "trap": "harmonic, unit frequency",
        "weight": weight,
        "g11": g11,
        "g22": g22,
        "g12": g12,
        "t": t,
        "dt": dt,
        "rows": rows,
    }
    os.makedirs(out_dir, exist_ok=True)
    _write_json(os.path.join(out_dir, "bec.json"), report)
    _write_csv(os.path.join(out_dir, "bec.csv"), rows, rows[0].keys())
    return report


def _apply_overrides(cfg: ExperimentConfig, args) -> ExperimentConfig:
    updates = {}
    if args.eps is not None:
        updates["eps"] = args.eps
    if args.steps is not None:
        updates["t"] = args.steps * updates.get("eps", cfg.eps)
    if args.mode is not None:
        updates["mode"] = args.mode
    # overrides re-enter the one config boundary, against the same directory
    return config_from_dict({**config_to_dict(cfg), **updates}, cfg.base_dir) if updates else cfg


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors raise ConfigError, so that main
    reports them as one line like every other failure (subcommand parsers
    are built from the same class)."""

    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="nlqsim",
        description="nonlinear-ancilla simulator and verification harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", required=True, help="experiment config JSON")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--eps", type=float, default=None, help="override step size")
        p.add_argument("--steps", type=int, default=None,
                       help="override step count (sets t = steps * eps)")
        p.add_argument("--mode", choices=evolution.MODES, default=None)

    add_common(sub.add_parser("simulate", help="run the gate-level evolution"))
    p_cmp = sub.add_parser("compare", help="gate-level run vs classical reference")
    add_common(p_cmp)
    p_cmp.add_argument("--halvings", type=int, default=0,
                       help="extra runs at eps/2, eps/4, ... with ratio table; rows "
                            "share one fourth-order reference, continued through "
                            "their final times, at the finest row's eps unless "
                            "oracle_dt is set")

    p_res = sub.add_parser("resources", help="gate-count table")
    p_res.add_argument("--n-min", type=int, default=1)
    p_res.add_argument("--n-max", type=int, default=6)
    p_res.add_argument("--steps", type=int, default=1)
    p_res.add_argument("--basic-c", type=int, default=1,
                       help="basic gates per controlled flip = c * n^2")
    p_res.add_argument("--instrument", action="store_true",
                       help="cross-check counts by executing a compiled step")
    p_res.add_argument("--out", default=".")

    p_bec = sub.add_parser("bec", help="two-mode condensate phase-map sweep")
    p_bec.add_argument("--out", default=".")
    p_bec.add_argument("--grid-points", type=int, default=128)
    p_bec.add_argument("--weight", type=float, default=0.36,
                       help="|alpha|^2 of the first mode")
    p_bec.add_argument("--g11", type=float, default=1.0)
    p_bec.add_argument("--g22", type=float, default=1.0)
    p_bec.add_argument("--g12", type=float, default=0.5)
    p_bec.add_argument("--t", type=float, default=0.1)
    p_bec.add_argument("--dt", type=float, default=1e-4)
    p_bec.add_argument("--sweep", type=int, default=3)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        _check_out_dir(args.out)
        # non-finite results are checked and reported, so numpy stays quiet
        with np.errstate(all="ignore"):
            if args.command == "simulate":
                cfg = _apply_overrides(load_config(args.config), args)
                run_simulate(cfg, args.out)
            elif args.command == "compare":
                cfg = _apply_overrides(load_config(args.config), args)
                run_compare(cfg, args.out, halvings=args.halvings)
            elif args.command == "resources":
                run_resources(
                    args.n_min, args.n_max, args.steps, args.basic_c,
                    args.out, instrument=args.instrument,
                )
            elif args.command == "bec":
                run_bec(
                    args.out,
                    grid_points=args.grid_points,
                    weight=args.weight,
                    g11=args.g11, g22=args.g22, g12=args.g12,
                    t=args.t, dt=args.dt, sweep=args.sweep,
                )
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (SimulationError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"out of memory: {str(exc) or 'an allocation failed'}", file=sys.stderr)
        return 1
    except OSError as exc:  # readers raise ConfigError; this is a failed write
        print(f"cannot write outputs: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

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
accepts only its dataclass's fields (kernel keys per form, in KernelSpec),
reals must be finite JSON numbers and integers JSON integers within their
bounds. The --eps/--steps/--mode overrides re-enter config_from_dict.

Exit codes: 0 success, 1 numerical failure or an allocation that failed, 2
usage or config error, each failure reported as one stderr line, never a
traceback.
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

from . import evolution, nlcompiler, oracle, problems, statevec
from .evolution import KineticSpec, SimulationError
from .nlcompiler import CouplingMatrix
from .oracle import FieldState, TwoModeState
from .problems import GridSpec, KernelSpec

PROBLEMS = ("hartree", "gross-pitaevskii", "navier-stokes", "custom-f")
PRESETS = ("gaussian", "uniform", "basis", "plane-wave", "file")

#: default kinetic prefactor per problem (second-derivative convention)
DEFAULT_CT = {
    "hartree": 1.0,
    "gross-pitaevskii": 0.5,
    "navier-stokes": 0.5,
    "custom-f": 1.0,
}


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

    @property
    def kinetic_prefactor(self) -> float:
        return DEFAULT_CT[self.problem] if self.c_T is None else self.c_T

    def oracle_step(self, eps: float) -> float:
        """Reference step for a run of step eps: oracle_dt if set, else a
        twentieth of eps, so the reference error is negligible against the
        first-order step error."""
        return eps / 20.0 if self.oracle_dt is None else self.oracle_dt


def config_to_dict(cfg: ExperimentConfig) -> dict:
    """The JSON object that config_from_dict reads back to cfg (None fields left out)."""
    out = asdict(cfg, dict_factory=lambda kv: {k: v for k, v in kv if v is not None})
    if cfg.kernel is not None:
        out["kernel"] = cfg.kernel.to_json_dict()
    return out


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


def _integer(key: str, value, lower: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    if lower is not None and value < lower:
        raise ConfigError(f"{key} must be >= {lower}, got {value}")
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
_CONFIG = {
    "problem": partial(_string, choices=PROBLEMS),
    "grid": partial(_parse, cls=GridSpec, parsers=_GRID),
    "initial_state": partial(_parse, cls=InitialStateSpec, parsers=_INITIAL_STATE),
    "kernel": lambda key, d: KernelSpec.from_json_dict(d),
    "coupling_csv": _string, "mode": partial(_string, choices=evolution.MODES),
    "record_stride": partial(_integer, lower=0), "basic_c": partial(_integer, lower=1),
    **dict.fromkeys(("t", "eps", "g", "rho0", "c_T", "oracle_dt"), _real),
}


def config_from_dict(d: dict, base_dir: str = ".") -> ExperimentConfig:
    """The one reader of a simulate/compare config. Unknown keys, wrong JSON
    types, non-finite reals and out-of-range values raise ConfigError.
    Top-level reals become floats; initial-state values are kept as given.
    Referenced files are resolved against base_dir and must exist."""
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

    # referenced files are resolved against the config location and must
    # exist at load time
    def resolve(ref):
        if ref is None:
            return None
        path = os.path.join(base_dir, ref)  # an absolute ref stays as it is
        if not os.path.exists(path):
            raise ConfigError(f"referenced file does not exist: {ref}")
        return path

    state = replace(cfg.initial_state, path=resolve(cfg.initial_state.path))
    return replace(cfg, coupling_csv=resolve(cfg.coupling_csv), initial_state=state)


def _check_step_counts(cfg: ExperimentConfig, eps: float, name: str = "eps") -> None:
    """Refuse a run at step eps whose gate-path or reference step count,
    t/eps or t/oracle_step(eps), overflows a float: its integer step count
    would not exist."""
    ref = "oracle_dt" if cfg.oracle_dt is not None else f"{name}/20"
    for label, step in ((name, eps), (ref, cfg.oracle_step(eps))):
        if not (step > 0 and cfg.t / step <= sys.float_info.max):
            raise ConfigError(
                f"the step count t / ({label}) overflows: t {cfg.t!r}, {label} = {step!r}"
            )


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
    path = cfg.coupling_csv
    return problems.coupling_from_triplet_csv(path, cfg.grid.size)


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
    state = oracle.field_from_csv(spec.path, grid)
    return state.to_amplitudes()


def build_oracle_potential(cfg: ExperimentConfig):
    """Reference-solver potential rule, built from the config and never from
    the gate path's coupling: kernel convolution for hartree, pointwise g*rho
    for gross-pitaevskii, the rolled-grid Laplacian for navier-stokes, and
    for custom-f the oracle's own read of the triplet CSV."""
    if cfg.problem == "hartree":
        return oracle.kernel_potential(cfg.kernel, cfg.grid)
    if cfg.problem == "gross-pitaevskii":
        return oracle.kernel_potential(KernelSpec.contact(cfg.g), cfg.grid)
    if cfg.problem == "navier-stokes":
        return oracle.laplacian_potential(cfg.rho0, cfg.grid)
    return oracle.coupling_potential(cfg.coupling_csv, cfg.grid)


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def run_simulate(cfg: ExperimentConfig, out_dir: str) -> dict:
    f, r0 = build_problem(cfg)
    spec = KineticSpec(cfg.kinetic_prefactor, cfg.grid)
    stride = cfg.record_stride
    result = evolution.evolve(
        r0, f, spec, cfg.t, cfg.eps,
        mode=cfg.mode, record_stride=stride, basic_c=cfg.basic_c,
    )
    if not result.snapshots:
        result.snapshots = [
            evolution.Snapshot(0, 0.0, r0.amps.copy()),
            evolution.Snapshot(
                result.tally.n_steps, result.tally.n_steps * cfg.eps,
                result.final.amps.copy(),
            ),
        ]
    os.makedirs(out_dir, exist_ok=True)
    traj_path = os.path.join(out_dir, "trajectory.csv")
    evolution.write_trajectory_csv(traj_path, result.snapshots)
    summary = evolution.summary_dict(
        result, cfg.grid, f, cfg.kinetic_prefactor,
        extra={"config": config_to_dict(cfg)},
    )
    _write_json(os.path.join(out_dir, "summary.json"), summary)
    return summary


def run_compare(cfg: ExperimentConfig, out_dir: str, halvings: int = 0) -> dict:
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
    f, r0 = build_problem(cfg)
    spec = KineticSpec(cfg.kinetic_prefactor, cfg.grid)
    rule = build_oracle_potential(cfg)
    phi0 = FieldState.from_amplitudes(r0.ancilla0.copy(), cfg.grid)

    def one_comparison(eps: float) -> dict:
        n_steps = evolution.n_steps_for(cfg.t, eps)
        t_run = n_steps * eps  # both paths integrate to the same final time
        result = evolution.evolve(r0, f, spec, t_run, eps, mode=cfg.mode)
        ref = oracle.split_step_solve(
            phi0, rule, cfg.kinetic_prefactor, t_run, cfg.oracle_step(eps)
        )
        ref_amps = ref.to_amplitudes()
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

    rows = [one_comparison(eps) for eps in row_eps]
    for i in range(len(rows) - 1):
        nxt = rows[i + 1]
        rows[i]["l2_ratio"] = rows[i]["l2_error"] / nxt["l2_error"]
        rows[i]["infidelity_ratio"] = rows[i]["infidelity"] / nxt["infidelity"]
    report = {"config": config_to_dict(cfg), "comparisons": rows}
    os.makedirs(out_dir, exist_ok=True)
    _write_json(os.path.join(out_dir, "compare.json"), report)
    if halvings:
        with open(os.path.join(out_dir, "convergence.csv"), "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["eps", "n_steps", "infidelity", "l2_error", "l2_ratio"]
            )
            for row in rows:
                writer.writerow(
                    [
                        repr(row["eps"]),
                        row["n_steps"],
                        repr(row["infidelity"]),
                        repr(row["l2_error"]),
                        repr(row["l2_ratio"]) if "l2_ratio" in row else "",
                    ]
                )
    return report


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
    if n_steps < 0:
        raise ConfigError(f"steps must be >= 0, got {n_steps}")
    if basic_c < 1:
        raise ConfigError(f"basic-c must be >= 1, got {basic_c}")
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
        # execute a dense compiled step at the smallest size and check that
        # the measured counts reproduce the closed form exactly
        n = n_min
        rng = np.random.default_rng(0)
        dim = 2**n
        mat = rng.normal(size=(dim, dim))
        f = CouplingMatrix.from_dense((mat + mat.T) / 2.0)
        seq = nlcompiler.compile_w(f, 0.1)
        nlcompiler.execute(seq, statevec.uniform_state(n))
        counts = seq.counts()
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
    with open(os.path.join(out_dir, "resources.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(rows[0].keys())
        for row in rows:
            writer.writerow(row.values())
    return report


def run_bec(
    out_dir: str,
    grid_points: int = 128,
    weight: float = 0.36,
    g11: float = 1.0,
    g22: float = 1.0,
    g12: float = 0.5,
    t: float = 0.1,
    dt: float = 1e-4,
    sweep: int = 3,
) -> dict:
    if grid_points < 2 or grid_points & (grid_points - 1):
        raise ConfigError(f"grid-points must be a power of two >= 2, got {grid_points}")
    for name, value in (("weight", weight), ("g11", g11), ("g22", g22), ("g12", g12),
                        ("t", t), ("dt", dt)):
        _real(name, value)
    if not 0 <= weight <= 1:
        raise ConfigError(f"weight must be in [0, 1], got {weight}")
    if t < 0:
        raise ConfigError(f"t must be >= 0, got {t}")
    if not dt > 0:
        raise ConfigError(f"dt must be positive, got {dt}")
    if sweep < 1:
        raise ConfigError(f"sweep must be >= 1, got {sweep}")
    grid = GridSpec(points=(grid_points,), dx=20.0 / grid_points, x0=-10.0)
    x = grid.coords(0)
    trap = 0.5 * x**2
    ground = oracle.imaginary_time_ground_state(trap, 0.0, grid, c_T=0.5)
    rows = []
    for i in range(sweep):
        scale = 1.0 / 2**i
        state = TwoModeState(
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
    with open(os.path.join(out_dir, "bec.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["coupling_scale", "measured_relative", "predicted_relative", "deviation"])
        for row in rows:
            writer.writerow([repr(row[k]) for k in
                             ("coupling_scale", "measured_relative", "predicted_relative", "deviation")])
    return report


def _apply_overrides(cfg: ExperimentConfig, args) -> ExperimentConfig:
    updates = {}
    if args.eps is not None:
        updates["eps"] = args.eps
    if args.steps is not None:
        updates["t"] = args.steps * updates.get("eps", cfg.eps)
    if args.mode is not None:
        updates["mode"] = args.mode
    # overrides re-enter the one config boundary
    return config_from_dict({**config_to_dict(cfg), **updates}) if updates else cfg


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
                       help="extra runs at eps/2, eps/4, ... with ratio table")

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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
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
    return 0


if __name__ == "__main__":
    sys.exit(main())

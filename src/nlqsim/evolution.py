"""Alternating-step time evolution on the register.

One step of size eps applies the density-feedback potential diagonal first
(compiled gate blocks or the direct diagonal, selectable) and then the
kinetic propagator, diagonalized by the principal-index Fourier transform:

    U_eps = DFT^-1 . exp(-i*eps*c_T*p^2) . DFT

with the standard wrapped momentum ladder p_m = 2*pi*m/(M*dx) for
m <= M/2 and 2*pi*(m-M)/(M*dx) above (Nyquist assigned to -M/2; only p^2
enters, so the sign choice is immaterial). On 2-d grids each axis is
transformed and the ladders add.

The splitting is first order in eps by construction; halving eps halves the
state error against a converged reference. Gate counts for the potential
step are tallied exactly and must match the closed-form estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import nlcompiler, statevec
from .nlcompiler import CouplingMatrix, GateSequence, ResourceTally
from .problems import GridSpec
from .statevec import Register

#: final norm of an evolved state must stay this close to 1
NORM_DRIFT_TOL = 1e-10

MODES = ("compiled", "direct")


class SimulationError(RuntimeError):
    """Numerical failure (norm drift, non-finite amplitudes)."""


@dataclass(frozen=True)
class KineticSpec:
    """Kinetic term T = c_T * p^2 on a periodic grid.

    c_T = 1 matches i d/dt phi = -d^2/dx^2 phi + V phi; c_T = 1/2 matches the
    -(1/2) d^2/dx^2 convention used for condensate dynamics.
    """

    c_T: float
    grid: GridSpec
    _propagators: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not math.isfinite(self.c_T):
            raise ValueError("kinetic prefactor must be finite")

    def propagator(self, eps: float) -> np.ndarray:
        """Read-only factors exp(i * kinetic_phases(self, eps)), built once
        per step size, so a run exponentiates them once instead of every step."""
        factors = self._propagators.get(eps)
        if factors is None:
            factors = np.exp(1j * kinetic_phases(self, eps))
            if not np.isfinite(factors).all():
                raise SimulationError(f"non-finite kinetic phase at step {eps}; lower c_T or eps")
            factors.flags.writeable = False
            self._propagators[eps] = factors
        return factors

    def momentum_sq(self) -> np.ndarray:
        """p^2 per composite principal index (row-major over grid axes)."""
        axes = [
            2.0 * np.pi * np.fft.fftfreq(m, d=self.grid.dx) for m in self.grid.points
        ]
        if self.grid.dims == 1:
            return axes[0] ** 2
        p0, p1 = axes
        return ((p0**2)[:, None] + (p1**2)[None, :]).reshape(-1)


@dataclass(frozen=True)
class Snapshot:
    step: int
    time: float
    amps: np.ndarray


@dataclass
class EvolutionResult:
    final: Register
    tally: ResourceTally
    snapshots: list[Snapshot] = field(default_factory=list)
    norm_drift: float = 0.0


@dataclass(frozen=True)
class Observables:
    density: np.ndarray
    momentum_density: np.ndarray
    energy: float


def n_steps_for(t: float, eps: float) -> int:
    """floor(t/eps) with a guard against floating-point shortfall."""
    if t < 0:
        raise ValueError(f"time must be >= 0, got {t}")
    if not eps > 0:
        raise ValueError(f"step size must be positive, got {eps}")
    return int(math.floor(t / eps + 1e-9))


def kinetic_phases(spec: KineticSpec, eps: float) -> np.ndarray:
    """Diagonal momentum-space phases -eps * c_T * p_m^2 (flat, row-major)."""
    return -eps * spec.c_T * spec.momentum_sq()


def apply_kinetic(r: Register, spec: KineticSpec, eps: float) -> Register:
    """Kinetic propagator: transform, apply dispersion phases, transform back."""
    shape = spec.grid.points
    statevec.dft_principal(r, inverse=False, axes_shape=shape)
    statevec.apply_principal_factors(r, spec.propagator(eps))
    statevec.dft_principal(r, inverse=True, axes_shape=shape)
    return r


def trotter_step(
    r: Register,
    f: CouplingMatrix,
    spec: KineticSpec,
    eps: float,
    sequence: GateSequence | None = None,
) -> Register:
    """One step: potential diagonal, then kinetic.

    The potential step executes the compiled sequence when one is given (it
    must match (f, eps)) and applies the direct diagonal otherwise. The
    ancilla is clean again after the step.
    """
    if sequence is None:
        nlcompiler.apply_w_direct(r, f, eps)
    else:
        nlcompiler.execute(sequence, r)
    return apply_kinetic(r, spec, eps)


def evolve(
    r0: Register,
    f: CouplingMatrix,
    spec: KineticSpec,
    t: float,
    eps: float,
    mode: str = "direct",
    record_stride: int = 0,
    basic_c: int = 1,
) -> EvolutionResult:
    """Run n = floor(t/eps) steps from r0; r0 itself is left untouched.

    With record_stride > 0, snapshots are taken at step 0, every
    record_stride steps, and at the end; record_stride = 0 records none at
    all (the `simulate` command then writes the first and last states). The
    tally is the closed form on the schedule's nonzero angles, the gates a
    compiled step executes; direct mode counts them without building the
    gate list.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    n_steps = n_steps_for(t, eps)
    r = r0.copy()
    try:
        sparsity = nlcompiler.gammas_from_coupling(f, eps).sparsity()
    except ValueError as exc:  # eps * f overflows: a non-finite rotation angle
        raise SimulationError(str(exc)) from exc
    tally = nlcompiler.estimate_resources(r.n, n_steps, *sparsity, basic_c=basic_c)
    sequence = nlcompiler.compile_w(f, eps) if mode == "compiled" else None
    snapshots: list[Snapshot] = []

    def record(step: int):
        snapshots.append(Snapshot(step, step * eps, r.amps.copy()))

    if record_stride > 0:
        record(0)
    for step in range(1, n_steps + 1):
        trotter_step(r, f, spec, eps, sequence)
        if record_stride > 0 and (step % record_stride == 0 or step == n_steps):
            record(step)
    drift = abs(r.norm() - 1.0)
    if not np.isfinite(drift) or drift > NORM_DRIFT_TOL:
        raise SimulationError(
            f"norm drifted by {drift:.3e} after {n_steps} steps"
        )
    return EvolutionResult(final=r, tally=tally, snapshots=snapshots, norm_drift=drift)


def observables(
    r: Register, grid: GridSpec, f: CouplingMatrix, c_T: float = 1.0
) -> Observables:
    """Density, momentum density and the conserved energy functional.

    energy = sum_m c_T*p_m^2*|a~_m|^2 + (1/2)*sum_kj f_kj*|a_k|^2*|a_j|^2;
    the 1/2 makes the quadratic-potential energy the conserved quantity of
    the density-feedback flow. Exact conservation holds for the continuous
    dynamics; the stepped evolution drifts proportionally to eps.
    """
    dens = r.principal_probabilities()
    work = r.copy()
    statevec.dft_principal(work, inverse=False, axes_shape=grid.points)
    mom_dens = work.principal_probabilities()
    spec = KineticSpec(c_T, grid)
    kinetic = float(np.sum(spec.momentum_sq() * mom_dens))
    interaction = 0.5 * float(dens @ f.potential(dens))
    return Observables(density=dens, momentum_density=mom_dens, energy=kinetic + interaction)


def write_trajectory_csv(path, snapshots: list[Snapshot]):
    """Write snapshots as rows (step, time, k, re, im).

    The bytes are those of a default ``csv.writer`` with every float written
    as its repr: comma-separated, CRLF-terminated, no quoting (no field can
    contain a comma, quote or line break). Each snapshot is one write.
    """
    with open(path, "w", newline="") as fh:
        fh.write("step,time,k,re,im\r\n")
        for snap in snapshots:
            lead = f"{snap.step},{snap.time!r},"
            # snapshots are taken at step boundaries, where the ancilla is
            # clean, so the ancilla-|0> branch is the whole field
            a0 = snap.amps[0::2]
            rows = [
                f"{lead}{k},{re!r},{im!r}\r\n"
                for k, (re, im) in enumerate(zip(a0.real.tolist(), a0.imag.tolist()))
            ]
            fh.write("".join(rows))


def summary_dict(
    result: EvolutionResult,
    grid: GridSpec,
    f: CouplingMatrix,
    c_T: float,
    extra: dict | None = None,
) -> dict:
    """Machine-readable run summary (deterministic float formatting)."""
    obs = observables(result.final, grid, f, c_T)
    out = {
        "final_energy": obs.energy,
        "norm_drift": result.norm_drift,
        "tally": result.tally.as_dict(),
        "n_snapshots": len(result.snapshots),
    }
    if extra:
        out.update(extra)
    return out


"""Alternating-step time evolution of the principal vector.

The run state is the normalized principal vector (`statevec`). The ancilla
exists only in compiled mode, in the register the gate interpreter runs on,
whose ancilla-|0> branch is the vector. One step of size eps applies the
density-feedback potential diagonal first (compiled gate blocks or the
direct diagonal, selectable) and then the kinetic propagator, diagonalized
by the principal-index Fourier transform:

    U_eps = DFT^-1 . exp(-i*eps*c_T*p^2) . DFT

with the standard wrapped momentum ladder p_m = 2*pi*m/(M*dx) for
m <= M/2 and 2*pi*(m-M)/(M*dx) above (Nyquist assigned to -M/2; only p^2
enters, so the sign choice is immaterial). On 2-d grids each axis is
transformed and the ladders add, so U_eps is also the product over the axes
of the circulant unitaries U_a = DFT^-1 . exp(-i*eps*c_T*p_a^2) . DFT.
`KineticSpec.operator(eps)` builds one of the two forms, once per step
size: grids whose axis lengths sum to at most KINETIC_MATRIX_MAX_POINTS get
those per-axis matrices (applied by `statevec.apply_principal_axes`),
larger grids the factors exp(-i*eps*c_T*p^2), applied between a transform
(`statevec.dft_principal`) and its inverse.

The splitting is first order in eps by construction; halving eps halves the
state error against a converged reference. Gate counts for the potential
step are tallied exactly and must match the closed-form estimate.

`write_trajectory_csv` exports the recorded snapshots; its time goes to
float repr.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import nlcompiler, statevec
from .nlcompiler import CouplingMatrix, GateSequence, ResourceTally
from .problems import GridSpec

#: final norm of an evolved state must stay this close to 1
NORM_DRIFT_TOL = 1e-10

MODES = ("compiled", "direct")

#: grids whose axis lengths sum to at most this apply the kinetic step as one
#: precomputed unitary per axis: up to there a matrix product beats the fixed
#: costs of two transforms (sweep in BENCH_12.json), and the matrices take at
#: most 1 MiB
KINETIC_MATRIX_MAX_POINTS = 256


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
    _operator: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not math.isfinite(self.c_T):
            raise ValueError("kinetic prefactor must be finite")

    def operator(self, eps: float) -> tuple[np.ndarray, ...] | np.ndarray:
        """The kinetic step of size eps, read-only and built on first use: a
        tuple of per-axis unitaries (`axis_unitary`) when the axis lengths sum
        to at most KINETIC_MATRIX_MAX_POINTS, else the flat factors
        exp(i * kinetic_phases(self, eps)). Only the latest step size is
        kept: a run steps at one eps, and each row of a step-halving
        comparison at its own."""
        op = self._operator.get(eps)
        if op is None:
            if sum(self.grid.points) <= KINETIC_MATRIX_MAX_POINTS:
                op = tuple(axis_unitary(p_sq, self.c_T, eps) for p_sq in self.axis_momentum_sq())
            else:
                op = _unit_factors(kinetic_phases(self, eps), eps)
                op.flags.writeable = False
            self._operator.clear()
            self._operator[eps] = op
        return op

    def axis_momentum_sq(self) -> list[np.ndarray]:
        """p_a^2 on each grid axis, over the wrapped ladder of that axis."""
        return [
            (2.0 * np.pi * np.fft.fftfreq(m, d=self.grid.dx)) ** 2 for m in self.grid.points
        ]

    def momentum_sq(self) -> np.ndarray:
        """p^2 per composite principal index (row-major over grid axes)."""
        sq = self.axis_momentum_sq()
        if self.grid.dims == 1:
            return sq[0]
        return (sq[0][:, None] + sq[1][None, :]).reshape(-1)


@dataclass(frozen=True)
class Snapshot:
    """A copy of the principal vector after a step."""

    step: int
    time: float
    amps: np.ndarray


@dataclass
class EvolutionResult:
    final: np.ndarray
    tally: ResourceTally
    snapshots: list[Snapshot] = field(default_factory=list)
    norm_drift: float = 0.0


@dataclass(frozen=True)
class Observables:
    density: np.ndarray
    momentum_density: np.ndarray
    energy: float


def n_steps_for(t: float, eps: float) -> int:
    """floor(t/eps) with a guard against floating-point shortfall.

    A t written as n * eps reads back as t/eps a few ulps off n, below n as
    often as above, so a quotient within 1e-9 plus four ulps of its nearest
    integer counts as that integer. The relative part keeps large counts
    exact, and rounds up only a quotient that close to an integer.
    """
    if t < 0:
        raise ValueError(f"time must be >= 0, got {t}")
    if not eps > 0:
        raise ValueError(f"step size must be positive, got {eps}")
    q = t / eps
    n = round(q)
    return n if abs(q - n) <= 1e-9 + 4 * q * 2**-52 else math.floor(q)


def kinetic_phases(spec: KineticSpec, eps: float) -> np.ndarray:
    """Diagonal momentum-space phases -eps * c_T * p_m^2 (flat, row-major)."""
    return -eps * spec.c_T * spec.momentum_sq()


def _unit_factors(phases: np.ndarray, eps: float) -> np.ndarray:
    """exp(i * phases); a phase that overflowed gives a NaN factor, refused here."""
    factors = np.exp(1j * phases)
    if not np.isfinite(factors).all():
        raise SimulationError(
            f"non-finite kinetic phase for step size eps = {eps}; lower c_T or eps"
        )
    return factors


def axis_unitary(p_sq: np.ndarray, c_T: float, eps: float) -> np.ndarray:
    """Read-only circulant U = DFT^-1 . diag(exp(-i*eps*c_T*p_sq)) . DFT on
    one periodic axis: its first column is the inverse DFT of the phase
    factors, and U[j, k] = column[(j - k) mod M]."""
    column = np.fft.ifft(_unit_factors(-eps * c_T * p_sq, eps))
    m = column.size
    u = column[(np.arange(m)[:, None] - np.arange(m)) % m]
    u.flags.writeable = False
    return u


def apply_kinetic(psi: np.ndarray, spec: KineticSpec, eps: float) -> np.ndarray:
    """Kinetic propagator exp(-i*eps*c_T*p^2), in place on the principal
    vector psi, in the form `spec.operator` built for the grid: per-axis
    unitaries multiply along their axes; flat factors multiply between a
    transform and its inverse.
    """
    op = spec.operator(eps)
    if isinstance(op, tuple):
        return statevec.apply_principal_axes(psi, op)
    shape = spec.grid.points
    statevec.dft_principal(psi, inverse=False, axes_shape=shape)
    statevec.apply_principal_factors(psi, op)
    statevec.dft_principal(psi, inverse=True, axes_shape=shape)
    return psi


def trotter_step(
    psi: np.ndarray,
    f: CouplingMatrix,
    spec: KineticSpec,
    eps: float,
    sequence: GateSequence | None = None,
    register: statevec.Register | None = None,
) -> np.ndarray:
    """One step on the principal vector psi, in place: potential diagonal,
    then kinetic.

    The potential step applies the direct diagonal, or, given a compiled
    sequence (it must match (f, eps)), executes it gate by gate on
    `register`, whose ancilla-|0> branch must be psi.
    """
    if sequence is None:
        nlcompiler.apply_w_direct(psi, f, eps)
    else:
        nlcompiler.execute(sequence, register)
    return apply_kinetic(psi, spec, eps)


def evolve(
    psi0: np.ndarray,
    f: CouplingMatrix,
    spec: KineticSpec,
    n_steps: int,
    eps: float,
    mode: str = "direct",
    record_stride: int = 0,
    basic_c: int = 1,
) -> EvolutionResult:
    """Run n_steps steps of size eps from the principal vector psi0, which
    is left untouched.

    With record_stride > 0, snapshots are taken at step 0, every
    record_stride steps, and at the end (a stride of at least n_steps
    records the first and last states only); record_stride = 0 records
    none. The tally is the closed form on the schedule's nonzero angles,
    the gates a compiled step executes; direct mode counts them without
    building the gate list. Compiled mode keeps the vector as the
    ancilla-|0> branch of the register the gates run on, so weight a block
    leaves in the ancilla-|1> branch is missing from the vector's final
    norm.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    try:
        sparsity = nlcompiler.gammas_from_coupling(f, eps).sparsity()
    except ValueError as exc:  # eps * f overflows: a non-finite rotation angle
        raise SimulationError(str(exc)) from exc
    tally = nlcompiler.estimate_resources(f.n_qubits, n_steps, *sparsity, basic_c=basic_c)
    if mode == "compiled":
        sequence = nlcompiler.compile_w(f, eps)
        register = statevec.clean_register(psi0)
        psi = register.ancilla0
    else:
        sequence = register = None
        psi = np.array(psi0, dtype=np.complex128)
    snapshots: list[Snapshot] = []

    def record(step: int):
        snapshots.append(Snapshot(step, step * eps, psi.copy()))

    if record_stride > 0:
        record(0)
    for step in range(1, n_steps + 1):
        trotter_step(psi, f, spec, eps, sequence, register)
        if record_stride > 0 and (step % record_stride == 0 or step == n_steps):
            record(step)
    drift = abs(float(np.linalg.norm(psi)) - 1.0)
    if not np.isfinite(drift) or drift > NORM_DRIFT_TOL:
        raise SimulationError(
            f"norm drifted by {drift:.3e} after {n_steps} steps"
        )
    return EvolutionResult(final=psi, tally=tally, snapshots=snapshots, norm_drift=drift)


def observables(psi: np.ndarray, spec: KineticSpec, f: CouplingMatrix) -> Observables:
    """Density, momentum density and the conserved energy functional of the
    principal vector psi.

    energy = sum_m c_T*p_m^2*|a~_m|^2 + (1/2)*sum_kj f_kj*|a_k|^2*|a_j|^2;
    the 1/2 makes the quadratic-potential energy the conserved quantity of
    the density-feedback flow. Exact conservation holds for the continuous
    dynamics; the stepped evolution drifts proportionally to eps.
    """
    dens = np.abs(psi) ** 2
    momentum = statevec.dft_principal(psi.copy(), inverse=False, axes_shape=spec.grid.points)
    mom_dens = np.abs(momentum) ** 2
    kinetic = spec.c_T * float(np.sum(spec.momentum_sq() * mom_dens))
    interaction = 0.5 * float(dens @ f.potential(dens))
    return Observables(density=dens, momentum_density=mom_dens, energy=kinetic + interaction)


def write_trajectory_csv(path, snapshots: list[Snapshot]):
    """Write snapshots as rows (step, time, k, re, im).

    The bytes are those of a default ``csv.writer`` with every float written
    as its repr: comma-separated, CRLF-terminated, no quoting (no field can
    contain a comma, quote or line break). `path` is opened once and the
    rows are streamed snapshot by snapshot, so at most one snapshot's text
    is held at a time.
    """
    with open(path, "w", newline="") as fh:
        fh.write("step,time,k,re,im\r\n")
        for snap in snapshots:
            fh.write(_snapshot_rows(snap))


def _snapshot_rows(snap: Snapshot) -> str:
    """The CSV rows of one snapshot: one %-format of the cached template
    for its length over (lead, re, im) per row."""
    a = snap.amps
    values = [f"{snap.step},{snap.time!r},"] * (3 * a.size)
    values[1::3] = a.real.tolist()
    values[2::3] = a.imag.tolist()
    return _row_template(a.size) % tuple(values)


@functools.lru_cache(maxsize=8)
def _row_template(n: int) -> str:
    """'%s0,%r,%r\r\n%s1,%r,%r\r\n...' up to k = n - 1."""
    return "".join(f"%s{k},%r,%r\r\n" for k in range(n))


def summary_dict(
    result: EvolutionResult, spec: KineticSpec, f: CouplingMatrix, extra: dict | None = None
) -> dict:
    """Machine-readable run summary (deterministic float formatting)."""
    obs = observables(result.final, spec, f)
    out = {
        "final_energy": obs.energy,
        "norm_drift": result.norm_drift,
        "tally": result.tally.as_dict(),
        "n_snapshots": len(result.snapshots),
    }
    if extra:
        out.update(extra)
    return out


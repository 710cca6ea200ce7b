"""Helpers that only the tests use: reference constructions and comparisons
built on the nlqsim modules, kept out of the package because no program
path calls them.

  basis_state, overlap, fidelity, global_phase_aligned - registers
  tensor_square - the doubled register of products a_j * a_k
  MadelungFields, madelung_fields - hydrodynamic fields of a register
  coupling_to_triplet_csv - writes a coupling as the triplet CSV that
      `problems.coupling_from_triplet_csv` reads
  radial_kernel - an analytic kernel at given distances, from its fields
  dense_hartree - the Hartree coupling filled pair by pair as a dense array
  convergence_ratios - step-halving ratios of the split-step reference
  fake_cpus - a CPU count for the trajectory writer, recording its forks
  leak_norm - a kinetic step that also scales the register, so norm drifts
  zero_coupling - the coupling with no entries
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from nlqsim import evolution, statevec
from nlqsim.nlcompiler import CouplingMatrix
from nlqsim.oracle import STRANG, FieldState, PotentialRule, Row, split_step_solve
from nlqsim.problems import GridSpec, KernelSpec
from nlqsim.statevec import Register, init_from_amplitudes


def basis_state(n: int, k: int) -> Register:
    """Register prepared in principal basis state |k> with clean ancilla."""
    a = np.zeros(2**n, dtype=np.complex128)
    a[k] = 1.0
    return init_from_amplitudes(a)


def overlap(r1: Register, r2: Register) -> complex:
    """Inner product <r1|r2> over the full (n+1)-qubit amplitude vectors."""
    if r1.n != r2.n:
        raise ValueError(f"size mismatch: {r1.n} vs {r2.n} principal qubits")
    return complex(np.vdot(r1.amps, r2.amps))


def fidelity(r1: Register, r2: Register) -> float:
    """|<r1|r2>|, which is 1 exactly when the states agree up to global phase."""
    return abs(overlap(r1, r2))


def global_phase_aligned(reference: Register, r: Register) -> np.ndarray:
    """Copy of r's amplitudes rotated to best match the reference's phase.

    Returns r.amps * exp(i*chi) with chi chosen to maximize the real part of
    the overlap with the reference, so amplitude-wise comparisons ignore the
    (physically meaningless) global phase.
    """
    ov = overlap(reference, r)
    if ov == 0:
        return r.amps.copy()
    return r.amps * (abs(ov) / ov)


def tensor_square(r: Register, max_result_qubits: int = 24) -> Register:
    """Register whose principal amplitudes are all products a_j * a_k.

    The output principal index is (j, k) row-major over two copies of the
    input index, so a single application of the potential step on the doubled
    register produces phases containing |a_j|^2 * |a_k|^2 terms (one route to
    higher-than-quadratic density dependence). Requires a clean ancilla.
    """
    if not r.ancilla_is_clean():
        raise ValueError("ancilla not clean")
    n2 = 2 * r.n
    if n2 + 1 > max_result_qubits:
        raise ValueError(
            f"result would need {n2 + 1} qubits, above the bound {max_result_qubits}"
        )
    a = r.ancilla0
    doubled = np.outer(a, a).reshape(-1)
    return statevec.init_from_amplitudes(doubled)


@dataclass(frozen=True)
class MadelungFields:
    """Hydrodynamic fields extracted from a register on a grid.

    rho is the physical density (sums to 1 against the cell volume); u holds
    one velocity component per axis, NaN where the density is below the
    floor; defined marks the sites where u is meaningful.
    """

    rho: np.ndarray
    u: np.ndarray
    defined: np.ndarray


def madelung_fields(r: Register, grid: GridSpec) -> MadelungFields:
    """Density and velocity fields of a clean-ancilla register.

    The velocity is computed from the discrete probability current divided by
    the density (central differences, periodic), which avoids phase
    unwrapping: u = -Im(conj(a) * D a) / |a|^2 per axis. Under the polar
    ansatz a = sqrt(rho) * exp(-i*theta) this equals the phase gradient
    grad(theta); a plane wave exp(-i*kappa*x) on uniform density gives
    u = sin(kappa*dx)/dx, i.e. kappa up to second-order discretization error.
    Sites with physical density below 1e-8 / dx**dims get u = NaN and are
    flagged as undefined rather than raising.
    """
    if grid.size != r.num_states:
        raise ValueError(f"grid has {grid.size} sites, register {r.num_states} states")
    if not r.ancilla_is_clean():
        raise ValueError("ancilla not clean")
    a = r.ancilla0.reshape(grid.points)
    mags = np.abs(a) ** 2
    rho = mags / grid.cell_volume
    floor = 1e-8 / grid.cell_volume
    defined = rho >= floor
    u = np.full((grid.dims, *grid.points), np.nan)
    for axis in range(grid.dims):
        deriv = (np.roll(a, -1, axis=axis) - np.roll(a, 1, axis=axis)) / (2.0 * grid.dx)
        current = -np.imag(np.conj(a) * deriv)
        u[axis][defined] = current[defined] / mags[defined]
    return MadelungFields(rho=rho, u=u, defined=defined)


def coupling_to_triplet_csv(f: CouplingMatrix, path) -> None:
    """Write the nonzero entries with k <= j as rows (k, j, value), in
    row-major order."""
    upper = f.rows <= f.cols
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "j", "f"])
        for k, j, v in zip(f.rows[upper].tolist(), f.cols[upper].tolist(),
                           f.vals[upper].tolist()):
            writer.writerow([k, j, repr(v)])


@lru_cache(maxsize=None)
def squared_separations(points: tuple[int, ...]) -> np.ndarray:
    """Squared minimal-image integer separation of every pair of sites on a
    periodic grid, one pair at a time; sites are flat row-major indices."""
    sites = [np.unravel_index(k, points) for k in range(np.prod(points))]
    sep = np.zeros((len(sites), len(sites)), dtype=np.int64)
    for k, at in enumerate(sites):
        for j, to in enumerate(sites):
            steps = (abs(int(a) - int(b)) for a, b in zip(at, to))
            sep[k, j] = sum(min(s, m - s) ** 2 for s, m in zip(steps, points))
    return sep


def radial_kernel(kernel: KernelSpec, r: np.ndarray) -> np.ndarray:
    """The constant or Gaussian kernel at distances r, written out from the
    spec's fields: c, or amplitude * exp(-r**2 / (2 sigma**2)). The
    arithmetic is the program's, so the couplings compare bit for bit."""
    if kernel.form == "constant":
        return np.full_like(r, kernel.c)
    if kernel.form == "gaussian":
        return kernel.amplitude * np.exp(-(r**2) / (2.0 * kernel.sigma**2))
    raise ValueError(f"no radial formula for the {kernel.form} kernel")


def dense_hartree(kernel: KernelSpec, grid: GridSpec) -> np.ndarray:
    """The Hartree coupling as a dense array, filled pair by pair: Phi at the
    minimal-image distance of the two sites. A tabulated kernel reads its table
    at the integer separation; the contact kernel puts g / dx**dims on the
    diagonal."""
    sep = squared_separations(grid.points)
    if kernel.form == "contact":
        return np.where(sep == 0, kernel.g / grid.cell_volume, 0.0)
    if kernel.form == "tabulated":
        return np.asarray(kernel.samples)[np.sqrt(sep).astype(np.int64)]
    return radial_kernel(kernel, np.sqrt(sep) * grid.dx)


def convergence_ratios(
    phi0: FieldState,
    potential: PotentialRule,
    c_T: float,
    t: float,
    dts: list[float],
    row: Row = STRANG,
) -> list[float]:
    """Successive-difference step-halving ratios for the split-step solver
    on the splitting row `row`, Strang by default.

    err_j = |phi(dt_j) - phi(dt_{j+1})| in the discrete 2-norm; the ratio
    err_j / err_{j+1} approaches 4 for a second-order row such as Strang and
    16 for a fourth-order one such as BLANES_MOAN4.
    """
    finals = [
        split_step_solve(phi0, potential, c_T, t, dt, row=row).values.reshape(-1)
        for dt in dts
    ]
    errs = [
        float(np.linalg.norm(finals[i] - finals[i + 1]))
        for i in range(len(finals) - 1)
    ]
    return [errs[i] / errs[i + 1] for i in range(len(errs) - 1)]


def fake_cpus(monkeypatch, count: int) -> list[int]:
    """Make `os.sched_getaffinity` report `count` CPUs and wrap `os.fork`;
    the returned list gets the pid of every process that forks."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)
    calls = []
    fork = os.fork

    def recording():
        calls.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", recording)
    return calls


def leak_norm(monkeypatch, factor: float = 1 + 1e-9) -> None:
    """Make every kinetic step of `evolution` also scale the register by factor."""
    kinetic = evolution.apply_kinetic

    def leaky(r, spec, eps):
        kinetic(r, spec, eps)
        r.amps *= factor
        return r

    monkeypatch.setattr(evolution, "apply_kinetic", leaky)


def zero_coupling(dim: int) -> CouplingMatrix:
    """The dim x dim coupling with no entries."""
    empty = np.empty(0)
    return CouplingMatrix(dim, empty, empty, empty)

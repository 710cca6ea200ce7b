"""Helpers that only the tests use: reference constructions and comparisons
built on the nlqsim modules, kept out of the package because no program
path calls them.

  basis_state, overlap, fidelity, global_phase_aligned - state vectors
  tensor_square - the doubled principal vector of products a_j * a_k
  MadelungFields, madelung_fields - hydrodynamic fields of a principal vector
  coupling_to_triplet_csv - writes a coupling as the triplet CSV that
      `problems.coupling_from_triplet_csv` reads
  radial_kernel - an analytic kernel at given distances, from its fields
  dense_hartree - the Hartree coupling filled pair by pair as a dense array
  convergence_ratios - step-halving ratios of the split-step reference
  stencil_config_dict - a navier-stokes config on a 2-d grid, as a dict
  leak_norm - a kinetic step that also scales the state, so norm drifts
  zero_coupling - the coupling with no entries
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from nlqsim import evolution
from nlqsim.nlcompiler import CouplingMatrix
from nlqsim.oracle import STRANG, FieldState, PotentialRule, Row, split_step_solve
from nlqsim.problems import GridSpec, KernelSpec
from nlqsim.statevec import init_from_amplitudes


def basis_state(n: int, k: int) -> np.ndarray:
    """The principal vector of basis state |k> on n qubits."""
    a = np.zeros(2**n, dtype=np.complex128)
    a[k] = 1.0
    return init_from_amplitudes(a)


def overlap(a: np.ndarray, b: np.ndarray) -> complex:
    """Inner product <a|b> of two amplitude vectors of one length."""
    if a.shape != b.shape:
        raise ValueError(f"size mismatch: {a.size} vs {b.size} amplitudes")
    return complex(np.vdot(a, b))


def fidelity(a: np.ndarray, b: np.ndarray) -> float:
    """|<a|b>|, which is 1 exactly when the states agree up to global phase."""
    return abs(overlap(a, b))


def global_phase_aligned(reference: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Copy of the amplitudes a rotated to best match the reference's phase.

    Returns a * exp(i*chi) with chi chosen to maximize the real part of
    the overlap with the reference, so amplitude-wise comparisons ignore the
    (physically meaningless) global phase.
    """
    ov = overlap(reference, a)
    if ov == 0:
        return a.copy()
    return a * (abs(ov) / ov)


def tensor_square(psi: np.ndarray, max_result_qubits: int = 24) -> np.ndarray:
    """Principal vector of all products a_j * a_k of the amplitudes of psi.

    The output principal index is (j, k) row-major over two copies of the
    input index, so a single application of the potential step on the doubled
    vector produces phases containing |a_j|^2 * |a_k|^2 terms (one route to
    higher-than-quadratic density dependence).
    """
    n2 = 2 * (psi.size.bit_length() - 1)
    if n2 + 1 > max_result_qubits:
        raise ValueError(
            f"result would need {n2 + 1} qubits, above the bound {max_result_qubits}"
        )
    return init_from_amplitudes(np.outer(psi, psi).reshape(-1))


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


def madelung_fields(psi: np.ndarray, grid: GridSpec) -> MadelungFields:
    """Density and velocity fields of a principal vector.

    The velocity is computed from the discrete probability current divided by
    the density (central differences, periodic), which avoids phase
    unwrapping: u = -Im(conj(a) * D a) / |a|^2 per axis. Under the polar
    ansatz a = sqrt(rho) * exp(-i*theta) this equals the phase gradient
    grad(theta); a plane wave exp(-i*kappa*x) on uniform density gives
    u = sin(kappa*dx)/dx, i.e. kappa up to second-order discretization error.
    Sites with physical density below 1e-8 / dx**dims get u = NaN and are
    flagged as undefined rather than raising.
    """
    if grid.size != psi.size:
        raise ValueError(f"grid has {grid.size} sites, the state {psi.size} amplitudes")
    a = psi.reshape(grid.points)
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


def stencil_config_dict(points, steps: int) -> dict:
    """A navier-stokes config dict on a 2-d grid: a Gaussian packet run for
    `steps` steps of 0.002, recording the first and last states."""
    eps = 0.002
    return {
        "problem": "navier-stokes",
        "grid": {"points": list(points), "dx": 0.5, "x0": -8.0},
        "initial_state": {"preset": "gaussian", "center": [0.0, 0.0], "sigma": 2.0,
                          "kappa": [0.5, 0.0]},
        "t": steps * eps,
        "eps": eps,
        "record_stride": 0,
    }


def leak_norm(monkeypatch, factor: float = 1 + 1e-9) -> None:
    """Make every kinetic step of `evolution` also scale the state by factor."""
    kinetic = evolution.apply_kinetic

    def leaky(psi, op):
        kinetic(psi, op)
        psi *= factor
        return psi

    monkeypatch.setattr(evolution, "apply_kinetic", leaky)


def zero_coupling(dim: int) -> CouplingMatrix:
    """The dim x dim coupling with no entries."""
    empty = np.empty(0)
    return CouplingMatrix(dim, empty, empty, empty)

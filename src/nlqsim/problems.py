"""Coupling-matrix builders for the physical model problems.

Normalization convention, used everywhere in this package: the register
amplitudes satisfy sum_k |a_k|^2 = 1, and the physical field on the grid is
phi_k = a_k / sqrt(dx**dims), i.e. the physical density is
rho_k = |a_k|^2 / dx**dims with sum_k rho_k * dx**dims = 1.

With that convention, the nonlocal-interaction potential
V(x_k) = sum_j Phi((x_k - x_j)) * rho_j * dx**dims reduces to
V_k = sum_j Phi(d_kj) * |a_j|^2: the quadrature weight cancels against the
density normalization, so the coupling entries are kernel values evaluated at
the minimal-image grid separation, with no extra dx factor. The contact
(delta) kernel carries weight g / dx**dims at zero separation, which makes
the contact-interaction builder and the point-interaction special case of the
nonlocal builder produce bit-identical matrices.

Grids are periodic; kernels are evaluated at the minimal-image separation.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .nlcompiler import CouplingMatrix
from .statevec import NORM_TOL, Register


@dataclass(frozen=True)
class GridSpec:
    """Periodic spatial grid; flat index is row-major over the axes.

    points: grid points per axis (each a power of two, 1 or 2 axes);
    dx: spacing, identical for all axes; x0: coordinate of index 0.
    """

    points: tuple[int, ...]
    dx: float
    x0: float = 0.0

    def __post_init__(self):
        pts = tuple(int(m) for m in self.points)
        object.__setattr__(self, "points", pts)
        if len(pts) not in (1, 2):
            raise ValueError(f"grids must have 1 or 2 axes, got {len(pts)}")
        for m in pts:
            if m < 2 or m & (m - 1) != 0:
                raise ValueError(f"points per axis must be powers of two >= 2, got {m}")
        if not self.dx > 0:
            raise ValueError(f"dx must be positive, got {self.dx}")

    @property
    def dims(self) -> int:
        return len(self.points)

    @property
    def size(self) -> int:
        return math.prod(self.points)  # exact: np.prod wraps around for huge grids

    @property
    def n_qubits(self) -> int:
        return int(self.size.bit_length() - 1)

    @property
    def cell_volume(self) -> float:
        return self.dx**self.dims

    def coords(self, axis: int = 0) -> np.ndarray:
        """Coordinates x0 + i*dx along one axis."""
        return self.x0 + self.dx * np.arange(self.points[axis])

    def wrapped_deltas(self, axis: int = 0) -> np.ndarray:
        """Minimal-image integer separations |i - j| for one axis (matrix)."""
        m = self.points[axis]
        idx = np.arange(m)
        d = np.abs(idx[:, None] - idx[None, :])
        return np.minimum(d, m - d)

    def separation_matrix(self) -> np.ndarray:
        """Minimal-image physical distances between all pairs of grid sites."""
        if self.dims == 1:
            return self.wrapped_deltas(0) * self.dx
        d0 = self.wrapped_deltas(0)
        d1 = self.wrapped_deltas(1)
        m0, m1 = self.points
        # row-major composite index k = i0*m1 + i1
        dsq = (
            (d0**2)[:, None, :, None] + (d1**2)[None, :, None, :]
        ).reshape(self.size, self.size)
        return np.sqrt(dsq) * self.dx


@dataclass(frozen=True)
class KernelSpec:
    """Even interaction kernel Phi, either analytic or tabulated.

    Analytic forms are radial: constant(c), gaussian(sigma, amplitude),
    contact(g). Tabulated kernels give samples Phi(d*dx) for integer
    separations d = 0, 1, 2, ... and are restricted to 1-d grids.
    """

    form: str
    amplitude: float = 0.0
    sigma: float = 1.0
    g: float = 0.0
    samples: tuple[float, ...] | None = None

    #: JSON keys per form besides "form", in the order of the form's constructor
    _JSON_KEYS = {"constant": ("c",), "gaussian": ("sigma", "amplitude"),
                  "contact": ("g",), "tabulated": ("samples", "samples_signed")}

    def __post_init__(self):
        if self.form not in self._JSON_KEYS:
            raise ValueError(f"unknown kernel form {self.form!r}")
        for name in ("amplitude", "sigma", "g"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"kernel {name} must be finite, got {getattr(self, name)}")
        if self.form == "gaussian" and not self.sigma > 0:
            raise ValueError("gaussian kernel needs sigma > 0")
        if self.form == "tabulated":
            if not self.samples:
                raise ValueError("tabulated kernel needs samples")
            object.__setattr__(
                self, "samples", tuple(float(v) for v in self.samples)
            )
            if not all(math.isfinite(v) for v in self.samples):
                raise ValueError("tabulated kernel samples must be finite")

    @classmethod
    def constant(cls, c: float) -> "KernelSpec":
        return cls("constant", amplitude=float(c))

    @classmethod
    def gaussian(cls, sigma: float, amplitude: float) -> "KernelSpec":
        return cls("gaussian", amplitude=float(amplitude), sigma=float(sigma))

    @classmethod
    def contact(cls, g: float) -> "KernelSpec":
        return cls("contact", g=float(g))

    @classmethod
    def tabulated(cls, samples) -> "KernelSpec":
        """Samples for separations d = 0, 1, 2, ...; even extension implied."""
        return cls("tabulated", samples=tuple(float(v) for v in samples))

    @classmethod
    def tabulated_signed(cls, samples) -> "KernelSpec":
        """Samples covering d = -D..D (odd length, centered on d = 0).

        The two half-lines must mirror exactly, otherwise the kernel is not
        an even function and is rejected.
        """
        samples = [float(v) for v in samples]
        if len(samples) % 2 != 1:
            raise ValueError("signed sample table must have odd length (centered on 0)")
        center = len(samples) // 2
        left = samples[:center][::-1]
        right = samples[center + 1 :]
        if left != right:
            raise ValueError("kernel not even")
        return cls("tabulated", samples=tuple(samples[center:]))

    def radial(self, r: np.ndarray) -> np.ndarray:
        """Evaluate an analytic kernel at physical distances r."""
        r = np.asarray(r, dtype=np.float64)
        if self.form == "constant":
            return np.full_like(r, self.amplitude)
        if self.form == "gaussian":
            return self.amplitude * np.exp(-(r**2) / (2.0 * self.sigma**2))
        raise ValueError(f"kernel form {self.form!r} has no radial evaluation")

    def grid_samples(self, grid: GridSpec) -> np.ndarray:
        """Phi at separations d*dx for d = 0..M-1 on a 1-d grid (wrapped)."""
        if grid.dims != 1:
            raise ValueError("grid samples are defined for 1-d grids")
        m = grid.points[0]
        d = np.arange(m)
        dmin = np.minimum(d, m - d)
        if self.form == "contact":
            w = np.zeros(m)
            w[0] = self.g / grid.cell_volume
            return w
        if self.form == "tabulated":
            if len(self.samples) < m // 2 + 1:
                raise ValueError(
                    f"tabulated kernel covers separations up to "
                    f"{len(self.samples) - 1}, grid needs {m // 2}"
                )
            table = np.asarray(self.samples)
            return table[dmin]
        return self.radial(dmin * grid.dx)

    def to_json_dict(self) -> dict:
        if self.form == "constant":
            return {"form": "constant", "c": self.amplitude}
        if self.form == "gaussian":
            return {"form": "gaussian", "sigma": self.sigma, "amplitude": self.amplitude}
        if self.form == "contact":
            return {"form": "contact", "g": self.g}
        return {"form": "tabulated", "samples": list(self.samples)}

    @classmethod
    def from_json_dict(cls, d: dict) -> "KernelSpec":
        """The kernel of its JSON object: unknown keys and values that are not
        JSON numbers (bools included) are rejected; samples_signed wins."""
        if not isinstance(d, dict):
            raise ValueError(f"kernel must be an object, got {d!r}")
        form = d.get("form")
        keys = cls._JSON_KEYS.get(form) if isinstance(form, str) else None
        if keys is None:
            raise ValueError(f"unknown kernel form {form!r}")
        for key in d:
            if key != "form" and key not in keys:
                raise ValueError(f"unknown {form} kernel key {key!r}")
        values = (d.get("samples_signed", d.get("samples")) if form == "tabulated"
                  else [d.get(key) for key in keys])
        if not isinstance(values, list) or not all(
            isinstance(v, (int, float)) and not isinstance(v, bool) for v in values
        ):
            raise ValueError(f"{form} kernel values must be JSON numbers, got {d!r}")
        if form == "tabulated":
            signed = "samples_signed" in d
            return cls.tabulated_signed(values) if signed else cls.tabulated(values)
        return getattr(cls, form)(*values)


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


def hartree_coupling(kernel: KernelSpec, grid: GridSpec) -> CouplingMatrix:
    """Coupling for a nonlocal interaction: f_jk = Phi(minimal-image distance).

    See the module docstring for why no quadrature factor appears. Tabulated
    kernels work on 1-d grids; analytic radial forms also work on 2-d grids.
    The point-interaction (contact) kernel reduces to the diagonal
    contact-interaction coupling exactly.
    """
    if kernel.form == "contact":
        return gross_pitaevskii_coupling(kernel.g, grid)
    if grid.dims == 1:
        samples = kernel.grid_samples(grid)
        dmin = grid.wrapped_deltas(0)
        return CouplingMatrix.from_dense(samples[dmin])
    if kernel.form == "tabulated":
        raise ValueError("tabulated kernels require a 1-d grid")
    return CouplingMatrix.from_dense(kernel.radial(grid.separation_matrix()))


def gross_pitaevskii_coupling(g: float, grid: GridSpec) -> CouplingMatrix:
    """Diagonal contact-interaction coupling: f_kk = g / dx**dims.

    This is V_k = g * rho_k written in amplitude variables, the point-like
    limit of the nonlocal interaction. A zero g stores no entries.
    """
    w = g / grid.cell_volume
    sites = np.arange(grid.size if w != 0.0 else 0)
    return CouplingMatrix(grid.size, sites, sites, np.full(sites.size, w))


def navier_stokes_coupling(rho0: float, grid: GridSpec) -> CouplingMatrix:
    """Discrete-Laplacian coupling cancelling quantum pressure around rho0.

    Per axis i the stencil is f[k, k +/- e_i] = w and f[k, k] -= 2w with
    w = 1 / (4 * rho0 * dx**2 * dx**dims); the dx**dims converts amplitude
    weights to physical density. Rows sum to zero exactly, so constant
    densities feel no potential at all. Built as 2*dims + 1 entries per site
    in O(nnz log nnz), never as an N x N array.
    """
    if not rho0 > 0:
        raise ValueError(f"reference density must be positive, got {rho0}")
    w = 1.0 / (4.0 * rho0 * grid.dx**2 * grid.cell_volume)
    sites = np.arange(grid.size).reshape(grid.points)
    rows = sites.reshape(-1)
    entries = []
    for axis in range(grid.dims):
        for step in (-1, 1):
            entries.append((rows, np.roll(sites, -step, axis=axis).reshape(-1), w))
        entries.append((rows, rows, -2.0 * w))
    keys = np.concatenate([r * grid.size + c for r, c, _ in entries])
    vals = np.concatenate([np.full(grid.size, v) for _, _, v in entries])
    # a stable sort keeps repeated positions in the order they were added;
    # on a 2-point axis both shifts hit the same neighbour, which then holds
    # w + w, and with two axes the diagonal holds -2w - 2w
    order = np.argsort(keys, kind="stable")
    keys, vals = keys[order], vals[order]
    starts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
    keys, vals = keys[starts], np.add.reduceat(vals, starts)
    keep = vals != 0.0
    rows, cols = np.divmod(keys[keep], grid.size)
    return CouplingMatrix(grid.size, rows, cols, vals[keep])


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
    if not r.ancilla_is_clean(NORM_TOL):
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


def gaussian_packet(
    grid: GridSpec,
    center: float | tuple[float, ...] = 0.0,
    sigma: float | tuple[float, ...] = 1.0,
    kappa: float | tuple[float, ...] = 0.0,
) -> np.ndarray:
    """Unnormalized Gaussian wave packet exp(-(x-c)^2/(4 s^2) - i*kappa*x).

    Scalars broadcast over axes; on 2-d grids the packet is a product over
    axes. The exp(-i*kappa*x) phase gives Madelung velocity +kappa.
    """
    def per_axis(v):
        if np.isscalar(v):
            return (float(v),) * grid.dims
        if len(v) != grid.dims:
            raise ValueError(f"need {grid.dims} per-axis values, got {v!r}")
        return tuple(float(x) for x in v)

    centers, sigmas, kappas = per_axis(center), per_axis(sigma), per_axis(kappa)
    field = np.ones(grid.points, dtype=np.complex128)
    for axis in range(grid.dims):
        x = grid.coords(axis)
        prof = np.exp(
            -((x - centers[axis]) ** 2) / (4.0 * sigmas[axis] ** 2)
            - 1j * kappas[axis] * x
        )
        shape = [1] * grid.dims
        shape[axis] = grid.points[axis]
        field = field * prof.reshape(shape)
    return field.reshape(-1)


def uniform_amplitudes(grid: GridSpec) -> np.ndarray:
    return np.ones(grid.size, dtype=np.complex128)


def basis_amplitudes(grid: GridSpec, k: int) -> np.ndarray:
    if not 0 <= k < grid.size:
        raise ValueError(f"index {k} out of range for grid of {grid.size} sites")
    a = np.zeros(grid.size, dtype=np.complex128)
    a[k] = 1.0
    return a


def plane_wave_amplitudes(grid: GridSpec, mode: int, axis: int = 0) -> np.ndarray:
    """Uniform-density state with phase exp(-i*kappa*x), kappa = 2*pi*mode/(M*dx)."""
    m = grid.points[axis]
    kappa = 2.0 * np.pi * mode / (m * grid.dx)
    x = grid.coords(axis)
    prof = np.exp(-1j * kappa * x)
    if grid.dims == 1:
        return prof
    field = np.ones(grid.points, dtype=np.complex128)
    shape = [1] * grid.dims
    shape[axis] = m
    return (field * prof.reshape(shape)).reshape(-1)


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


def coupling_from_triplet_csv(path, dim: int) -> CouplingMatrix:
    """Read a triplet CSV (header k,j,f); symmetric completion is applied.

    Each row sets both f_kj and f_jk, so for a repeated position the last row
    wins; positions left at zero (explicit zeros included) store no entry.
    """
    entries: dict[tuple[int, int], float] = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header[:3]] != ["k", "j", "f"]:
            raise ValueError(f"{path}: expected header k,j,f")
        for row in reader:
            if not row:
                continue
            if len(row) < 3:
                raise ValueError(f"{path}: line {reader.line_num} needs k,j,f, got {row!r}")
            k, j, v = int(row[0]), int(row[1]), float(row[2])
            if not (0 <= k < dim and 0 <= j < dim):
                raise ValueError(f"{path}: index ({k},{j}) out of range for dim {dim}")
            entries[k, j] = entries[j, k] = v
    cells = sorted(cell for cell, v in entries.items() if v != 0.0)
    rows = np.array([k for k, _ in cells], dtype=np.intp)
    cols = np.array([j for _, j in cells], dtype=np.intp)
    return CouplingMatrix(dim, rows, cols, np.array([entries[c] for c in cells], dtype=float))

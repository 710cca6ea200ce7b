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
(delta) kernel carries weight g / dx**dims at zero separation; the
contact-interaction builder is the nonlocal builder on that kernel.

Grids are periodic, so every built-in coupling depends only on the wrapped
offset j - k: a builder samples the row of site 0, shaped like the grid
(`KernelSpec.grid_samples`, or the Laplacian stencil), and `periodic_coupling`
computes the entries f[k, j] = row[(j - k) mod points] from that definition:
each site's columns are the site plus the row's nonzero offsets, wrapped and
sorted, and each value is read back from the row at column minus site.

Data files are read here too: `read_csv` is the one CSV reader, and
`triplet_cells` reads a custom-f coupling for the gate path and the reference.
"""

from __future__ import annotations

import csv
import math
import sys
from dataclasses import dataclass, fields
from functools import reduce

import numpy as np

from .nlcompiler import CouplingMatrix


@dataclass(frozen=True)
class GridSpec:
    """Periodic spatial grid; flat index is row-major over the axes.

    points: grid points per axis (each a power of two, 1 or 2 axes);
    dx: spacing, identical for all axes; x0: coordinate of index 0.
    The cell volume dx**dims must be a normal float: the field normalization
    divides by it and the quadratures multiply by it. The largest momentum
    squared on the grid, dims * (pi/dx)**2 at the Nyquist corner, must be
    finite: the kinetic step multiplies it by eps * c_T.
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
        try:
            volume = self.dx ** len(pts)
        except OverflowError:
            volume = math.inf
        if not sys.float_info.min <= volume <= sys.float_info.max:
            raise ValueError(
                f"dx {self.dx} gives a cell volume dx**{len(pts)} outside the normal floats"
            )
        nyquist = math.pi / self.dx
        if not len(pts) * nyquist * nyquist <= sys.float_info.max:
            raise ValueError(
                f"dx {self.dx} gives a Nyquist momentum squared {len(pts)} * (pi/dx)**2 "
                "that overflows"
            )

    @property
    def dims(self) -> int:
        return len(self.points)

    @property
    def size(self) -> int:
        return math.prod(self.points)  # exact: np.prod wraps around for huge grids

    @property
    def cell_volume(self) -> float:
        return self.dx**self.dims

    def coords(self, axis: int = 0) -> np.ndarray:
        """Coordinates x0 + i*dx along one axis."""
        return self.x0 + self.dx * np.arange(self.points[axis])


#: config keys of each kernel form besides "form"; a tabulated kernel needs one
#: of its two, and samples_signed wins if both are given
_FORM_KEYS = {"constant": ("c",), "gaussian": ("sigma", "amplitude"),
              "contact": ("g",), "tabulated": ("samples", "samples_signed")}


@dataclass(frozen=True)
class KernelSpec:
    """Even interaction kernel Phi, either analytic or tabulated; its fields
    are the keys of a config's `kernel` section.

    Analytic forms are radial: constant (c), gaussian (sigma, amplitude),
    contact (g). A tabulated kernel gives samples Phi(d*dx) for integer
    separations d = 0, 1, 2, ..., or samples_signed for d = -D..D, which is
    folded into samples; it is restricted to 1-d grids. A form takes only its
    own keys.
    """

    form: str
    c: float | None = None
    sigma: float | None = None
    amplitude: float | None = None
    g: float | None = None
    samples: tuple[float, ...] | None = None
    samples_signed: tuple[float, ...] | None = None

    def __post_init__(self):
        if not isinstance(self.form, str) or self.form not in _FORM_KEYS:
            raise ValueError(f"unknown kernel form {self.form!r}")
        keys = _FORM_KEYS[self.form]
        for f in fields(self)[1:]:
            if getattr(self, f.name) is not None and f.name not in keys:
                raise ValueError(f"unknown {self.form} kernel key {f.name!r}")
        if self.form == "tabulated":
            if self.samples_signed is not None:
                # the d = 0..D half of a table for d = -D..D, whose two
                # half-lines must mirror exactly (an even kernel)
                signed = [float(v) for v in self.samples_signed]
                center = len(signed) // 2
                if len(signed) % 2 != 1:
                    raise ValueError("signed sample table must have odd length (centered on 0)")
                if signed[:center][::-1] != signed[center + 1 :]:
                    raise ValueError("kernel not even")
                object.__setattr__(self, "samples", signed[center:])
                object.__setattr__(self, "samples_signed", None)
            samples = tuple(float(v) for v in self.samples or ())
            if not samples:
                raise ValueError("tabulated kernel needs samples")
            if not all(math.isfinite(v) for v in samples):
                raise ValueError("tabulated kernel samples must be finite")
            object.__setattr__(self, "samples", samples)
            return
        for name in keys:
            value = getattr(self, name)
            if value is None:
                raise ValueError(f"{self.form} kernel needs {name!r}")
            if not math.isfinite(value):
                raise ValueError(f"kernel {name} must be finite, got {value}")
        if self.form == "gaussian" and not self.sigma > 0:
            raise ValueError("gaussian kernel needs sigma > 0")

    @classmethod
    def gaussian(cls, sigma: float, amplitude: float) -> "KernelSpec":
        """The per-layer sweep's kernel (benchmarks/sweep.py); everything
        else builds a kernel with the constructor."""
        return cls("gaussian", sigma=sigma, amplitude=amplitude)

    def grid_samples(self, grid: GridSpec) -> np.ndarray:
        """Phi at the minimal-image separation of every site from site 0,
        shaped like the grid: the row of the periodic coupling."""
        if self.form == "contact":
            w = np.zeros(grid.points)
            w[(0,) * grid.dims] = self.g / grid.cell_volume
            return w
        # minimal-image integer separation from index 0 along each axis
        deltas = [np.minimum(d, m - d) for m in grid.points for d in [np.arange(m)]]
        if self.form == "tabulated":
            if grid.dims != 1:
                raise ValueError("tabulated kernels require a 1-d grid")
            if len(self.samples) < grid.points[0] // 2 + 1:
                raise ValueError(
                    f"tabulated kernel covers separations up to "
                    f"{len(self.samples) - 1}, grid needs {grid.points[0] // 2}"
                )
            return np.asarray(self.samples)[deltas[0]]
        dsq = reduce(np.add.outer, [d**2 for d in deltas])
        r = np.sqrt(dsq) * grid.dx
        if self.form == "constant":
            return np.full_like(r, self.c)
        return self.amplitude * np.exp(-(r**2) / (2.0 * self.sigma**2))


def periodic_coupling(row: np.ndarray) -> CouplingMatrix:
    """The coupling f[k, j] = row[(j - k) mod points] of a row shaped like
    its grid, as row-major entries; zeros store nothing. Site k's columns are
    k + o over the row's nonzero offsets o, wrapped per axis and sorted:
    O(N * nnz * log nnz) for nnz nonzero offsets.
    """
    row = np.asarray(row, dtype=np.float64)
    points = row.shape
    # the axes are powers of two (or CouplingMatrix refuses the size), so a
    # mask wraps an axis and each axis has its own bits of the flat index
    shifts = [sum(m.bit_length() - 1 for m in points[axis + 1:]) for axis in range(row.ndim)]
    sites = [k.reshape(-1, 1) for k in np.indices(points)]
    cols = sum(((k + o) & (m - 1)) << s
               for k, o, m, s in zip(sites, np.nonzero(row), points, shifts))
    cols.sort(axis=1, kind="stable")  # 1-d rows are two sorted runs: linear
    # each entry holds the row's value at its wrapped offset j - k
    vals = row[tuple(((cols >> s) - k) & (m - 1) for k, m, s in zip(sites, points, shifts))]
    rows = np.repeat(np.arange(row.size), cols.shape[1])
    return CouplingMatrix(row.size, rows, cols.reshape(-1), vals.reshape(-1))


def hartree_coupling(kernel: KernelSpec, grid: GridSpec) -> CouplingMatrix:
    """Coupling for a nonlocal interaction: f_jk = Phi(minimal-image distance).

    See the module docstring for why no quadrature factor appears. Tabulated
    kernels work on 1-d grids; analytic radial forms also work on 2-d grids.
    The point-interaction (contact) kernel is the diagonal contact-interaction
    coupling.
    """
    return periodic_coupling(kernel.grid_samples(grid))


def gross_pitaevskii_coupling(g: float, grid: GridSpec) -> CouplingMatrix:
    """Diagonal contact-interaction coupling: f_kk = g / dx**dims.

    This is V_k = g * rho_k written in amplitude variables, the point-like
    limit of the nonlocal interaction. A zero g stores no entries.
    """
    return hartree_coupling(KernelSpec("contact", g=g), grid)


def navier_stokes_coupling(rho0: float, grid: GridSpec) -> CouplingMatrix:
    """Discrete-Laplacian coupling cancelling quantum pressure around rho0.

    Per axis i the stencil is f[k, k +/- e_i] = w and f[k, k] -= 2w with
    w = 1 / (4 * rho0 * dx**2 * dx**dims); the dx**dims converts amplitude
    weights to physical density. A 2-point axis's one neighbour holds w + w.
    Rows sum to zero exactly, so constant densities feel no potential at all.
    w must be a normal float and the diagonal -2w * dims finite.
    """
    if not rho0 > 0:
        raise ValueError(f"reference density must be positive, got {rho0}")
    try:
        w = 1.0 / (4.0 * rho0 * grid.dx**2 * grid.cell_volume)
    except (ZeroDivisionError, OverflowError):  # the denominator under- or overflows
        w = math.nan
    if not sys.float_info.min <= w <= sys.float_info.max / (2 * grid.dims):
        raise ValueError(
            f"rho0 {rho0} and dx {grid.dx} put the stencil weight w = 1 / (4 rho0 "
            f"dx**2 dx**{grid.dims}) or the diagonal 2 * {grid.dims} * w outside the normal floats"
        )
    origin = (0,) * grid.dims
    row = np.zeros(grid.points)
    row[origin] = -2.0 * w * grid.dims
    for axis in range(grid.dims):
        for step in (-1, 1):
            row[origin[:axis] + (step,) + origin[axis + 1:]] += w
    return periodic_coupling(row)


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


def plane_wave_amplitudes(grid: GridSpec, mode: int) -> np.ndarray:
    """Uniform-density state with phase exp(-i*kappa*x) along the first axis,
    kappa = 2*pi*mode/(M*dx)."""
    m = grid.points[0]
    kappa = 2.0 * np.pi * mode / (m * grid.dx)
    prof = np.exp(-1j * kappa * grid.coords(0))
    if grid.dims == 1:
        return prof
    return (np.ones(grid.points, dtype=np.complex128) * prof[:, None]).reshape(-1)


def read_csv(path, what: str, row_parser) -> list:
    """The parsed data rows of a CSV file, in file order, blank rows skipped:
    ``row_parser(header)`` checks the header and returns the row parser. An
    empty file, a refused header and a row that does not parse or holds a
    non-finite value raise one ValueError naming the file and the line."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise ValueError(f"empty {what} file")
            parse = row_parser(header)
            return [parse(row) for row in reader if row]
        except (ValueError, csv.Error) as exc:
            line = f" line {reader.line_num}:" if reader.line_num else ""
            raise ValueError(f"{path}:{line} {exc}") from exc


def _triplet_row(row: list[str]) -> tuple[int, int, float]:
    if len(row) < 3:
        raise ValueError(f"needs k,j,f, got {row!r}")
    k, j, v = int(row[0]), int(row[1]), float(row[2])
    if not math.isfinite(v):
        raise ValueError(f"f must be finite, got {v}")
    return k, j, v


def _triplet_header(header: list[str]):
    if [h.strip() for h in header[:3]] != ["k", "j", "f"]:
        raise ValueError("expected header k,j,f")
    return _triplet_row


def triplet_cells(path, dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows, columns and values of a triplet CSV's cells (header k,j,f), in
    the order they first appear: each row (k, j, v) sets f_kj = f_jk = v, so
    for a repeated position the last row wins. Explicit zeros are kept."""
    cells: dict[tuple[int, int], float] = {}
    for k, j, v in read_csv(path, "triplet", _triplet_header):
        if not (0 <= k < dim and 0 <= j < dim):
            raise ValueError(f"{path}: index ({k},{j}) out of range for dim {dim}")
        cells[k, j] = cells[j, k] = v
    rows, cols = np.array(list(cells), dtype=np.intp).reshape(-1, 2).T
    return rows, cols, np.array(list(cells.values()), dtype=np.float64)


def coupling_from_triplet_csv(path, dim: int) -> CouplingMatrix:
    """The coupling of a triplet CSV (`triplet_cells`), sorted by row, then
    column; positions left at zero (explicit zeros included) store no entry."""
    rows, cols, vals = triplet_cells(path, dim)
    keep = np.flatnonzero(vals)
    order = keep[np.lexsort((cols[keep], rows[keep]))]
    return CouplingMatrix(dim, rows[order], cols[order], vals[order])

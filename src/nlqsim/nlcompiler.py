"""Compile a symmetric density-coupling matrix into an ancilla gate sequence.

Target operation, for one time step eps: multiply each principal amplitude
a_k by exp(-i*eps*sum_j f_kj*|a_j|^2), a diagonal whose phases depend on the
state's own probability weights. The circuit realizes it from two kinds of
blocks built on the nonlinear ancilla:

  single block, index k:   [flip_k, N(g), P(g), flip_k]
  pair block, k < l:       [flip_k, flip_l, N(g), P(g), flip_l, flip_k]

where flip_k is the ancilla flip on |k>, N(g) the branch-probability phase
gate and P(g) the ancilla-|1> phase. Up to a state-independent global phase,
the single block multiplies a_k by exp(2i*g*|a_k|^2) and leaves all other
amplitudes alone; the pair block multiplies both a_k and a_l by
exp(2i*g*(|a_k|^2 + |a_l|^2)). Every block is modulus-preserving, so blocks
compose independently of order and the angles follow from matching phase
exponents against the target diagonal:

    pair angle    g_kl = -eps * f_kl / 2               (k < l)
    single angle  g_k  = -eps * f_kk / 2 - sum_{l != k} g_kl

This calibration is not taken on faith: the test suite checks the compiled
sequence against the directly applied diagonal (`apply_w_direct`) on random
states and couplings to 1e-12.

A coupling (`CouplingMatrix`) is stored as its nonzero entries in row-major
order, and the calibration works on those entries in O(N + nnz); the dense
N x N array is built only on request (`CouplingMatrix.dense`), and
`CouplingMatrix.potential` uses it only above SPARSE_MAX_FILL.

The schedule (`GammaSchedule`) is plain arrays: the single angles and the
nonzero pair angles with their indices. Zero-angle blocks are never emitted,
so a sparse stencil compiles to O(N) blocks rather than O(N^2).

Resource accounting is the closed form on the schedule's nonzero angles
(`estimate_resources` with `GammaSchedule.sparsity()`): it treats each
ancilla flip as one multi-controlled NOT, expanded into basic_c * n**2 basic
gates when converting to basic-gate counts; N and P count as one gate each.
A direct-mode evolution therefore never builds a gate list.

A compiled sequence is a tuple of plain ``(kind, arg)`` pairs. The op kinds
live in one table, `GATES`: it names the statevec primitive that `execute`
applies for each kind, and its order is the field order of `GateCounts`.
Gate counts come from the closed form or from the primitive calls an
execution makes, never from a recount of the ops.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import cached_property
from itertools import chain

import numpy as np

from . import statevec
from .statevec import Register

#: a coupling with at most this fraction of nonzero entries computes its
#: potential from those entries; a denser one uses the BLAS matrix-vector
#: product (break-even near 2% in a sweep over N = 16..4096)
SPARSE_MAX_FILL = 0.02


@dataclass(frozen=True)
class CouplingMatrix:
    """Symmetric real matrix f_kj weighting the density-dependent potential.

    Stored as its nonzero entries: rows, cols and vals, in row-major order
    (the order of ``np.nonzero``), so a stencil costs O(nnz) memory and work
    rather than O(N^2). Entries carry units of energy*volume per squared
    amplitude. At construction the dimension must be a power of two, the
    entries finite, nonzero and strictly row-major, and the matrix bitwise
    symmetric; the checks take O(nnz log nnz). The dense N x N array is
    built only when a caller asks for `dense`.
    """

    dim: int
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray

    def __post_init__(self):
        dim = int(self.dim)
        if dim < 2 or dim & (dim - 1) != 0:
            raise ValueError(f"dimension must be a power of two >= 2, got {dim}")
        rows = np.asarray(self.rows, dtype=np.intp)
        cols = np.asarray(self.cols, dtype=np.intp)
        vals = np.asarray(self.vals, dtype=np.float64)
        for name, value in (("dim", dim), ("rows", rows), ("cols", cols), ("vals", vals)):
            object.__setattr__(self, name, value)
        if not (rows.ndim == 1 and rows.shape == cols.shape == vals.shape):
            raise ValueError("rows, cols and vals must be 1-d arrays of one length")
        if rows.size and not (0 <= min(rows.min(), cols.min())
                              and max(rows.max(), cols.max()) < dim):
            raise ValueError(f"entry index out of range for dimension {dim}")
        if not np.isfinite(vals).all():
            raise ValueError("coupling matrix entries must be finite")
        if not vals.all():
            raise ValueError("coupling matrix stores only nonzero entries")
        if not (np.diff(rows * dim + cols) > 0).all():
            raise ValueError("coupling entries must be unique and in row-major order")
        # row-major entries sorted stably by column are in (col, row) order,
        # the row-major order of the transpose
        transposed = np.argsort(cols, kind="stable")
        if not (np.array_equal(rows, cols[transposed])
                and np.array_equal(cols, rows[transposed])
                and np.array_equal(vals, vals[transposed])):
            raise ValueError("coupling matrix must be symmetric")

    @classmethod
    def from_dense(cls, mat) -> "CouplingMatrix":
        """The coupling of a dense square array, kept as the cached `dense`
        (not copied), so a dense kernel is never built twice."""
        mat = np.asarray(mat, dtype=np.float64)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"coupling matrix must be square, got {mat.shape}")
        rows, cols = np.nonzero(mat)
        f = cls(mat.shape[0], rows, cols, mat[rows, cols])
        f.__dict__["dense"] = mat
        return f

    @property
    def n_qubits(self) -> int:
        return int(self.dim.bit_length() - 1)

    @property
    def sparse(self) -> bool:
        """True when at most SPARSE_MAX_FILL of the entries are nonzero."""
        return self.vals.size <= SPARSE_MAX_FILL * self.dim * self.dim

    @cached_property
    def dense(self) -> np.ndarray:
        """The N x N array, built once on first use."""
        mat = np.zeros((self.dim, self.dim))
        mat[self.rows, self.cols] = self.vals
        return mat

    def potential(self, dens: np.ndarray) -> np.ndarray:
        """sum_j f_kj * dens_j for every k: O(nnz) from the stored entries of
        a sparse coupling, the dense matrix-vector product otherwise."""
        if not self.sparse:
            return self.dense @ dens
        return np.bincount(self.rows, weights=self.vals * dens[self.cols], minlength=self.dim)


@dataclass(frozen=True)
class GammaSchedule:
    """Calibrated rotation angles: one per index, one per nonzero pair.

    gamma_k holds one angle per index. gamma_kl holds only the nonzero pair
    angles, at indices pair_k < pair_l, in row-major (k, l) order.
    """

    gamma_k: np.ndarray
    pair_k: np.ndarray
    pair_l: np.ndarray
    gamma_kl: np.ndarray

    def __post_init__(self):
        finite = np.all(np.isfinite(self.gamma_k)) and np.all(np.isfinite(self.gamma_kl))
        if not finite:
            raise ValueError("non-finite rotation angle")

    def sparsity(self) -> tuple[int, int]:
        """(number of nonzero single angles, number of nonzero pair angles)."""
        return int(np.count_nonzero(self.gamma_k)), int(np.count_nonzero(self.gamma_kl))


#: op kind -> statevec primitive that applies it, in the field order of
#: `GateCounts`. An op is the pair (kind, arg): the principal index (an int)
#: for "MCX", the angle (a float) for "NL" and "APH". The primitive is looked
#: up by name on each `execute` call, so a wrapper installed on the statevec
#: attribute sees every op.
GATES = {"MCX": "apply_mcx_k", "NL": "apply_nonlinear", "APH": "apply_ancilla_phase"}


@dataclass(frozen=True)
class GateSequence:
    """Immutable compiled sequence acting on an n-qubit principal register:
    ops is a tuple of (kind, arg) pairs, kind a key of `GATES`."""

    n: int
    ops: tuple[tuple[str, int | float], ...]

    def __post_init__(self):
        unknown = {kind for kind, _ in self.ops} - GATES.keys()
        if unknown:
            raise ValueError(f"unknown gate kind {unknown.pop()!r}")

    def __len__(self) -> int:
        return len(self.ops)


@dataclass(frozen=True)
class GateCounts:
    """Counts of the ancilla-gate kinds, one field per `GATES` kind in order."""

    mcx: int = 0
    nonlinear: int = 0
    ancilla_phase: int = 0

    def scaled(self, m: int) -> "GateCounts":
        return GateCounts(self.mcx * m, self.nonlinear * m, self.ancilla_phase * m)

    def basic(self, n: int, c: int = 1) -> int:
        """Basic-gate equivalent: each MCX costs c*n**2, N and P cost 1."""
        return self.mcx * c * n * n + self.nonlinear + self.ancilla_phase


@dataclass(frozen=True)
class ResourceTally:
    """Exact gate counts for a run of n_steps repetitions of one step."""

    per_step: GateCounts
    n_steps: int
    n: int
    basic_c: int = 1

    @property
    def total(self) -> GateCounts:
        return self.per_step.scaled(self.n_steps)

    @property
    def mcx_count(self) -> int:
        return self.total.mcx

    @property
    def nonlinear_count(self) -> int:
        return self.total.nonlinear

    @property
    def ancilla_phase_count(self) -> int:
        return self.total.ancilla_phase

    @property
    def basic_per_step(self) -> int:
        return self.per_step.basic(self.n, self.basic_c)

    @property
    def basic_gate_count(self) -> int:
        return self.total.basic(self.n, self.basic_c)

    def as_dict(self) -> dict:
        return {
            "n": self.n,
            "n_steps": self.n_steps,
            "basic_c": self.basic_c,
            "per_step": {**asdict(self.per_step), "basic": self.basic_per_step},
            "total": {**asdict(self.total), "basic": self.basic_gate_count},
        }


def gammas_from_coupling(f: CouplingMatrix, eps: float) -> GammaSchedule:
    """Calibrate rotation angles so the compiled blocks realize the diagonal.

    See the module docstring for the derivation; the pair angle carries half
    the off-diagonal coupling and the single angle compensates the |a_k|^2
    contribution that every pair block involving k leaks onto index k. Works
    in O(N + nnz) on the stored entries. Each row of pair angles is summed
    left to right from +0.0 (bincount over the row-major entries; np.sum sums
    pairwise and changes the last bits), as a scalar loop over l would.
    """
    on_diag = f.rows == f.cols
    diag = np.zeros(f.dim)
    diag[f.rows[on_diag]] = f.vals[on_diag]
    diag *= -eps
    diag /= 2.0
    half = f.vals * -eps
    half /= 2.0
    # a running sum from +0.0 is never -0.0, so adding +0.0 in place of the
    # diagonal leaves every row sum bit-identical
    half[on_diag] = 0.0
    gamma_k = diag - np.bincount(f.rows, weights=half, minlength=f.dim)
    pair = (f.rows < f.cols) & (half != 0.0)
    return GammaSchedule(gamma_k, f.rows[pair], f.cols[pair], half[pair])


def schedule_blocks(schedule: GammaSchedule) -> list[tuple]:
    """Gate blocks for a schedule, each a tuple of (kind, arg) ops: nonzero
    singles by ascending k, then the pairs in their row-major (k, l) order.
    Zero-angle blocks are never emitted.

    The order is immaterial for the resulting state (all constituents are
    modulus-preserving) but fixed for reproducibility.
    """
    blocks = [
        (("MCX", k), ("NL", g), ("APH", g), ("MCX", k))
        for k, g in enumerate(schedule.gamma_k.tolist())
        if g != 0.0
    ]
    blocks += [
        (("MCX", k), ("MCX", l), ("NL", g), ("APH", g), ("MCX", l), ("MCX", k))
        for k, l, g in zip(
            schedule.pair_k.tolist(), schedule.pair_l.tolist(), schedule.gamma_kl.tolist()
        )
    ]
    return blocks


def compile_w(f: CouplingMatrix, eps: float) -> GateSequence:
    """Compile the one-step nonlinear-potential diagonal into gate blocks."""
    blocks = schedule_blocks(gammas_from_coupling(f, eps))
    return GateSequence(f.n_qubits, tuple(chain.from_iterable(blocks)))


def execute(seq: GateSequence, r: Register) -> Register:
    """Run a compiled sequence on a register (in place), each op through the
    statevec primitive `GATES` names for its kind."""
    if seq.n != r.n:
        raise ValueError(f"sequence is for n={seq.n}, register has n={r.n}")
    apply = {kind: getattr(statevec, name) for kind, name in GATES.items()}
    for kind, arg in seq.ops:
        apply[kind](r, arg)
    return r


def apply_w_direct(psi: np.ndarray, f: CouplingMatrix, eps: float) -> np.ndarray:
    """Apply the nonlinear-potential diagonal directly from the densities.

    Multiplies each amplitude a_k of the principal vector psi, in place, by
    exp(-i*eps*sum_j f_kj*|a_j|^2): the diagonal a compiled sequence
    realizes on a register's ancilla-|0> branch, and the in-process oracle
    it is checked against. The sum is `CouplingMatrix.potential`: O(nnz)
    from the nonzero entries of a sparse coupling such as a stencil, the
    dense O(N^2) product otherwise.
    """
    if f.dim != psi.size:
        raise ValueError(f"coupling is {f.dim}-dimensional, the state has {psi.size} amplitudes")
    dens = np.abs(psi) ** 2
    psi *= np.exp(-1j * eps * f.potential(dens))
    return psi


def dense_sparsity(n: int) -> tuple[int, int]:
    """(singles, pairs) counts for a fully dense coupling on n qubits."""
    dim = 2**n
    return dim, dim * (dim - 1) // 2


def estimate_resources(
    n: int,
    n_steps: int,
    singles: int | None = None,
    pairs: int | None = None,
    basic_c: int = 1,
) -> ResourceTally:
    """Closed-form gate counts for n_steps repetitions of the potential step.

    Per step, with S single blocks and P pair blocks: 2S + 4P ancilla flips
    and S + P each of the branch-probability and ancilla-phase gates. Dense
    coupling is assumed when the sparsity is not given.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if n_steps < 0:
        raise ValueError("need n_steps >= 0")
    if singles is None or pairs is None:
        d_singles, d_pairs = dense_sparsity(n)
        singles = d_singles if singles is None else singles
        pairs = d_pairs if pairs is None else pairs
    per_step = GateCounts(
        mcx=2 * singles + 4 * pairs,
        nonlinear=singles + pairs,
        ancilla_phase=singles + pairs,
    )
    return ResourceTally(per_step, n_steps, n, basic_c)

"""Gate-level simulator for nonlinear Schrodinger dynamics on a qubit
register with one nonlinearly evolving ancilla, plus independent classical
reference solvers used to cross-check every result.

Subpackages:
  statevec   - amplitude vector and the primitive gate set
  nlcompiler - coupling-matrix compilation into ancilla gate blocks, counts
  evolution  - alternating potential/kinetic stepping and observables
  problems   - grids, interaction kernels, coupling builders, fluid fields
  oracle     - split-step reference solvers, ground states, two-mode check
  cli        - batch front-end (simulate / compare / resources / bec); not
               imported here, so `python -m nlqsim.cli` loads it only once
"""

from . import statevec, nlcompiler, problems, evolution, oracle
from .evolution import KineticSpec, SimulationError, evolve, observables
from .nlcompiler import (
    CouplingMatrix,
    GammaSchedule,
    GateOp,
    GateSequence,
    ResourceTally,
    apply_w_direct,
    compile_w,
    estimate_resources,
    gammas_from_coupling,
    tensor_square,
)
from .oracle import (
    FieldState,
    TwoModeState,
    bec_phase_check,
    gpe2_solve,
    ground_state,
    split_step_solve,
)
from .problems import (
    GridSpec,
    KernelSpec,
    MadelungFields,
    gross_pitaevskii_coupling,
    hartree_coupling,
    madelung_fields,
    navier_stokes_coupling,
)
from .statevec import (
    BranchWeights,
    Register,
    apply_ancilla_phase,
    apply_mcx_k,
    apply_nonlinear,
    apply_principal_axes,
    apply_principal_diagonal,
    branch_weights,
    dft_principal,
    fidelity,
    init_from_amplitudes,
)

__version__ = "0.1.0"

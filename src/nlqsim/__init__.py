"""Gate-level simulator for nonlinear Schrodinger dynamics on a qubit
register with one nonlinearly evolving ancilla, plus independent classical
reference solvers used to cross-check every result.

Modules, each imported on its own (``from nlqsim import evolution``);
importing the package loads none of them:
  statevec   - principal vector, the interpreter's register and its gates
  nlcompiler - coupling-matrix compilation into ancilla gate blocks, counts
  evolution  - alternating potential/kinetic stepping and observables
  problems   - grids, interaction kernels, coupling builders
  oracle     - split-step reference solvers, ground states, two-mode check
  cli        - batch front-end (simulate / compare / resources / bec)
"""

__version__ = "0.1.0"

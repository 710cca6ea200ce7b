"""Seeded workload definitions for the nlqsim benchmark.

Each workload is one experiment config plus the CLI invocations made on it.
The seed perturbs only the initial packet's ``center``, ``sigma`` and
``kappa`` within fixed ranges, so the work per invocation (steps, gate ops)
never depends on it. The ranges are narrow enough that the reference error
varies by about a percent between seeds; the stencil's packet width is held
tightest because that error scales steeply with it (2% on sigma moves it by
12%). Why each workload exists is recorded in NOTES.md next to this file.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Call:
    """One CLI invocation on the workload config.

    ``argv`` is the subcommand and its flags without ``--config``/``--out``;
    ``steps`` is the step count expected in each output row (one row for
    ``simulate``, one per step size for ``compare``).
    """

    argv: tuple[str, ...]
    steps: tuple[int, ...]

    @property
    def subcommand(self) -> str:
        return self.argv[0]


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict
    #: the timed invocation (wall_s, peak_rss_mb)
    full: Call
    #: the zero-step invocation of the same config (setup_s)
    setup: Call
    #: untimed invocations whose outputs are cross-checked once per run
    checks: dict[str, Call]
    #: which invocation's finest compare row gives ref_l2_error
    ref_call: str
    #: (single blocks, pair blocks) of the compiled step; None means dense
    sparsity: tuple[int, int] | None

    @property
    def grid_size(self) -> int:
        size = 1
        for m in self.config["grid"]["points"]:
            size *= m
        return size

    @property
    def n_qubits(self) -> int:
        return self.grid_size.bit_length() - 1

    @property
    def compiled(self) -> bool:
        return self.config["mode"] == "compiled"

    def config_text(self) -> str:
        return json.dumps(self.config, indent=2, sort_keys=True) + "\n"


NAMES = ("gate-dense", "direct-stencil-2d", "reference-halvings")

# acceptance Hartree configuration: 64 sites, Gaussian kernel, t = 20 * eps
HARTREE_STEPS = 20
HARTREE_EPS = 0.08
HALVINGS = 3

# Navier-Stokes on 32x32 with dx = 0.5: eps * max_k sum_j |f_kj| = 0.064
STENCIL_STEPS = 1000
STENCIL_EPS = 0.002
STENCIL_STRIDE = 20
STENCIL_REF_STEPS = 50


def _jitter(rng: random.Random, base: float, half_width: float) -> float:
    return round(base + rng.uniform(-half_width, half_width), 6)


def _hartree_config(rng: random.Random, mode: str) -> dict:
    return {
        "problem": "hartree",
        "grid": {"points": [64], "dx": 0.25, "x0": -8.0},
        "kernel": {"form": "gaussian", "sigma": 1.0, "amplitude": 2.0},
        "initial_state": {
            "preset": "gaussian",
            "center": _jitter(rng, -2.0, 0.25),
            "sigma": _jitter(rng, 1.0, 0.05),
            "kappa": _jitter(rng, -1.0, 0.05),
        },
        "t": HARTREE_STEPS * HARTREE_EPS,
        "eps": HARTREE_EPS,
        "mode": mode,
        "record_stride": 0,
    }


def _stencil_config(rng: random.Random) -> dict:
    sigma = _jitter(rng, 2.0, 0.002)
    return {
        "problem": "navier-stokes",
        "grid": {"points": [32, 32], "dx": 0.5, "x0": -8.0},
        "rho0": 1.0,
        "initial_state": {
            "preset": "gaussian",
            "center": [_jitter(rng, 0.0, 0.25), _jitter(rng, 0.0, 0.25)],
            "sigma": [sigma, sigma],
            "kappa": [_jitter(rng, 0.5, 0.05), _jitter(rng, 0.0, 0.05)],
        },
        "t": STENCIL_STEPS * STENCIL_EPS,
        "eps": STENCIL_EPS,
        "mode": "direct",
        "record_stride": STENCIL_STRIDE,
    }


def make(name: str, seed: int) -> Workload:
    """The workload ``name`` with its config drawn from ``seed``."""
    rng = random.Random(seed)
    zero_step = ("--steps", "0")
    if name == "gate-dense":
        return Workload(
            name=name,
            config=_hartree_config(rng, "compiled"),
            full=Call(("simulate",), (HARTREE_STEPS,)),
            setup=Call(("simulate", *zero_step), (0,)),
            checks={
                "direct": Call(("simulate", "--mode", "direct"), (HARTREE_STEPS,)),
                "ref": Call(("compare",), (HARTREE_STEPS,)),
            },
            ref_call="ref",
            sparsity=None,
        )
    if name == "direct-stencil-2d":
        size = 32 * 32
        return Workload(
            name=name,
            config=_stencil_config(rng),
            full=Call(("simulate",), (STENCIL_STEPS,)),
            setup=Call(("simulate", *zero_step), (0,)),
            checks={
                "ref": Call(
                    ("compare", "--steps", str(STENCIL_REF_STEPS)), (STENCIL_REF_STEPS,)
                ),
            },
            ref_call="ref",
            # every site keeps its single block; each of the 2 axes adds one
            # nearest-neighbour pair per site
            sparsity=(size, 2 * size),
        )
    if name == "reference-halvings":
        # compare --halvings k --steps 0 raises ZeroDivisionError, so set-up
        # is measured on the zero-step compare without --halvings
        return Workload(
            name=name,
            config=_hartree_config(rng, "direct"),
            full=Call(
                ("compare", "--halvings", str(HALVINGS)),
                tuple(HARTREE_STEPS * 2**i for i in range(HALVINGS + 1)),
            ),
            setup=Call(("compare", *zero_step), (0,)),
            checks={},
            ref_call="full",
            sparsity=None,
        )
    raise ValueError(f"unknown workload {name!r}; choose one of {NAMES}")

"""Print the sha256 of every output file of a fixed list of nlqsim CLI calls.

    python3 tools/output_digests.py --seed S [--src DIR]

The calls are the full, setup and check invocations of each benchmark
workload, on the config that ``benchmarks/workloads.make(name, S)`` draws
(the workload definitions are only read); then calls on fixed configs that
reach every coupling builder (an 8x8 Gaussian Hartree run in both modes and
``compare --halvings 1``, a 1-d Gross-Pitaevskii run, a contact-kernel
Hartree run and a 2x8 Navier-Stokes run) and both data-file readers (a
16-site ``custom-f`` triplet file with a repeated position, an explicit zero
and a blank line, run in both modes and by ``compare --halvings 1``, and
``file``-preset runs on a 1-d ``x,re,im`` and a 2-d ``x0,x1,re,im`` field
file); then a default ``bec`` and
``resources --n-min 1 --n-max 6 --steps 100 --instrument``. The data files
are written into the tool's work directory, beside the configs that name
them; a config echoes their paths as written, so no output names that
directory.

Each call runs in a fresh process on the nlqsim package under ``--src``
(default: this checkout's ``src``). One line is printed per output file,
``sha256  call/file``, so two checkouts produce the same outputs exactly
when the printouts of

    python3 tools/output_digests.py --seed S --src OLD/src > old.txt
    python3 tools/output_digests.py --seed S --src NEW/src > new.txt

have an empty ``diff``. A call that exits nonzero stops the tool with its
stderr and exit 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "benchmarks"))

import workloads  # noqa: E402

PACKET = {"preset": "gaussian", "center": 0.3, "sigma": 1.0, "kappa": 0.4}


def _config(problem: str, points: list[int], **fields) -> dict:
    return {"problem": problem, "grid": {"points": points, "dx": 0.5, "x0": -2.0},
            "initial_state": PACKET, "t": 0.4, "eps": 0.1, **fields}


#: data files the fixed configs read, written into the work directory
DATA_FILES = {
    # a ring: diagonal 1.5 and neighbours -0.5, with (0,1) set again (the last
    # row wins) and (2,3) cleared by an explicit zero after a blank line
    "ring-16.csv": "\n".join(
        ["k,j,f"] + [f"{k},{k},1.5" for k in range(16)]
        + [f"{k},{(k + 1) % 16},-0.5" for k in range(16)] + ["", "1,0,0.75", "3,2,0"]
    ) + "\n",
    "field-1d.csv": "x,re,im\n" + "".join(
        f"{-2.0 + 0.5 * k},{1 + k % 5},{k % 3 - 1}\n" for k in range(16)
    ),
    "field-2d.csv": "x0,x1,re,im\n" + "".join(
        f"{-2.0 + 0.5 * a},{-2.0 + 0.5 * b},{1 + (a + 2 * b) % 5},{(a - b) % 3 - 1}\n"
        for a in range(4) for b in range(4)
    ),
}

#: fixed configs, each with its calls by role, made after the workloads
FIXED_CALLS = {
    "hartree-8x8": (
        _config("hartree", [8, 8], kernel={"form": "gaussian", "sigma": 1.0, "amplitude": 2.0}),
        {"compiled": ("simulate", "--mode", "compiled"),
         "direct": ("simulate", "--mode", "direct"),
         "halvings": ("compare", "--halvings", "1")},
    ),
    "gross-pitaevskii": (_config("gross-pitaevskii", [16], g=1.3), {"full": ("simulate",)}),
    "hartree-contact": (
        _config("hartree", [16], kernel={"form": "contact", "g": 1.3}), {"full": ("simulate",)},
    ),
    "stencil-2x8": (_config("navier-stokes", [2, 8], rho0=1.0), {"full": ("simulate",)}),
    "custom-f-16": (
        _config("custom-f", [16], coupling_csv="ring-16.csv"),
        {"compiled": ("simulate", "--mode", "compiled"),
         "direct": ("simulate", "--mode", "direct"),
         "halvings": ("compare", "--halvings", "1")},
    ),
    "field-file-1d": (
        _config("gross-pitaevskii", [16], g=1.3,
                initial_state={"preset": "file", "path": "field-1d.csv"}),
        {"full": ("simulate",)},
    ),
    "field-file-2d": (
        _config("hartree", [4, 4], kernel={"form": "gaussian", "sigma": 1.0, "amplitude": 2.0},
                initial_state={"preset": "file", "path": "field-2d.csv"}),
        {"full": ("simulate",)},
    ),
}

#: calls made without a config, after the fixed configs
EXTRA_CALLS = {
    "bec": ("bec",),
    "resources": ("resources", "--n-min", "1", "--n-max", "6", "--steps", "100",
                  "--instrument"),
}


def calls(seed: int, work: Path) -> list[tuple[str, tuple[str, ...]]]:
    """(label, argv) of every call, in a fixed order; workload configs are
    written under work."""
    out = []
    for name in workloads.NAMES:
        load = workloads.make(name, seed)
        config = work / f"{name}.json"
        config.write_text(load.config_text())
        roles = {"full": load.full, "setup": load.setup, **load.checks}
        for role, call in roles.items():
            out.append((f"{name}.{role}", (*call.argv, "--config", str(config))))
    for name, text in DATA_FILES.items():
        (work / name).write_text(text)
    for name, (data, roles) in FIXED_CALLS.items():
        config = work / f"{name}.json"
        config.write_text(json.dumps(data))
        out += [(f"{name}.{role}", (*argv, "--config", str(config))) for role, argv in roles.items()]
    out += EXTRA_CALLS.items()
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--src", default=str(ROOT / "src"),
                        help="directory holding the nlqsim package to run")
    opts = parser.parse_args()
    env = {**os.environ, "PYTHONPATH": str(Path(opts.src).resolve())}
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for label, argv in calls(opts.seed, work):
            out = work / label
            proc = subprocess.run(
                [sys.executable, "-m", "nlqsim.cli", *argv, "--out", str(out)],
                env=env, cwd=work, capture_output=True, text=True,
            )
            if proc.returncode != 0:
                sys.stderr.write(f"{label} exited {proc.returncode}:\n{proc.stderr}")
                return 1
            for path in sorted(out.iterdir()):
                digest = hashlib.sha256(path.read_bytes()).hexdigest()
                print(f"{digest}  {label}/{path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

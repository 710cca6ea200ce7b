"""Print the sha256 of every output file of a fixed list of nlqsim CLI calls.

    python3 tools/output_digests.py --seed S [--src DIR]

The calls are the full, setup and check invocations of each benchmark
workload, on the config that ``benchmarks/workloads.make(name, S)`` draws
(the workload definitions are only read), then a default ``bec`` and
``resources --n-min 1 --n-max 6 --steps 100 --instrument``. Each call runs
in a fresh process on the nlqsim package under ``--src`` (default: this
checkout's ``src``). One line is printed per output file, ``sha256  call/file``,
so two checkouts produce the same outputs exactly when the printouts of

    python3 tools/output_digests.py --seed S --src OLD/src > old.txt
    python3 tools/output_digests.py --seed S --src NEW/src > new.txt

have an empty ``diff``. A call that exits nonzero stops the tool with its
stderr and exit 1.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "benchmarks"))

import workloads  # noqa: E402

#: calls made without a config, after the workloads
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

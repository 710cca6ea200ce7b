"""The byte-identity promise: every output of the fixed call list of
``tools/output_digests.py`` hashes to the committed golden printout.

The tool runs each call in a fresh process on this checkout's ``src``. A
change that moves an output file updates ``tests/golden/digests_seed1.txt``
in the same diff and says why in CHANGES.md.
"""

import difflib
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "output_digests.py"
GOLDEN = Path(__file__).resolve().parent / "golden" / "digests_seed1.txt"


class TestGoldenDigests:
    def test_seed1_printout_matches_golden(self):
        proc = subprocess.run(
            [sys.executable, str(TOOL), "--seed", "1"],
            cwd=ROOT, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        expected = GOLDEN.read_text().splitlines()
        printed = proc.stdout.splitlines()
        diff = "\n".join(difflib.unified_diff(expected, printed, "golden", "printed", lineterm=""))
        assert printed == expected, f"outputs moved:\n{diff}"

"""Peak resident size of CLI commands on a dense mass document at the 20-element cap.

Writes a mass document with all 2**20 masses non-zero through
``documents.format_mass_document``, then runs ``beliefdyn combine`` (the
document with itself) and ``beliefdyn convert --to pl`` on it, each in a
child process.  Prints each child's peak resident size (``ru_maxrss``) and
exits 1 if a child fails or peaks above ``LIMIT_MB``.

A child's ``ru_maxrss`` counts the resident size of the process that
spawned it, so this script imports nothing heavy and writes the document
from a child of its own.  Run from the repository root::

    PYTHONPATH=src python tests/cap_memory.py
"""

import os
import subprocess
import sys
import tempfile
from pathlib import Path

LIMIT_MB = 300

WRITE = """
import sys
import numpy as np
from beliefdyn.belief import MassFunction
from beliefdyn.documents import format_mass_document
from beliefdyn.lattice import default_frame

values = np.random.default_rng(20).random(1 << 20) + 1e-3
frame = default_frame(20)
with open(sys.argv[1], "w") as file:
    file.write(format_mass_document(MassFunction(frame, values / values.sum())))
"""


def run(argv: list[str]) -> tuple[int, float]:
    """Exit code and peak resident size in MB of one child process."""
    proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    return os.waitstatus_to_exitcode(status), usage.ru_maxrss / 1024.0


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        doc = str(Path(tmp, "dense20.json"))
        code, _ = run([sys.executable, "-c", WRITE, doc])
        if code != 0:
            print(f"writing the document exited {code}")
            return 1
        print(f"dense n=20 mass document: {os.path.getsize(doc) / 1e6:.1f} MB")
        failed = False
        for argv in (["combine", doc, doc], ["convert", doc, "--to", "pl"]):
            out = str(Path(tmp, "out.json"))
            code, peak = run([sys.executable, "-m", "beliefdyn.cli", *argv, "-o", out])
            ok = code == 0 and peak <= LIMIT_MB
            failed |= not ok
            print(f"beliefdyn {argv[0]}: exit {code}, peak {peak:.1f} MB "
                  f"(limit {LIMIT_MB}) {'ok' if ok else 'FAILED'}")
        return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

"""Peak resident size of CLI commands on dense mass documents at the frame caps.

Writes mass documents with every mass non-zero through
``documents.format_mass_document``: one at the 20-element cap of the
vectors, one at the 10-element cap of the matrices.  Then runs ``beliefdyn
combine`` (the first document with itself) and ``beliefdyn convert --to
pl`` on the first, and ``beliefdyn matrix`` of ``--kind despecialization``
and of ``--kind disjunctive`` on the second, each in a child process.
Prints each child's peak resident size (``ru_maxrss``) and exits 1 if a
child fails or peaks above its limit.

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

LIMIT_MB = 300  # the commands on the 20-element document
MATRIX_LIMIT_MB = 100  # the matrix commands on the 10-element document

WRITE = """
import sys
import numpy as np
from beliefdyn.belief import MassFunction
from beliefdyn.documents import format_mass_document
from beliefdyn.lattice import default_frame

n = int(sys.argv[2])
values = np.random.default_rng(n).random(1 << n) + 1e-3
frame = default_frame(n)
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
        docs = {}
        for n in (20, 10):
            docs[n] = str(Path(tmp, f"dense{n}.json"))
            code, _ = run([sys.executable, "-c", WRITE, docs[n], str(n)])
            if code != 0:
                print(f"writing the n={n} document exited {code}")
                return 1
            print(f"dense n={n} mass document: {os.path.getsize(docs[n]) / 1e6:.2f} MB")
        failed = False
        for argv, limit in (
            (["combine", docs[20], docs[20]], LIMIT_MB),
            (["convert", docs[20], "--to", "pl"], LIMIT_MB),
            (["matrix", docs[10], "--kind", "despecialization"], MATRIX_LIMIT_MB),
            (["matrix", docs[10], "--kind", "disjunctive"], MATRIX_LIMIT_MB),
        ):
            out = str(Path(tmp, "out.txt"))
            code, peak = run([sys.executable, "-m", "beliefdyn.cli", *argv, "-o", out])
            ok = code == 0 and peak <= limit
            failed |= not ok
            command = " ".join(arg for arg in argv if not arg.startswith(tmp))
            print(f"beliefdyn {command}: exit {code}, peak {peak:.1f} MB "
                  f"(limit {limit}) {'ok' if ok else 'FAILED'}")
        return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

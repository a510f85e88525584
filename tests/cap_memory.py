"""Peak resident size of CLI commands on mass documents at the frame caps.

Writes mass documents through ``documents.format_mass_document``: one
with every mass non-zero at the 20-element cap of the vectors, one on 20
elements with 10 % of its masses zero, one with 1 000 masses on 20
elements, and one with every mass non-zero at the 10-element cap of the
matrices.  Then runs, each in a child process, ``beliefdyn combine`` of
the dense and of the 10 %-zero 20-element document with itself;
``beliefdyn condition`` of the dense one on every label but ``m``, whose
output lists no subset of every other chunk of ``2**12`` subsets;
``beliefdyn convert --to pl`` of the dense, the 10 %-zero and that
conditioned document, which read a document with and without gaps, and
of the 1 000 masses, which writes a dense one; and ``beliefdyn matrix``
of ``--kind despecialization`` and of ``--kind disjunctive`` on the
10-element document.  Prints each child's peak resident size
(``ru_maxrss``) and wall time, and exits 1 if a child fails or peaks
above its limit; the times are for the log and have no limit.

A child's ``ru_maxrss`` counts the resident size of the process that
spawned it, so this script imports nothing heavy and writes the documents
from children of its own.  Run from the repository root::

    PYTHONPATH=src python tests/cap_memory.py
"""

import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# Each limit is the peak measured on Python 3.11 plus about 15 %: combine 131.0 MB,
# convert --to pl 120.9 MB and 114.2 MB, matrix 81.0 MB.  On the documents with gaps:
# convert --to pl 119.6 MB and 119.7 MB of the 10 %-zero and the conditioned document,
# combine of the 10 %-zero one 122.1 MB, condition 120.9 MB.  Read whole, not in pieces,
# those three reads peak at 296.6, 185.9 and 322.1 MB, so the limit catches that route.
LIMIT_MB = 150  # the commands that read one of the 20-element documents but the 1 000 masses
WRITE_LIMIT_MB = 131  # convert --to pl of the 1 000 masses, a dense 20-element output
MATRIX_LIMIT_MB = 100  # the matrix commands on the 10-element document

WRITE = """
import sys
import numpy as np
from beliefdyn.belief import MassFunction
from beliefdyn.documents import format_mass_document
from beliefdyn.lattice import default_frame

n, focal = int(sys.argv[2]), int(sys.argv[3])
rng = np.random.default_rng(n)
values = np.zeros(1 << n)
values[rng.choice(1 << n, focal, replace=False)] = rng.random(focal) + 1e-3
frame = default_frame(n)
with open(sys.argv[1], "w") as file:
    file.write(format_mass_document(MassFunction(frame, values / values.sum())))
"""


# every label of the 20-element default frame but the 13th, the first label of a chunk's high key
NOT_M = "|".join(label for label in "abcdefghijklmnopqrst" if label != "m")


def run(argv: list[str]) -> tuple[int, float, float]:
    """Exit code, peak resident size in MB and wall time in seconds of one child process."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    return os.waitstatus_to_exitcode(status), usage.ru_maxrss / 1024.0, time.perf_counter() - start


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        docs = {}
        for name, n, focal in (
            ("dense20", 20, 1 << 20),
            ("gaps20", 20, (1 << 20) * 9 // 10),
            ("sparse20", 20, 1000),
            ("dense10", 10, 1 << 10),
        ):
            docs[name] = str(Path(tmp, f"{name}.json"))
            code, _, _ = run([sys.executable, "-c", WRITE, docs[name], str(n), str(focal)])
            if code != 0:
                print(f"writing the {name} document exited {code}")
                return 1
            print(f"{name} mass document, {focal} masses: {os.path.getsize(docs[name]) / 1e6:.2f} MB")
        docs["condition20"] = str(Path(tmp, "condition20.json"))
        out = str(Path(tmp, "out.txt"))
        failed = False
        for argv, limit, target in (
            (["combine", docs["dense20"], docs["dense20"]], LIMIT_MB, out),
            (["convert", docs["dense20"], "--to", "pl"], LIMIT_MB, out),
            (["condition", docs["dense20"], "--on", NOT_M], LIMIT_MB, docs["condition20"]),
            (["convert", docs["condition20"], "--to", "pl"], LIMIT_MB, out),
            (["convert", docs["gaps20"], "--to", "pl"], LIMIT_MB, out),
            (["combine", docs["gaps20"], docs["gaps20"]], LIMIT_MB, out),
            (["convert", docs["sparse20"], "--to", "pl"], WRITE_LIMIT_MB, out),
            (["matrix", docs["dense10"], "--kind", "despecialization"], MATRIX_LIMIT_MB, out),
            (["matrix", docs["dense10"], "--kind", "disjunctive"], MATRIX_LIMIT_MB, out),
        ):
            code, peak, wall = run([sys.executable, "-m", "beliefdyn.cli", *argv, "-o", target])
            ok = code == 0 and peak <= limit
            failed |= not ok
            command = " ".join(Path(arg).name if arg.startswith(tmp) else arg for arg in argv)
            print(f"beliefdyn {command}: exit {code}, peak {peak:.1f} MB "
                  f"(limit {limit}), {wall:.2f} s {'ok' if ok else 'FAILED'}")
        return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

"""The four workloads: inputs from a seed, one job, and its output checks.

A job is one realistic unit of user work of near-constant cost.  Inputs
have a fixed number of focal sets, so a job's cost does not depend on the
seed; they are built before the job's clock starts and the program
receives only them.  Checks run after the clock stops.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import checks


@dataclass
class Context:
    """What a workload needs from the run: its seed, the checkout, the
    environment of program child processes and a scratch directory."""

    seed: int
    root: Path
    child_env: dict[str, str]
    work_dir: Path


def child_env(root: Path) -> dict[str, str]:
    """The environment of program child processes: ``src/`` on the path."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def job_rng(seed: int, job: int, stream: int = 0) -> np.random.Generator:
    return np.random.default_rng([seed, job, stream])


def fixed_masses(rng, n: int, focal: int, on_full: float = 0.0) -> np.ndarray:
    """Masses on exactly ``focal`` subsets other than the full frame (all of
    them when ``focal`` reaches that count), plus ``on_full`` on the full frame."""
    size = 1 << n
    sets = np.arange(size - 1) if focal >= size - 1 else rng.choice(size - 1, focal, replace=False)
    values = np.zeros(size)
    weights = rng.uniform(0.5, 1.5, len(sets))
    values[sets] = (1.0 - on_full) * weights / weights.sum()
    values[-1] += on_full
    return values


def random_bits(rng, n: int, count: int) -> int:
    """A subset of exactly ``count`` of the ``n`` elements."""
    return int(sum(1 << int(i) for i in rng.choice(n, count, replace=False)))


class Workload:
    name = ""
    setup_module = "beliefdyn"

    def __init__(self, ctx):
        self.ctx = ctx
        self.seed = ctx.seed

    def warm_up(self) -> None:
        """Untimed pass so lazy set-up and caches are done before timing."""
        inp = self.make_input(0)
        self.check(inp, self.run(inp))

    def make_input(self, job: int):
        raise NotImplementedError

    def run(self, inp):
        raise NotImplementedError

    def check(self, inp, out) -> int:
        """Raise :class:`checks.CheckFailed` on a wrong output; return the
        number of instances verified."""
        raise NotImplementedError

    def in_process(self, inp):
        """The job run in this process, where the tracer can see it."""
        return self.run(inp)

    def beside_trace(self, inp) -> None:
        """Untraced work done once per traced job, for metrics the tracer cannot see."""

    def layer_extras(self, setup_s: float) -> dict[str, float]:
        return {}

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------

# Published sample count (``run_all`` defaults) and frame-size cap of each check.
CHECK_PLAN = {
    "conditioning-least-committed": (500, 4),
    "conditioning-idempotent": (None, 4),
    "commuting-implies-dempsterian": (100, 4),
    "dempsterian-commutation": (200, 5),
    "combination-least-committed": (300, 4),
    "eigenstructure": (200, 5),
    "dynamics-invariants": (300, 6),
}
SUITE_SIZES = (1, 2, 3, 4)
# Sample count of the untimed fault-injection suite; small so it costs
# little, large enough that every check runs its sampled instances.
FAULT_SAMPLES = 4


def expected_instances(check: str, n: int, samples: int | None = None) -> int:
    default, cap = CHECK_PLAN[check]
    if n > cap:
        return 0
    if check == "conditioning-idempotent":
        # every conditioning matrix, then every ordered pair
        return 2**n + 4**n
    count = samples if samples is not None else default
    if check == "commuting-implies-dempsterian" and 2 <= n <= 3:
        # the contrapositive half runs on frames of 2 and 3 elements
        count *= 2
    return count


class CheckSuite(Workload):
    """One ``verify.run_all`` at the CLI defaults: what ``beliefdyn check`` waits on."""

    name = "check-suite"

    def __init__(self, ctx):
        super().__init__(ctx)
        from beliefdyn import verify

        self.verify = verify

    def warm_up(self) -> None:
        # The fault-injected suite must fail exactly the eigenstructure
        # report at each size, with a witness, and nothing else.
        reports = self.verify.run_all(
            sizes=SUITE_SIZES, samples=FAULT_SAMPLES, seed=self.seed, inject_fault=True
        )
        for r in reports:
            if r.check == "eigenstructure":
                checks.require(not r.passed and r.witness, f"injected fault missed at n={r.n}")
            else:
                checks.require(r.passed, f"{r.check} n={r.n} failed under fault injection")
        seen = {(r.check, r.n) for r in reports if r.check == "eigenstructure"}
        checks.require(seen == {("eigenstructure", n) for n in SUITE_SIZES},
                       "fault suite skipped a size")
        self._check_counts(reports, FAULT_SAMPLES)

    def make_input(self, job: int) -> int:
        return int(np.random.SeedSequence([self.seed, job]).generate_state(1)[0])

    def run(self, job_seed: int):
        return self.verify.run_all(sizes=SUITE_SIZES, seed=job_seed)

    def _check_counts(self, reports, samples=None) -> int:
        got = {(r.check, r.n): r.instances for r in reports}
        want = {
            (c, n): expected_instances(c, n, samples)
            for c in CHECK_PLAN
            for n in SUITE_SIZES
            if expected_instances(c, n, samples)
        }
        checks.require(got == want, f"instance counts {got} != published {want}")
        return sum(got.values())

    def check(self, job_seed, reports) -> int:
        for r in reports:
            checks.require(r.passed, f"{r.check} n={r.n} failed: {r.witness}")
        return self._check_counts(reports)

    def instances_by_check(self, reports) -> dict[str, int]:
        out = dict.fromkeys(CHECK_PLAN, 0)
        for r in reports:
            out[r.check] += r.instances
        return out


# ---------------------------------------------------------------------------

STREAM_N = 20
STREAM_STATE_FOCAL = 256
STREAM_EVIDENCE_FOCAL = 32
STREAM_EVIDENCE_ON_FULL = 0.25  # keeps every commonality positive, so retract is defined
STREAM_ENLARGE_SIZE = 3
STREAM_SAMPLED_SUBSETS = 16


class EvidenceStream(Workload):
    """One update step on a frame of 20 elements, in process."""

    name = "evidence-stream"

    def __init__(self, ctx):
        super().__init__(ctx)
        import beliefdyn as bd

        self.bd = bd
        self.frame = bd.default_frame(STREAM_N)

    def make_input(self, job: int):
        rng = job_rng(self.seed, job)
        bd = self.bd
        return {
            "state": bd.MassFunction(self.frame, fixed_masses(rng, STREAM_N, STREAM_STATE_FOCAL)),
            "evidence": bd.MassFunction(
                self.frame,
                fixed_masses(rng, STREAM_N, STREAM_EVIDENCE_FOCAL, STREAM_EVIDENCE_ON_FULL),
            ),
            "condition": int(rng.integers(1 << STREAM_N)),
            "enlarge": random_bits(rng, STREAM_N, STREAM_ENLARGE_SIZE),
            "subsets": checks.sample_subsets(
                STREAM_N, STREAM_SAMPLED_SUBSETS, job_rng(self.seed, job, 1)
            ),
        }

    def run(self, inp):
        bd = self.bd
        m0, m1 = inp["state"], inp["evidence"]
        both = bd.combine_conjunctive(m0, m1)
        either = bd.combine_disjunctive(m0, m1)
        conditioned = bd.condition(both, inp["condition"])
        return {
            "conjunctive": both,
            "disjunctive": either,
            "conditioned": conditioned,
            "enlarged": bd.enlarge(conditioned, inp["enlarge"]),
            "retracted": bd.retract(both, m1),
            "bel": bd.bel_from_mass(both),
            "pl": bd.pl_from_mass(both),
            "q": bd.q_from_mass(both),
            "order": bd.compare(both, m0),
        }

    def check(self, inp, out) -> int:
        m0, m1 = inp["state"].values, inp["evidence"].values
        both = out["conjunctive"].values
        subsets = inp["subsets"]
        checks.check_combination("conjunctive", m0, m1, both, subsets)
        checks.check_combination("disjunctive", m0, m1, out["disjunctive"].values, subsets)
        checks.check_condition(both, inp["condition"], out["conditioned"].values)
        checks.check_enlarge(out["conditioned"].values, inp["enlarge"], out["enlarged"].values)
        checks.check_round_trip(out["retracted"].values, m0, "retract")
        for kind in ("bel", "pl", "q"):
            checks.check_values(kind, both, out[kind].values, subsets)
        # a conjunctive update never leaves the state less committed
        checks.require(out["order"].value in ("equal", "first-more-committed"),
                       f"compare(m0 + m1, m0) is {out['order'].value}")
        return 9


# ---------------------------------------------------------------------------

DOC_N = 16
DOC_EVIDENCE_FOCAL = 32
DOC_EVIDENCE_ON_FULL = 0.25
DOC_CONDITION_SIZE = 4
DOC_ENLARGE_SIZE = 4
DOC_SAMPLED_SUBSETS = 16
COMMANDS = ("combine", "condition", "convert", "retract", "enlarge")
INTERPRETER_READINGS = 5


class CliDocuments(Workload):
    """One session of CLI commands on documents, each reading an earlier output."""

    name = "cli-documents"
    setup_module = "beliefdyn.cli"

    def __init__(self, ctx):
        super().__init__(ctx)
        from beliefdyn import cli

        self.cli = cli
        self.labels = checks.LabelMap(checks.labels_for(DOC_N))
        self.work = ctx.work_dir
        self.command_ms: dict[str, list[float]] = {c: [] for c in COMMANDS}
        self.peak_kb = 0
        self.launcher = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("launcher.py"))],
            env=ctx.child_env,
            cwd=ctx.root,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    def warm_up(self) -> None:
        # The fresh-interpreter setup readings have already loaded what a
        # command imports; the first session is as warm as the rest.
        pass

    def close(self) -> None:
        self.launcher.stdin.close()
        self.launcher.stdout.close()
        self.launcher.wait()

    def peak_rss_mb(self) -> float:
        return self.peak_kb / 1024.0

    def _path(self, name: str) -> str:
        return str(self.work / name)

    def argv(self, inp, prefix: str) -> list[tuple[str, list[str]]]:
        p = lambda name: self._path(prefix + name)  # noqa: E731
        a, b = self._path("a.json"), self._path("b.json")
        return [
            ("combine", ["combine", a, b, "-o", p("ab.json")]),
            ("condition", ["condition", p("ab.json"), "--on", inp["condition"], "-o", p("k.json")]),
            ("convert", ["convert", p("k.json"), "--to", "bel", "-o", p("kbel.json")]),
            ("retract", ["retract", p("ab.json"), "--evidence", b, "-o", p("r.json")]),
            ("enlarge", ["enlarge", p("r.json"), "--on", inp["enlarge"], "-o", p("e.json")]),
        ]

    def make_input(self, job: int):
        rng = job_rng(self.seed, job)
        a = fixed_masses(rng, DOC_N, 1 << DOC_N)
        b = fixed_masses(rng, DOC_N, DOC_EVIDENCE_FOCAL, DOC_EVIDENCE_ON_FULL)
        c = random_bits(rng, DOC_N, DOC_CONDITION_SIZE)
        d = random_bits(rng, DOC_N, DOC_ENLARGE_SIZE)
        Path(self._path("a.json")).write_text(checks.write_mass_document(self.labels, a))
        Path(self._path("b.json")).write_text(checks.write_mass_document(self.labels, b))
        return {
            "a": a,
            "b": b,
            "c": c,
            "d": d,
            "condition": self.labels.keys[c],
            "enlarge": self.labels.keys[d],
            "subsets": checks.sample_subsets(DOC_N, DOC_SAMPLED_SUBSETS, job_rng(self.seed, job, 1)),
        }

    def run(self, inp):
        for command, argv in self.argv(inp, ""):
            t0 = perf_counter()
            self.launcher.stdin.write(json.dumps([sys.executable, "-m", "beliefdyn.cli", *argv]) + "\n")
            self.launcher.stdin.flush()
            reply = json.loads(self.launcher.stdout.readline())
            self.command_ms[command].append((perf_counter() - t0) * 1000.0)
            if reply["code"] != 0:
                raise RuntimeError(f"beliefdyn {command} exited {reply['code']}: {reply['stderr']}")
            self.peak_kb = max(self.peak_kb, reply["maxrss_kb"])
        return ""

    def in_process(self, inp):
        for command, argv in self.argv(inp, "replay-"):
            code = self.cli.main(argv)
            if code != 0:
                raise RuntimeError(f"beliefdyn {command} returned {code} in process")
        return "replay-"

    def _read(self, prefix: str, name: str):
        return checks.read_document(Path(self._path(prefix + name)).read_text(), self.labels)

    def check(self, inp, prefix) -> int:
        subsets = inp["subsets"]
        kind, ab = self._read(prefix, "ab.json")
        checks.require(kind == "mass", "combine wrote no mass document")
        checks.check_combination("conjunctive", inp["a"], inp["b"], ab, subsets, checks.TOL_DOCUMENT)
        kind, k = self._read(prefix, "k.json")
        checks.require(kind == "mass", "condition wrote no mass document")
        checks.check_condition(ab, inp["c"], k, checks.TOL_DOCUMENT)
        kind, bel = self._read(prefix, "kbel.json")
        checks.require(kind == "bel", f"convert --to bel wrote kind {kind!r}")
        checks.check_values("bel", k, bel, subsets, checks.TOL_DOCUMENT)
        kind, r = self._read(prefix, "r.json")
        checks.require(kind == "mass", "retract wrote no mass document")
        checks.check_round_trip(r, inp["a"], "retract")
        kind, e = self._read(prefix, "e.json")
        checks.require(kind == "mass", "enlarge wrote no mass document")
        checks.check_enlarge(r, inp["d"], e, checks.TOL_DOCUMENT)
        return len(COMMANDS)

    def beside_trace(self, inp) -> None:
        # the traced session runs in process; time the commands as a user runs them
        self.check(inp, self.run(inp))

    def layer_extras(self, setup_s: float) -> dict[str, float]:
        readings = []
        for _ in range(INTERPRETER_READINGS):
            t0 = perf_counter()
            subprocess.run([sys.executable, "-c", "pass"], env=self.ctx.child_env, check=True)
            readings.append((perf_counter() - t0) * 1000.0)
        extras = {f"cli.{c}_ms": statistics.median(v) for c, v in self.command_ms.items()}
        extras["cli.interpreter_ms"] = statistics.median(readings)
        extras["cli.import_ms"] = setup_s * 1000.0
        return extras


# ---------------------------------------------------------------------------

MATRIX_N = 10
MATRIX_ON_FULL = 0.5  # keeps every commonality at least 0.5, so the inverse is well conditioned


class OperatorMatrices(Workload):
    """The paper's matrix view at the matrix cap: build, diagonalize, invert, apply."""

    name = "operator-matrices"

    def __init__(self, ctx):
        super().__init__(ctx)
        import beliefdyn as bd

        self.bd = bd
        self.frame = bd.default_frame(MATRIX_N)

    def make_input(self, job: int):
        rng = job_rng(self.seed, job)
        size = 1 << MATRIX_N
        return {
            "m": self.bd.MassFunction(self.frame, fixed_masses(rng, MATRIX_N, size, MATRIX_ON_FULL)),
            "x": self.bd.MassFunction(self.frame, fixed_masses(rng, MATRIX_N, size)),
        }

    def run(self, inp):
        bd = self.bd
        s = bd.dempsterian_matrix(inp["m"])
        structure = bd.eigen_structure(s)
        d = bd.despecialize_matrix(s)
        g = bd.disjunctive_matrix(inp["m"])
        specialized = bd.apply(inp["x"], s)
        return {
            "s": s,
            "structure": structure,
            "d": d,
            "specialized": specialized,
            "generalized": bd.apply_generalization(inp["x"], g),
            "restored": bd.apply_despecialization(specialized, d),
        }

    def check(self, inp, out) -> int:
        m, x = inp["m"].values, inp["x"].values
        checks.require_close(out["specialized"].values, checks.double_sum(x, m, "conjunctive"),
                             checks.TOL, "apply vs double sum")
        checks.require_close(out["generalized"].values, checks.double_sum(x, m, "disjunctive"),
                             checks.TOL, "apply_generalization vs double sum")
        q = [checks.q_at(m, a) for a in range(m.size)]
        checks.require_close(out["structure"].eigenvalues, q, checks.TOL,
                             "eigenvalues vs commonality")
        checks.require_close(out["s"].values @ out["d"].values, np.eye(m.size), checks.TOL,
                             "S @ D vs identity")
        checks.check_round_trip(out["restored"].values, x, "apply_despecialization")
        return 5


WORKLOADS = {w.name: w for w in (CheckSuite, EvidenceStream, CliDocuments, OperatorMatrices)}

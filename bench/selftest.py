"""Self-test of the benchmark's output checks: each must reject a planted error.

Run from the root of a checkout (not part of the test suite, it runs the
program at full size for about half a minute)::

    python3 bench/selftest.py

For every workload one job runs for real and its outputs must pass; then
each output in turn is replaced by a copy carrying one planted error (a
perturbed mass, an altered document value, a failed or miscounted report)
and the workload's check must raise :class:`checks.CheckFailed`.
"""

from __future__ import annotations

import json
import sys
import types
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402

DELTA = 1e-6


class Failures:
    def __init__(self):
        self.missed: list[str] = []
        self.caught = 0

    def expect_reject(self, what: str, fn) -> None:
        try:
            fn()
        except checks.CheckFailed:
            self.caught += 1
            return
        self.missed.append(what)
        print(f"MISSED: {what}", file=sys.stderr)


def moved(values: np.ndarray, src: int, dst: int) -> np.ndarray:
    """Copy of ``values`` with DELTA moved from ``src`` to ``dst`` (total kept)."""
    out = np.array(values, dtype=np.float64)
    out[src] -= DELTA
    out[dst] += DELTA
    return out


def focal_pair(values: np.ndarray, rng) -> tuple[int, int]:
    focal = np.flatnonzero(values > DELTA)
    src = int(rng.choice(focal))
    dst = int(rng.integers(values.size))
    while dst == src:
        dst = int(rng.integers(values.size))
    return src, dst


def ctx():
    work = ROOT / ".bench_out" / "selftest"
    work.mkdir(parents=True, exist_ok=True)
    return workloads.Context(1, ROOT, workloads.child_env(ROOT), work)


def planted(values) -> types.SimpleNamespace:
    return types.SimpleNamespace(values=values)


def test_evidence_stream(f: Failures, rng) -> None:
    w = workloads.EvidenceStream(ctx())
    inp = w.make_input(1)
    out = w.run(inp)
    w.check(inp, out)
    for key in ("conjunctive", "disjunctive", "conditioned", "enlarged", "retracted"):
        values = out[key].values
        bad = dict(out, **{key: planted(moved(values, *focal_pair(values, rng)))})
        f.expect_reject(f"evidence-stream {key}", lambda bad=bad: w.check(inp, bad))
    for kind in ("bel", "pl", "q"):
        values = np.array(out[kind].values)
        values[inp["subsets"][3]] += DELTA
        bad = dict(out, **{kind: planted(values)})
        f.expect_reject(f"evidence-stream {kind}", lambda bad=bad: w.check(inp, bad))
    bad = dict(out, order=types.SimpleNamespace(value="second-more-committed"))
    f.expect_reject("evidence-stream compare", lambda: w.check(inp, bad))


def test_dense_products(f: Failures, rng) -> None:
    """The dense branch: commonality and implicability products at sampled subsets."""
    n = 12
    dense = rng.uniform(0.5, 1.5, 1 << n)
    dense /= dense.sum()
    sparse = workloads.fixed_masses(rng, n, 32, 0.25)
    subsets = checks.sample_subsets(n, 16, rng)
    for rule in ("conjunctive", "disjunctive"):
        want = checks.double_sum(dense, sparse, rule)
        checks.check_combination(rule, dense, sparse, want, subsets)
        bad = moved(want, *focal_pair(want, rng))
        f.expect_reject(
            f"dense {rule} product",
            lambda rule=rule, bad=bad: checks.check_combination(rule, dense, sparse, bad, subsets),
        )


def test_operator_matrices(f: Failures, rng) -> None:
    w = workloads.OperatorMatrices(ctx())
    inp = w.make_input(1)
    out = w.run(inp)
    w.check(inp, out)
    for key in ("specialized", "generalized", "restored"):
        values = out[key].values
        bad = dict(out, **{key: planted(moved(values, *focal_pair(values, rng)))})
        f.expect_reject(f"operator-matrices {key}", lambda bad=bad: w.check(inp, bad))
    eig = np.array(out["structure"].eigenvalues)
    eig[int(rng.integers(eig.size))] += DELTA
    bad = dict(out, structure=types.SimpleNamespace(eigenvalues=eig))
    f.expect_reject("operator-matrices eigenvalues", lambda: w.check(inp, bad))
    d = np.array(out["d"].values)
    d[int(rng.integers(d.shape[0])), int(rng.integers(d.shape[1]))] += DELTA
    bad = dict(out, d=planted(d))
    f.expect_reject("operator-matrices S @ D", lambda: w.check(inp, bad))


def test_cli_documents(f: Failures, rng) -> None:
    w = workloads.CliDocuments(ctx())
    try:
        inp = w.make_input(1)
        prefix = w.run(inp)
    finally:
        w.close()
    w.check(inp, prefix)
    for name in ("ab.json", "k.json", "kbel.json", "r.json", "e.json"):
        path = Path(w._path(prefix + name))
        original = path.read_text()
        doc = json.loads(original)
        mapping = doc.get("masses", doc.get("values"))
        keys = list(mapping)
        if name == "kbel.json":
            # bel values are checked at the sampled subsets
            keys = [w.labels.keys[s] for s in inp["subsets"][3:4]]
        src = keys[int(rng.integers(len(keys)))]
        dst = keys[int(rng.integers(len(keys)))] if name != "kbel.json" else None
        mapping[src] -= DELTA
        if dst is not None and dst != src:
            mapping[dst] += DELTA
        path.write_text(json.dumps(doc))
        f.expect_reject(f"cli-documents {name}", lambda: w.check(inp, prefix))
        path.write_text(original)
    w.check(inp, prefix)


def test_check_suite(f: Failures) -> None:
    from beliefdyn.verify import CheckReport

    w = workloads.CheckSuite(ctx())
    w.warm_up()
    good = [
        CheckReport(c, n, workloads.expected_instances(c, n), 0, 0.0)
        for n in workloads.SUITE_SIZES
        for c in workloads.CHECK_PLAN
        if workloads.expected_instances(c, n)
    ]
    checks.require(w.check(0, good) == 6970, "published instance total is not 6970")
    failed = list(good)
    failed[5] = CheckReport(good[5].check, good[5].n, good[5].instances, 1, 1.0, "{}")
    f.expect_reject("check-suite failed report", lambda: w.check(0, failed))
    fewer = list(good)
    fewer[0] = CheckReport(good[0].check, good[0].n, good[0].instances - 1, 0, 0.0)
    f.expect_reject("check-suite instance count", lambda: w.check(0, fewer))
    f.expect_reject("check-suite missing report", lambda: w.check(0, good[1:]))


def main() -> int:
    rng = np.random.default_rng(7)
    f = Failures()
    test_check_suite(f)
    test_evidence_stream(f, rng)
    test_dense_products(f, rng)
    test_operator_matrices(f, rng)
    test_cli_documents(f, rng)
    print(f"planted errors caught: {f.caught}, missed: {len(f.missed)}")
    return 1 if f.missed else 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark of beliefdyn: one workload per run, closed loop, checked outputs.

Usage, from the root of a checkout::

    python3 bench/run.py --workload check-suite --seed 1 --seconds 20 --trace 0

The program runs from ``src/`` of the checkout.  One client process runs
jobs back to back, starting new ones for ``--seconds`` of wall time; every
output is checked after its job's clock stops.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` each job is run once untraced and once with every layer
wrapped (see ``tracing.py``), and the metrics are per layer, per job.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

# One BLAS thread for this process and every program process it starts.
# OpenBLAS starts a thread per core when numpy is imported; where cores are
# shared, starting the second one doubled numpy's import time at some times
# and not at others, and that import is most of set-up.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# Fresh-interpreter readings behind each setup_s: a single import time
# moves by tens of percent from one reading to the next, a median less.
SETUP_READINGS = 7


def fresh_interpreter_seconds(code: str, env) -> float:
    """Run ``code`` in a new interpreter; it prints one float, which is returned."""
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, cwd=ROOT, capture_output=True, text=True
    )
    if proc.returncode != 0:
        raise RuntimeError(f"fresh interpreter failed: {proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1])


def setup_seconds(module: str, env) -> float:
    """Median import time of ``module`` in fresh interpreters (after one warm-up)."""
    code = (
        "import time; t = time.perf_counter(); import " + module
        + "; print(time.perf_counter() - t)"
    )
    fresh_interpreter_seconds(code, env)
    return statistics.median(fresh_interpreter_seconds(code, env) for _ in range(SETUP_READINGS))


class Tally:
    """Operations attempted and failed in one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0


def timed_run(workload, seconds: float, tally: Tally):
    """Closed loop for ``seconds`` of wall time; returns (job times, instances per job)."""
    times: list[float] = []
    instances = None
    job = 1
    end = perf_counter() + seconds
    while perf_counter() < end:
        inp = workload.make_input(job)
        job += 1
        tally.attempted += 1
        t0 = perf_counter()
        try:
            out = workload.run(inp)
        except Exception:
            tally.failed += 1
            traceback.print_exc(file=sys.stderr)
            continue
        elapsed = perf_counter() - t0
        count = workload.check(inp, out)
        if instances not in (None, count):
            raise RuntimeError(f"instances verified per job changed: {instances} -> {count}")
        instances = count
        times.append(elapsed)
    return times, instances


def traced_run(workload, seconds: float, tally: Tally):
    """Alternate untraced and traced runs of each job; per-layer metrics per traced job."""
    import layers
    import tracing

    totals: dict[str, float] = {}
    untraced: list[float] = []
    traced: list[float] = []
    job = 1
    tracer = tracing.Tracer()
    end = perf_counter() + seconds
    while perf_counter() < end or not traced:
        inp = workload.make_input(job)
        job += 1
        workload.beside_trace(inp)
        tally.attempted += 2
        t0 = perf_counter()
        out = workload.in_process(inp)
        untraced.append(perf_counter() - t0)
        workload.check(inp, out)
        tracer.reset()
        out, seconds_traced = tracer.run(workload.in_process, inp)
        traced.append(seconds_traced)
        workload.check(inp, out)
        table = tracer.table()
        for name, value in layers.layer_metrics(table, tracer.reports, workload, out).items():
            totals[name] = totals.get(name, 0.0) + value
    jobs = len(traced)
    metrics = {name: value / jobs for name, value in totals.items()}
    metrics["trace.overhead_s"] = (sum(traced) - sum(untraced)) / jobs
    OUT.mkdir(exist_ok=True)
    table.save(OUT / f"spans-{workload.name}-{workload.seed}.npz")
    return metrics


def load_declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def emit(correct: bool, attempted: int, failed: int, metrics: dict[str, tuple[float, str]]) -> None:
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "beliefdyn" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import checks
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"known: {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    env = workloads.child_env(ROOT)
    cls = workloads.WORKLOADS[args.workload]
    setup_s = setup_seconds(cls.setup_module, env)

    import beliefdyn

    if Path(beliefdyn.__file__).resolve().parent != (SRC / "beliefdyn").resolve():
        print(f"error: imported beliefdyn from {beliefdyn.__file__}, not {SRC}", file=sys.stderr)
        return 2

    declared = load_declared()
    ctx = workloads.Context(args.seed, ROOT, env, OUT / "work")
    ctx.work_dir.mkdir(parents=True, exist_ok=True)
    workload = cls(ctx)
    tally = Tally()
    try:
        workload.warm_up()
        if args.trace:
            values = traced_run(workload, args.seconds, tally)
            values.update(workload.layer_extras(setup_s))
            kind = "per_layer"
        else:
            times, instances = timed_run(workload, args.seconds, tally)
            if not times:
                raise RuntimeError("no job completed")
            values = {
                "setup_s": setup_s,
                "jobs_per_s": len(times) / sum(times),
                "job_p50_ms": statistics.median(times) * 1000.0,
                "peak_rss_mb": workload.peak_rss_mb(),
                "check_instances": float(instances),
            }
            kind = "end_to_end"
    except checks.CheckFailed as exc:
        print(f"error: output check failed: {exc}", file=sys.stderr)
        emit(False, max(tally.attempted, 1), tally.failed, {})
        return 1
    finally:
        workload.close()
        for path in ctx.work_dir.glob("*.json"):
            path.unlink()
    units = {m["name"]: m["unit"] for m in declared[kind]}
    if set(values) - set(units):
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {sorted(set(values) - set(units))}")
    # a layer the workload never calls reads zero
    metrics = {name: (values.get(name, 0.0), unit) for name, unit in units.items()}
    emit(True, tally.attempted, tally.failed, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())

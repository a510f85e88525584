"""Per-layer metrics of one traced job, derived from its spans.

Every layer reports ``<layer>.self_s``; with ``trace.bench_self_s`` (the
benchmark's own code inside the job) they add up to ``trace.job_s``, the
traced job time.  ``<layer>.calls`` counts calls of the layer's functions
(for ``lattice``, of the four transforms, the kernel the other lattice
metrics describe); constructions of validated classes are counted apart
as builds.
"""

from __future__ import annotations

import numpy as np

from tracing import LAYERS, ROOT, VALIDATED_CLASSES
from workloads import CHECK_PLAN

TRANSFORMS = ("zeta_subsets", "mobius_subsets", "zeta_supersets", "mobius_supersets")
RULES = ("condition", "enlarge", "combine_conjunctive", "combine_disjunctive", "retract")
MATRIX_FUNCTIONS = (
    "dempsterian_matrix",
    "disjunctive_matrix",
    "conditioning_matrix",
    "eigen_structure",
    "despecialize_matrix",
    "is_dempsterian",
    "is_valid_specialization",
    "apply",
    "apply_generalization",
    "apply_despecialization",
)
SAMPLERS = (
    "random_mass",
    "random_specialization",
    "sigma_star_specialization",
    "dominated_specialization",
)
FORMATTERS = ("format_mass_document", "format_value_document", "format_matrix")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(table, reports: dict[str, str], workload, out) -> dict[str, float]:
    ids = {name: i for i, name in enumerate(table.names)}
    k = len(table.names)
    count = np.bincount(table.name, minlength=k)
    self_time = np.bincount(table.name, weights=table.self_time, minlength=k)
    duration = np.bincount(table.name, weights=table.duration, minlength=k)
    amount = np.bincount(table.name, weights=table.amount, minlength=k)

    def total(arr, names) -> float:
        return float(sum(arr[ids[n]] for n in names if n in ids))

    builds = {f"{layer}.{cls}" for layer, classes in VALIDATED_CLASSES.items() for cls in classes}
    m: dict[str, float] = {}
    for layer in LAYERS:
        in_layer = [n for n in table.names if n.split(".")[0] == layer]
        m[f"{layer}.self_s"] = total(self_time, in_layer)
        m[f"{layer}.calls"] = total(count, [n for n in in_layer if n not in builds])

    transforms = [f"lattice.{t}" for t in TRANSFORMS]
    m["lattice.calls"] = total(count, transforms)
    transform_spans = np.isin(table.name, [ids[n] for n in transforms if n in ids])
    sizes = table.amount[transform_spans]
    m["lattice.entries"] = float(sizes.sum())
    m["lattice.entries_per_s"] = _ratio(m["lattice.entries"], total(self_time, transforms))
    # n butterfly passes, each reading and writing 2**n float64 entries
    m["lattice.computed_bytes"] = float((np.log2(sizes) * 2 * 8 * sizes).sum())

    m["belief.mass_builds"] = total(count, ["belief.MassFunction"])
    m["belief.build_s"] = total(duration, ["belief.MassFunction"])
    for rule in RULES:
        m[f"dynamics.{rule}.self_s"] = total(self_time, [f"dynamics.{rule}"])
    m["specialization.matrices_built"] = total(
        count, [f"specialization.{c}" for c in VALIDATED_CLASSES["specialization"]]
    )
    for fn in MATRIX_FUNCTIONS:
        m[f"specialization.{fn}.self_s"] = total(self_time, [f"specialization.{fn}"])

    formatters = [f"documents.{f}" for f in FORMATTERS]
    m["documents.parse_s"] = total(duration, ["documents.parse_document"])
    m["documents.format_s"] = total(duration, formatters)
    m["documents.bytes_read"] = total(amount, ["documents.parse_document"])
    m["documents.bytes_written"] = total(amount, formatters)
    m["documents.parse_mb_per_s"] = _ratio(m["documents.bytes_read"] / 1e6, m["documents.parse_s"])
    m["documents.format_mb_per_s"] = _ratio(m["documents.bytes_written"] / 1e6, m["documents.format_s"])

    instances = workload.instances_by_check(out) if hasattr(workload, "instances_by_check") else {}
    for check in CHECK_PLAN:
        fns = [fn for fn, c in reports.items() if c == check]
        m[f"verify.{check}.self_s"] = total(self_time, fns)
        m[f"verify.{check}.wall_s"] = total(duration, fns)
        m[f"verify.{check}.instances"] = float(instances.get(check, 0))
    m["verify.samplers.self_s"] = total(self_time, [f"verify.{s}" for s in SAMPLERS])
    # Each candidate row the sampler tries costs one subset transform made
    # directly under its span; every row of the matrix is accepted once.
    dominated = ids.get("verify.dominated_specialization")
    candidates = 0
    if dominated is not None and "lattice.zeta_subsets" in ids:
        under = table.parent[table.name == ids["lattice.zeta_subsets"]]
        under = under[under >= 0]
        candidates = int(np.count_nonzero(table.name[under] == dominated))
    m["verify.dominated.candidates_per_row"] = _ratio(
        candidates, total(amount, ["verify.dominated_specialization"])
    )

    m["trace.job_s"] = total(duration, [ROOT])
    m["trace.bench_self_s"] = total(self_time, [ROOT])
    return m

"""Acceptance suite: one test per shipping criterion, run with ``pytest -s``
to see the per-criterion pass lines.

Expected values come from independent oracles (quadratic double sums, naive
lattice enumeration) or from hand-checkable micro-examples; the fast library
paths are never their own referee.
"""

import time

import numpy as np
import pytest

from beliefdyn.belief import (
    MassFunction,
    b_from_mass,
    bel_from_mass,
    least_committed_from_disjoint_constraints,
    mass_from,
    pl_from_mass,
    q_from_mass,
    vacuous,
)
from beliefdyn.cli import main
from beliefdyn.dynamics import combine_conjunctive, combine_disjunctive, condition, enlarge, retract
from beliefdyn.errors import EvidenceNotContainedError, NonInvertibleEvidenceError
from beliefdyn.lattice import default_frame, zeta_subsets
from beliefdyn.specialization import (
    apply,
    apply_generalization,
    conditioning_matrix,
    disjunctive_matrix,
)
from beliefdyn.verify import (
    check_combination_least_committed,
    check_commuting_implies_dempsterian,
    check_conditioning_idempotent,
    check_conditioning_least_committed,
    check_dempsterian_commutation,
    check_eigen_structure,
    random_mass,
)
from oracles import naive_zeta_subsets, naive_zeta_supersets


def report(number: int, name: str, detail: str):
    print(f"ACCEPTANCE {number:02d} {name}: PASS ({detail})")


def double_sum_combine(m0: np.ndarray, m1: np.ndarray, op) -> np.ndarray:
    """Vectorized quadratic double sum, independent of the transform path."""
    idx = np.arange(m0.size)
    out = np.zeros_like(m0)
    np.add.at(out, op(idx[:, None], idx[None, :]), m0[:, None] * m1[None, :])
    return out


def test_01_partial_knowledge_worked_example():
    frame = default_frame(3)
    constraints = [(frame.subset(["a"]), 0.3), (frame.subset(["b", "c"]), 0.5)]
    least_committed_from_disjoint_constraints(frame, constraints)  # warm up
    start = time.perf_counter()
    m = least_committed_from_disjoint_constraints(frame, constraints)
    elapsed = time.perf_counter() - start
    assert abs(m.mass(0b001) - 0.3) <= 1e-12
    assert abs(m.mass(0b110) - 0.5) <= 1e-12
    assert abs(m.mass(0b111) - 0.2) <= 1e-12
    assert m.values.sum() == pytest.approx(1.0, abs=1e-12)
    assert elapsed < 1e-3
    report(1, "partial-knowledge example", f"{elapsed * 1e6:.0f} us")


def test_02_representation_round_trips():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for i in range(1000):
        frame = default_frame(i % 8 + 1)
        m = random_mass(frame, rng)
        for convert in (bel_from_mass, pl_from_mass, q_from_mass, b_from_mass):
            worst = max(worst, float(np.abs(mass_from(convert(m)).values - m.values).max()))
        chained = m
        for convert in (q_from_mass, b_from_mass, pl_from_mass, bel_from_mass):
            chained = mass_from(convert(chained))
        worst = max(worst, float(np.abs(chained.values - m.values).max()))
    assert worst <= 1e-9
    from beliefdyn.lattice import mobius_subsets, zeta_supersets

    transform_worst = 0.0
    for n in range(1, 6):
        for _ in range(20):
            f = rng.standard_normal(1 << n)
            transform_worst = max(
                transform_worst,
                float(np.abs(zeta_subsets(f) - naive_zeta_subsets(f)).max()),
                float(np.abs(zeta_supersets(f) - naive_zeta_supersets(f)).max()),
                float(np.abs(mobius_subsets(zeta_subsets(f)) - f).max()),
            )
    assert transform_worst <= 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report(2, "representation round trips", f"worst={worst:.2e}, {elapsed:.2f} s")


def test_03_commonality_product_identity():
    rng = np.random.default_rng(3)
    worst = 0.0
    for i in range(500):
        frame = default_frame(i % 8 + 1)
        m0 = random_mass(frame, rng)
        m1 = random_mass(frame, rng)
        combined = MassFunction(frame, double_sum_combine(m0.values, m1.values, np.bitwise_and))
        dev = float(
            np.abs(
                q_from_mass(combined).values - q_from_mass(m0).values * q_from_mass(m1).values
            ).max()
        )
        worst = max(worst, dev)
    assert worst <= 1e-9
    report(3, "commonality product identity", f"500 pairs, worst={worst:.2e}")


def test_04_conditioning_triple_agreement():
    rng = np.random.default_rng(4)
    worst = 0.0
    for i in range(500):
        frame = default_frame(i % 6 + 1)
        m = random_mass(frame, rng)
        c = int(rng.integers(frame.size))
        comp = frame.full ^ c
        direct = condition(m, c)
        via_matrix = apply(m, conditioning_matrix(frame, c))
        bel = bel_from_mass(m).values
        closed = bel[np.arange(frame.size) | comp] - bel[comp]
        worst = max(
            worst,
            float(np.abs(direct.values - via_matrix.values).max()),
            float(np.abs(bel_from_mass(direct).values - closed).max()),
        )
        assert pl_from_mass(direct).values[comp] <= 1e-12
    assert worst <= 1e-9
    report(4, "conditioning triple agreement", f"500 instances, worst={worst:.2e}")


def test_05_conditioning_is_least_committed():
    result = check_conditioning_least_committed(default_frame(3), samples=500, seed=5)
    assert result.violations == 0
    report(5, "conditioning least committed", f"{result.instances} instances, 0 violations")


def test_06_conditioning_matrices_idempotent():
    for n in (1, 2, 3, 4):
        result = check_conditioning_idempotent(default_frame(n))
        assert result.violations == 0
        assert result.worst_deviation == 0.0
    report(6, "conditioning idempotence + composition", "exhaustive n<=4, exact")


def test_07_commutation_characterizes_dempsterian():
    result = check_commuting_implies_dempsterian(default_frame(3), samples=100, seed=7)
    assert result.violations == 0
    assert result.instances == 200  # 100 Dempsterian + 100 converse identities
    assert result.worst_deviation <= 1e-9
    report(7, "commutation characterization", "100+100 instances, 0 violations")


def test_08_dempsterian_matrices_commute():
    total = 0
    worst = 0.0
    for n in (1, 2, 3, 4):
        result = check_dempsterian_commutation(default_frame(n), samples=50, seed=80 + n)
        assert result.violations == 0
        total += result.instances
        worst = max(worst, result.worst_deviation)
    assert total == 200 and worst <= 1e-9
    report(8, "Dempsterian commutation", f"200 pairs, worst={worst:.2e}")


def test_09_combination_is_least_committed():
    result = check_combination_least_committed(default_frame(3), samples=300, seed=9)
    assert result.violations == 0
    report(9, "combination least committed", "300 instances, 0 violations")


def test_10_eigenstructure():
    total = 0
    worst = 0.0
    for n in (1, 2, 3, 4, 5):
        result = check_eigen_structure(default_frame(n), samples=40, seed=100 + n)
        assert result.violations == 0
        total += result.instances
        worst = max(worst, result.worst_deviation)
    assert total == 200 and worst <= 1e-9
    report(10, "eigenstructure", f"200 instances, worst={worst:.2e}")


def test_11_retraction():
    rng = np.random.default_rng(11)
    worst = 0.0
    for i in range(200):
        frame = default_frame(i % 6 + 1)
        m0 = random_mass(frame, rng)
        m1 = MassFunction(frame, 0.94 * random_mass(frame, rng).values + 0.06 * vacuous(frame).values)
        assert q_from_mass(m1).values.min() > 0.05
        recovered = retract(combine_conjunctive(m0, m1), m1)
        worst = max(worst, float(np.abs(recovered.values - m0.values).max()))
    assert worst <= 1e-8

    f2 = default_frame(2)
    singular = MassFunction.from_masses(f2, {0b01: 0.5, 0b10: 0.5})
    with pytest.raises(NonInvertibleEvidenceError):
        retract(vacuous(f2), singular)
    foreign = MassFunction.from_masses(f2, {0b10: 0.4, 0b11: 0.6})
    with pytest.raises(EvidenceNotContainedError):
        retract(vacuous(f2), foreign)
    report(11, "retraction", f"200 round trips, worst={worst:.2e}; error cases raised")


def test_12_disjunctive_rule():
    rng = np.random.default_rng(12)
    worst = 0.0
    for i in range(500):
        frame = default_frame(i % 6 + 1)
        m0 = random_mass(frame, rng)
        m1 = random_mass(frame, rng)
        direct = MassFunction(frame, double_sum_combine(m0.values, m1.values, np.bitwise_or))
        fast = combine_disjunctive(m0, m1)
        via_matrix = apply_generalization(m0, disjunctive_matrix(m1))
        b_product = zeta_subsets(m0.values) * zeta_subsets(m1.values)
        worst = max(
            worst,
            float(np.abs(fast.values - direct.values).max()),
            float(np.abs(via_matrix.values - direct.values).max()),
            float(np.abs(zeta_subsets(direct.values) - b_product).max()),
        )
        if m0.empty_mass == 0.0 and m1.empty_mass == 0.0:
            bel_product = bel_from_mass(m0).values * bel_from_mass(m1).values
            worst = max(worst, float(np.abs(bel_from_mass(direct).values - bel_product).max()))
    assert worst <= 1e-9
    report(12, "disjunctive rule", f"500 pairs, worst={worst:.2e}")


def test_13_enlargement_invariance():
    frame = default_frame(3)
    rng = np.random.default_rng(13)
    worst = 0.0
    for _ in range(50):
        m = random_mass(frame, rng)
        for a in range(frame.size):
            enlarged = enlarge(m, a)
            for x in [s for s in range(frame.size) if not s & a]:
                base = condition(enlarged, x)
                for y in [s for s in range(frame.size) if (s | a) == a]:
                    dev = float(
                        np.abs(condition(enlarged, x | y).values - enlarge(base, y).values).max()
                    )
                    worst = max(worst, dev)
    assert worst <= 1e-12
    report(13, "enlargement invariance", f"exhaustive on n=3, worst={worst:.2e}")


def test_14_full_check_suite(capsys):
    start = time.perf_counter()
    code = main(["check", "--n", "1,2,3,4", "--seed", "1"])
    elapsed = time.perf_counter() - start
    first = capsys.readouterr().out
    assert code == 0
    assert elapsed < 60.0
    assert main(["check", "--n", "1,2,3,4", "--seed", "1"]) == 0
    second = capsys.readouterr().out
    assert second == first
    with capsys.disabled():
        report(14, "full check suite", f"exit 0 in {elapsed:.1f} s, reproducible")

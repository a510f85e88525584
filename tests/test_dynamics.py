import numpy as np
import pytest

from beliefdyn import dynamics, lattice
from beliefdyn.belief import (
    MassFunction,
    bel_from_mass,
    normalize,
    pl_from_mass,
    q_from_mass,
    vacuous,
)
from beliefdyn.dynamics import (
    combine_conjunctive,
    combine_disjunctive,
    combine_normalized,
    condition,
    enlarge,
    retract,
)
from beliefdyn.errors import (
    EvidenceNotContainedError,
    FrameMismatchError,
    NonInvertibleEvidenceError,
    TotalConflictError,
)
from beliefdyn.lattice import default_frame, mobius_subsets, mobius_supersets, zeta_subsets, zeta_supersets
from beliefdyn.verify import random_mass
from oracles import naive_condition, naive_conjunctive, naive_disjunctive

F2 = default_frame(2)
F3 = default_frame(3)


def pair_example():
    """The running two-element pair: (.5 on {a}, .5 on frame) and (.4 on {b}, .6 on frame)."""
    m0 = MassFunction.from_masses(F2, {0b01: 0.5, 0b11: 0.5})
    m1 = MassFunction.from_masses(F2, {0b10: 0.4, 0b11: 0.6})
    return m0, m1


def safeguarded(m: MassFunction, floor: float = 0.1) -> MassFunction:
    """Mix toward vacuous so every commonality value stays above ``floor``."""
    return MassFunction(m.frame, (1 - floor) * m.values + floor * vacuous(m.frame).values)


class TestCondition:
    def test_full_frame_is_neutral(self):
        rng = np.random.default_rng(0)
        m = random_mass(F3, rng)
        np.testing.assert_allclose(condition(m, F3.full).values, m.values, atol=1e-15)

    def test_worked_three_element_case(self):
        m = MassFunction.from_masses(F3, {0b011: 0.6, 0b111: 0.4})
        out = condition(m, 0b001)
        assert out.mass(0b001) == pytest.approx(1.0, abs=1e-12)

    def test_incompatible_mass_lands_on_empty_set(self):
        m = MassFunction.from_masses(F3, {0b001: 0.3, 0b110: 0.5, 0b111: 0.2})
        out = condition(m, 0b110)
        assert out.mass(0) == pytest.approx(0.3, abs=1e-12)

    def test_empty_conditioning_set_is_total_conflict(self):
        rng = np.random.default_rng(1)
        out = condition(random_mass(F3, rng), 0)
        assert out.mass(0) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_complement_sum_oracle(self, n):
        frame = default_frame(n)
        rng = np.random.default_rng(50 + n)
        for _ in range(30):
            m = random_mass(frame, rng)
            c = int(rng.integers(frame.size))
            np.testing.assert_allclose(
                condition(m, c).values, naive_condition(m.values, c, frame.full), atol=1e-12
            )

    @pytest.mark.parametrize("n", range(1, 7))
    def test_belief_closed_form(self, n):
        frame = default_frame(n)
        rng = np.random.default_rng(60 + n)
        for _ in range(85):
            m = random_mass(frame, rng)
            c = int(rng.integers(frame.size))
            comp = frame.full ^ c
            bel = bel_from_mass(m).values
            bel_c = bel_from_mass(condition(m, c)).values
            for b in range(frame.size):
                assert bel_c[b] == pytest.approx(bel[b | comp] - bel[comp], abs=1e-9)

    def test_complement_plausibility_vanishes(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            m = random_mass(F3, rng)
            c = int(rng.integers(8))
            assert pl_from_mass(condition(m, c)).values[F3.full ^ c] <= 1e-12

    def test_composes_by_intersection(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            m = random_mass(F3, rng)
            c1 = int(rng.integers(8))
            c2 = int(rng.integers(8))
            np.testing.assert_allclose(
                condition(condition(m, c1), c2).values,
                condition(m, c1 & c2).values,
                atol=1e-12,
            )


class TestConjunctiveCombination:
    def test_vacuous_is_neutral(self):
        rng = np.random.default_rng(4)
        m = random_mass(F3, rng)
        np.testing.assert_allclose(combine_conjunctive(m, vacuous(F3)).values, m.values, atol=1e-12)

    def test_worked_pair(self):
        m0, m1 = pair_example()
        expected = naive_conjunctive(m0.values, m1.values)
        np.testing.assert_allclose(expected, [0.2, 0.3, 0.2, 0.3], atol=1e-12)
        np.testing.assert_allclose(combine_conjunctive(m0, m1).values, expected, atol=1e-12)

    def test_categorical_evidence_conditions(self):
        rng = np.random.default_rng(5)
        for c in range(8):
            m = random_mass(F3, rng)
            categorical = MassFunction.from_masses(F3, {c: 1.0})
            np.testing.assert_allclose(
                combine_conjunctive(m, categorical).values, condition(m, c).values, atol=1e-12
            )

    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_double_sum_oracle(self, n):
        frame = default_frame(n)
        rng = np.random.default_rng(70 + n)
        for _ in range(30):
            m0 = random_mass(frame, rng)
            m1 = random_mass(frame, rng)
            np.testing.assert_allclose(
                combine_conjunctive(m0, m1).values,
                naive_conjunctive(m0.values, m1.values),
                atol=1e-9,
            )

    def test_commonality_product_identity(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            m0 = random_mass(F3, rng)
            m1 = random_mass(F3, rng)
            combined = MassFunction(F3, naive_conjunctive(m0.values, m1.values))
            np.testing.assert_allclose(
                q_from_mass(combined).values,
                q_from_mass(m0).values * q_from_mass(m1).values,
                atol=1e-9,
            )

    def test_commutative_and_associative(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            a, b, c = (random_mass(F3, rng) for _ in range(3))
            np.testing.assert_allclose(
                combine_conjunctive(a, b).values, combine_conjunctive(b, a).values, atol=1e-12
            )
            np.testing.assert_allclose(
                combine_conjunctive(combine_conjunctive(a, b), c).values,
                combine_conjunctive(a, combine_conjunctive(b, c)).values,
                atol=1e-9,
            )

    def test_frame_mismatch(self):
        with pytest.raises(FrameMismatchError):
            combine_conjunctive(vacuous(F2), vacuous(F3))


class TestNormalizedCombination:
    def test_worked_pair(self):
        m0, m1 = pair_example()
        np.testing.assert_allclose(
            combine_normalized(m0, m1).values, [0.0, 0.375, 0.25, 0.375], atol=1e-12
        )

    def test_flat_contradiction_raises(self):
        m0 = MassFunction.from_masses(F2, {0b01: 1.0})
        m1 = MassFunction.from_masses(F2, {0b10: 1.0})
        with pytest.raises(TotalConflictError):
            combine_normalized(m0, m1)

    def test_vacuous_reduces_to_normalize(self):
        m = MassFunction.from_masses(F2, {0: 0.2, 0b01: 0.3, 0b11: 0.5})
        np.testing.assert_allclose(
            combine_normalized(m, vacuous(F2)).values, normalize(m).values, atol=1e-12
        )


class TestDisjunctiveCombination:
    def test_conflict_indicator_is_neutral(self):
        rng = np.random.default_rng(8)
        m = random_mass(F3, rng)
        neutral = MassFunction.from_masses(F3, {0: 1.0})
        np.testing.assert_allclose(combine_disjunctive(m, neutral).values, m.values, atol=1e-12)

    def test_worked_pair_fills_the_frame(self):
        m0, m1 = pair_example()
        out = combine_disjunctive(m0, m1)
        assert out.mass(0b11) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_double_sum_oracle(self, n):
        frame = default_frame(n)
        rng = np.random.default_rng(80 + n)
        for _ in range(30):
            m0 = random_mass(frame, rng)
            m1 = random_mass(frame, rng)
            np.testing.assert_allclose(
                combine_disjunctive(m0, m1).values,
                naive_disjunctive(m0.values, m1.values),
                atol=1e-9,
            )

    def test_implicability_product_unconditionally(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            m0 = random_mass(F3, rng)
            m1 = random_mass(F3, rng)
            out = combine_disjunctive(m0, m1)
            np.testing.assert_allclose(
                zeta_subsets(out.values),
                zeta_subsets(m0.values) * zeta_subsets(m1.values),
                atol=1e-9,
            )

    def test_belief_product_without_conflict_mass(self):
        def conflict_free(rng):
            values = random_mass(F3, rng).values.copy()
            values[0] = 0.0
            total = values.sum()
            return vacuous(F3) if total == 0.0 else MassFunction(F3, values / total)

        rng = np.random.default_rng(10)
        for _ in range(30):
            m0 = conflict_free(rng)
            m1 = conflict_free(rng)
            out = combine_disjunctive(m0, m1)
            np.testing.assert_allclose(
                bel_from_mass(out).values,
                bel_from_mass(m0).values * bel_from_mass(m1).values,
                atol=1e-9,
            )


def sparse_mass(frame, focal: int, rng) -> MassFunction:
    """A bba on ``focal`` distinct subsets drawn at random."""
    values = np.zeros(frame.size)
    values[rng.choice(frame.size, focal, replace=False)] = rng.uniform(0.5, 1.5, focal)
    return MassFunction(frame, values / values.sum())


RULES = [
    (combine_conjunctive, np.bitwise_and, naive_conjunctive, zeta_supersets, mobius_supersets, condition),
    (combine_disjunctive, np.bitwise_or, naive_disjunctive, zeta_subsets, mobius_subsets, enlarge),
]


@pytest.mark.parametrize("combine, op, oracle, zeta, mobius, transfer", RULES)
class TestCombinationRoutes:
    """The double sum runs when ``PAIR_COST * |F0| * |F1| <= n 2**n``; the transforms run otherwise."""

    # (n, |F0|, |F1|, double sum?) on each side of the rule: budgets of 1, 24 and 128 pairs
    SIDES = [(3, 1, 1, True), (3, 1, 2, False), (6, 4, 6, True), (6, 5, 5, False),
             (8, 11, 11, True), (8, 9, 15, False)]

    @pytest.mark.parametrize("n, f0, f1, by_pairs", SIDES)
    def test_both_routes_match_the_oracle_on_each_side(self, combine, op, oracle, zeta, mobius, transfer,
                                                       n, f0, f1, by_pairs):
        frame = default_frame(n)
        rng = np.random.default_rng(90 + n + f0)
        for _ in range(5):
            m0, m1 = sparse_mass(frame, f0, rng), sparse_mass(frame, f1, rng)
            assert (dynamics._focal_pairs(m0.values, m1.values) is not None) == by_pairs
            want = oracle(m0.values, m1.values)
            idx = np.arange(frame.size)
            for got in (combine(m0, m1).values, mobius(zeta(m0.values) * zeta(m1.values)),
                        lattice._double_sum(m0.values, idx, m1.values, idx, op)):
                np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("n, focal", [(4, 4), (8, 100), (16, 1 << 16)])
    def test_categorical_evidence_is_the_transfer_bit_for_bit(self, combine, op, oracle, zeta, mobius, transfer,
                                                              n, focal):
        # the paper's conditioning is combination with categorical evidence
        frame = default_frame(n)
        rng = np.random.default_rng(100 + n)
        m = sparse_mass(frame, focal, rng)
        for c in rng.integers(frame.size, size=3):
            categorical = MassFunction.from_masses(frame, {int(c): 1.0})
            assert dynamics._focal_pairs(m.values, categorical.values) is not None
            assert combine(m, categorical).values.tobytes() == transfer(m, int(c)).values.tobytes()

    def test_no_mass_outside_the_pair_targets_at_the_frame_cap(self, combine, op, oracle, zeta, mobius, transfer):
        frame = default_frame(20)
        rng = np.random.default_rng(110)
        m0, m1 = sparse_mass(frame, 256, rng), sparse_mass(frame, 33, rng)
        out = combine(m0, m1).values
        targets = np.unique(op(np.flatnonzero(m0.values)[:, None], np.flatnonzero(m1.values)))
        assert np.isin(np.flatnonzero(out), targets).all()
        assert out.sum() == pytest.approx(1.0, abs=1e-12)
        by_transforms = mobius(zeta(m0.values) * zeta(m1.values))
        np.testing.assert_allclose(out, by_transforms, rtol=0.0, atol=4 * np.finfo(float).eps)


class TestRetract:
    def test_vacuous_evidence_is_neutral(self):
        rng = np.random.default_rng(11)
        m = random_mass(F3, rng)
        np.testing.assert_allclose(retract(m, vacuous(F3)).values, m.values, atol=1e-12)

    def test_worked_pair_quotient(self):
        m0, m1 = pair_example()
        combined = combine_conjunctive(m0, m1)
        np.testing.assert_allclose(q_from_mass(combined).values, [1.0, 0.6, 0.5, 0.3], atol=1e-12)
        quotient = q_from_mass(combined).values / q_from_mass(m1).values
        np.testing.assert_allclose(quotient, q_from_mass(m0).values, atol=1e-12)
        np.testing.assert_allclose(retract(combined, m1).values, m0.values, atol=1e-12)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_round_trip(self, n):
        frame = default_frame(n)
        rng = np.random.default_rng(90 + n)
        for _ in range(35):
            m0 = random_mass(frame, rng)
            m1 = safeguarded(random_mass(frame, rng))
            np.testing.assert_allclose(
                retract(combine_conjunctive(m0, m1), m1).values, m0.values, atol=1e-8
            )

    def test_zero_commonality_not_invertible(self):
        m = MassFunction.from_masses(F2, {0b01: 0.5, 0b10: 0.5})  # q(frame) = 0
        rng = np.random.default_rng(12)
        with pytest.raises(NonInvertibleEvidenceError):
            retract(random_mass(F2, rng), m)

    def test_unrelated_evidence_not_contained(self):
        m1 = MassFunction.from_masses(F2, {0b10: 0.4, 0b11: 0.6})
        with pytest.raises(EvidenceNotContainedError):
            retract(vacuous(F2), m1)


class TestEnlarge:
    def test_empty_set_is_neutral(self):
        rng = np.random.default_rng(13)
        m = random_mass(F3, rng)
        np.testing.assert_allclose(enlarge(m, 0).values, m.values, atol=1e-15)

    def test_full_frame_vacuates(self):
        rng = np.random.default_rng(14)
        m = random_mass(F3, rng)
        np.testing.assert_allclose(enlarge(m, F3.full).values, vacuous(F3).values, atol=1e-15)

    def test_indiscernibility_exhaustive(self):
        """Conditioning an enlarged state is invariant under choices inside the set.

        The conditioned masses for target X | Y equal the X-conditioned
        masses pushed up by Y, for every X outside and Y inside the
        enlarged set; in particular the mass patterns coincide.
        """
        rng = np.random.default_rng(15)
        for _ in range(20):
            m = random_mass(F3, rng)
            for a in range(8):
                enlarged = enlarge(m, a)
                for x in [s for s in range(8) if not s & a]:
                    base = condition(enlarged, x)
                    base_pattern = np.sort(base.values[base.values > 1e-12])
                    for y in [s for s in range(8) if (s | a) == a]:
                        shifted = condition(enlarged, x | y)
                        np.testing.assert_allclose(
                            shifted.values, enlarge(base, y).values, atol=1e-12
                        )
                        pattern = np.sort(shifted.values[shifted.values > 1e-12])
                        np.testing.assert_allclose(pattern, base_pattern, atol=1e-12)


class TestExpansionOrderIndependence:
    def test_combination_and_conditioning_commute(self):
        from beliefdyn.specialization import apply, conditioning_matrix, dempsterian_matrix

        rng = np.random.default_rng(16)
        for _ in range(30):
            m = random_mass(F3, rng)
            m1 = random_mass(F3, rng)
            c = int(rng.integers(8))
            s_m1 = dempsterian_matrix(m1)
            s_c = conditioning_matrix(F3, c)
            np.testing.assert_allclose(
                apply(apply(m, s_m1), s_c).values,
                apply(apply(m, s_c), s_m1).values,
                atol=1e-9,
            )

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beliefdyn.belief import (
    Kind,
    MassFunction,
    ValueFunction,
    b_from_mass,
    bel_from_mass,
    least_committed_from_disjoint_constraints,
    mass_from,
    normalize,
    pl_from_bel,
    pl_from_mass,
    q_from_mass,
    vacuous,
)
from beliefdyn.errors import (
    FrameMismatchError,
    InfeasibleConstraintsError,
    NotABeliefFunctionError,
    TotalConflictError,
)
from beliefdyn.lattice import default_frame
from beliefdyn.verify import random_mass
from oracles import naive_bel, naive_pl, naive_q

F2 = default_frame(2)
F3 = default_frame(3)


def partial_knowledge_example() -> MassFunction:
    """Mass .3 on {a}, .5 on {b,c}, remainder .2 on the frame."""
    return MassFunction.from_masses(F3, {0b001: 0.3, 0b110: 0.5, 0b111: 0.2})


class TestValidation:
    def test_negative_mass_rejected(self):
        with pytest.raises(NotABeliefFunctionError):
            MassFunction(F3, [-0.1, 0.5, 0.6, 0, 0, 0, 0, 0])

    def test_bad_sum_rejected(self):
        with pytest.raises(NotABeliefFunctionError):
            MassFunction(F3, np.full(8, 0.2))

    def test_bool_subset_key_rejected(self):
        # numpy read True as a mask: 0.25 went to all four subsets and the result passed as a bba
        with pytest.raises(FrameMismatchError):
            MassFunction.from_masses(F2, {True: 0.25})

    def test_bool_subset_lookup_rejected(self):
        with pytest.raises(FrameMismatchError):
            vacuous(F2).mass(True)
        with pytest.raises(FrameMismatchError):
            bel_from_mass(vacuous(F2)).value(1.0)

    def test_numpy_integer_subsets_accepted(self):
        m = MassFunction.from_masses(F2, {np.int64(1): 0.5, np.uint8(3): 0.5})
        assert m.mass(np.int32(1)) == 0.5 and m.focal_sets() == [1, 3]

    def test_tiny_negatives_tolerated(self):
        values = np.zeros(8)
        values[-1] = 1.0 + 1e-13
        values[0] = -1e-13
        MassFunction(F3, values)

    def test_complex_values_rejected(self):
        # a complex array used to be read as {}:0.5, {a}:0.5 with only a
        # ComplexWarning, and a list of them raised a bare TypeError
        for values in (np.array([0.5 + 3j, 0.5]), [0.5 + 3j, 0.5]):
            with pytest.raises(NotABeliefFunctionError, match="complex"):
                MassFunction(default_frame(1), values)
        with pytest.raises(NotABeliefFunctionError, match="complex"):
            ValueFunction(default_frame(1), Kind.COMMONALITY, np.array([1.0, 0.5j]))

    def test_non_finite_values_rejected(self):
        with pytest.raises(NotABeliefFunctionError, match="^values must be finite$"):
            MassFunction(default_frame(2), [0.0, 0.0, np.nan, 1.0])

    def test_wrong_length_rejected(self):
        message = "expected 4 values for a frame of 2 elements, got shape (2,)"
        with pytest.raises(NotABeliefFunctionError, match=f"^{re.escape(message)}$"):
            MassFunction(default_frame(2), [0.5, 0.5])

    def test_repr_lists_the_focal_sets(self):
        m = MassFunction(default_frame(2), [0.1, 0.2, 0.0, 0.7])
        assert repr(m) == "MassFunction({}:0.1, {a}:0.2, {a|b}:0.7)"

    def test_anchor_message_prints_a_plain_float(self):
        # the empty-set anchors are pinned through the CLI in test_cli.py
        message = "b must take value 1.0 on the full frame, got 0.5"
        with pytest.raises(NotABeliefFunctionError, match=f"^{re.escape(message)}$"):
            ValueFunction(default_frame(1), Kind.IMPLICABILITY, np.array([0.0, 0.5]))

    def test_values_are_immutable(self):
        m = vacuous(F3)
        with pytest.raises(ValueError):
            m.values[0] = 1.0

    def test_empty_set_mass_may_be_positive(self):
        m = MassFunction.from_masses(F3, {0: 0.2, 7: 0.8})
        assert m.empty_mass == pytest.approx(0.2)


class TestBelief:
    def test_vacuous_belief(self):
        bel = bel_from_mass(vacuous(F3)).values
        assert bel[-1] == 1.0
        assert not bel[:-1].any()

    def test_partial_knowledge_values(self):
        bel = bel_from_mass(partial_knowledge_example())
        assert bel.value(0b001) == pytest.approx(0.3, abs=1e-12)
        assert bel.value(0b110) == pytest.approx(0.5, abs=1e-12)
        assert bel.value(0b111) == pytest.approx(1.0, abs=1e-12)

    def test_empty_set_mass_is_never_counted(self):
        m = MassFunction.from_masses(F3, {0: 0.2, 7: 0.8})
        bel = bel_from_mass(m).values
        assert bel[-1] == pytest.approx(0.8, abs=1e-12)
        assert not bel[:-1].any()

    def test_matches_naive_summation(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            m = random_mass(F3, rng)
            np.testing.assert_allclose(bel_from_mass(m).values, naive_bel(m.values), atol=1e-12)


class TestPlausibility:
    def test_vacuous_plausibility(self):
        pl = pl_from_mass(vacuous(F3)).values
        assert pl[0] == 0.0
        assert np.array_equal(pl[1:], np.ones(7))

    def test_partial_knowledge_value(self):
        m = partial_knowledge_example()
        expected = naive_pl(m.values)
        assert expected[0b001] == pytest.approx(0.5)
        np.testing.assert_allclose(pl_from_mass(m).values, expected, atol=1e-12)

    def test_full_frame_plausibility_excludes_conflict(self):
        m = MassFunction.from_masses(F3, {0: 0.25, 1: 0.25, 7: 0.5})
        assert pl_from_mass(m).value(7) == pytest.approx(0.75, abs=1e-12)

    def test_both_construction_routes_agree(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            m = random_mass(F3, rng)
            via_bel = pl_from_bel(bel_from_mass(m), m.empty_mass)
            np.testing.assert_allclose(pl_from_mass(m).values, via_bel.values, atol=1e-12)

    def test_inconsistent_empty_mass_rejected(self):
        m = partial_knowledge_example()
        with pytest.raises(NotABeliefFunctionError):
            pl_from_bel(bel_from_mass(m), 0.5)

    def test_nan_empty_mass_rejected(self):
        # abs(nan) > tol is False, so a NaN used to pass the consistency check
        m = partial_knowledge_example()
        with pytest.raises(NotABeliefFunctionError, match="inconsistent"):
            pl_from_bel(bel_from_mass(m), float("nan"))

    def test_inconsistent_numpy_empty_mass_prints_plain_floats(self):
        m = partial_knowledge_example()
        message = "bel(full)=1.0 inconsistent with m(empty)=0.5"
        with pytest.raises(NotABeliefFunctionError, match=f"^{re.escape(message)}$"):
            pl_from_bel(bel_from_mass(m), np.float64(0.5))

    def test_other_kinds_rejected(self):
        with pytest.raises(NotABeliefFunctionError, match="^expected a belief function, got q$"):
            pl_from_bel(q_from_mass(partial_knowledge_example()))


class TestCommonality:
    def test_vacuous_commonality(self):
        assert np.array_equal(q_from_mass(vacuous(F3)).values, np.ones(8))

    def test_two_element_example(self):
        f2 = default_frame(2)
        m = MassFunction.from_masses(f2, {0b10: 0.4, 0b11: 0.6})
        expected = naive_q(m.values)
        np.testing.assert_allclose(expected, [1.0, 0.6, 1.0, 0.6], atol=1e-12)
        np.testing.assert_allclose(q_from_mass(m).values, expected, atol=1e-12)

    def test_conflict_indicator(self):
        m = MassFunction.from_masses(F3, {0: 1.0})
        q = q_from_mass(m).values
        assert q[0] == 1.0
        assert not q[1:].any()


class TestConversions:
    def test_kinds_print_as_their_document_names(self):
        assert str(Kind.BELIEF) == "bel"
        assert [str(kind) for kind in Kind] == ["bel", "pl", "q", "b"]

    def test_flat_commonality_is_vacuous(self):
        q = ValueFunction(F3, Kind.COMMONALITY, np.ones(8))
        np.testing.assert_allclose(mass_from(q).values, vacuous(F3).values, atol=1e-12)

    def test_partial_knowledge_mass_recovered_from_belief(self):
        m = partial_knowledge_example()
        recovered = mass_from(bel_from_mass(m))
        np.testing.assert_allclose(recovered.values, m.values, atol=1e-12)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_round_trips_all_four_kinds(self, n):
        frame = default_frame(n)
        rng = np.random.default_rng(100 + n)
        for _ in range(25):
            m = random_mass(frame, rng)
            for convert in (bel_from_mass, pl_from_mass, q_from_mass, b_from_mass):
                np.testing.assert_allclose(
                    mass_from(convert(m)).values, m.values, atol=1e-9
                )

    def test_invalid_commonality_rejected(self):
        q = ValueFunction(default_frame(2), Kind.COMMONALITY, [1.0, 0.2, 0.2, 0.5])
        with pytest.raises(NotABeliefFunctionError):
            mass_from(q)


class TestInvariants:
    def test_bel_plus_complement_pl(self):
        rng = np.random.default_rng(2)
        for n in (1, 3, 5):
            frame = default_frame(n)
            for _ in range(30):
                m = random_mass(frame, rng)
                bel = bel_from_mass(m).values
                pl = pl_from_mass(m).values
                comp = np.arange(frame.size) ^ frame.full
                np.testing.assert_allclose(bel + pl[comp], bel[-1], atol=1e-12)

    def test_anchor_values(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            m = random_mass(F3, rng)
            assert abs(q_from_mass(m).values[0] - 1.0) <= 1e-12
            assert abs(b_from_mass(m).values[-1] - 1.0) <= 1e-12

    def test_bel_monotone_q_antitone(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            m = random_mass(F3, rng)
            bel = bel_from_mass(m).values
            q = q_from_mass(m).values
            for a in range(8):
                for b in range(8):
                    if a & ~b == 0:
                        assert bel[a] <= bel[b] + 1e-12
                        assert q[a] >= q[b] - 1e-12


@given(st.integers(1, 6), st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_conversion_cycle_property(n, seed):
    frame = default_frame(n)
    m = random_mass(frame, np.random.default_rng(seed))
    cycled = m
    for convert in (q_from_mass, b_from_mass, pl_from_mass, bel_from_mass):
        cycled = mass_from(convert(cycled))
    np.testing.assert_allclose(cycled.values, m.values, atol=1e-9)


class TestVacuous:
    def test_singleton_frame(self):
        m = vacuous(default_frame(1))
        assert m.values.tolist() == [0.0, 1.0]

    def test_least_committed_of_all(self):
        from beliefdyn.commitment import Ordering, compare

        rng = np.random.default_rng(5)
        vac = vacuous(F3)
        for _ in range(30):
            m = random_mass(F3, rng)
            assert compare(m, vac) in (Ordering.FIRST_MORE_COMMITTED, Ordering.EQUAL)


class TestNormalize:
    def test_identity_on_normalized_input(self):
        m = partial_knowledge_example()
        np.testing.assert_allclose(normalize(m).values, m.values, atol=1e-12)

    def test_conflict_rescaling(self):
        f2 = default_frame(2)
        m = MassFunction.from_masses(f2, {0: 0.2, 0b01: 0.3, 0b10: 0.2, 0b11: 0.3})
        out = normalize(m)
        np.testing.assert_allclose(out.values, [0.0, 0.375, 0.25, 0.375], atol=1e-12)

    def test_total_conflict_rejected(self):
        m = MassFunction.from_masses(F3, {0: 1.0})
        with pytest.raises(TotalConflictError):
            normalize(m)


class TestLeastCommittedConstruction:
    def test_partial_knowledge_completion(self):
        m = least_committed_from_disjoint_constraints(F3, [(0b001, 0.3), (0b110, 0.5)])
        np.testing.assert_allclose(m.values, partial_knowledge_example().values, atol=1e-12)

    def test_no_constraints_gives_vacuous(self):
        m = least_committed_from_disjoint_constraints(F3, [])
        np.testing.assert_allclose(m.values, vacuous(F3).values)

    def test_saturated_constraint_is_categorical(self):
        f2 = default_frame(2)
        m = least_committed_from_disjoint_constraints(f2, [(0b01, 1.0)])
        assert m.mass(0b01) == pytest.approx(1.0)
        assert m.mass(f2.full) == pytest.approx(0.0)

    def test_overlapping_sets_rejected(self):
        with pytest.raises(InfeasibleConstraintsError):
            least_committed_from_disjoint_constraints(F3, [(0b011, 0.3), (0b110, 0.3)])

    def test_overcommitted_budget_rejected(self):
        with pytest.raises(InfeasibleConstraintsError):
            least_committed_from_disjoint_constraints(F3, [(0b001, 0.7), (0b110, 0.5)])

    @pytest.mark.parametrize("value", [-0.1, np.float64(-0.1)], ids=["float", "numpy"])
    def test_negative_value_rejected(self, value):
        with pytest.raises(InfeasibleConstraintsError, match="^negative constraint value -0.1$"):
            least_committed_from_disjoint_constraints(F3, [(0b001, value)])

    def test_overcommitted_numpy_budget_prints_a_plain_float(self):
        constraints = [(0b001, np.float64(0.7)), (0b110, np.float64(0.6))]
        message = "constraint values sum to 1.2999999999999998 > 1"
        with pytest.raises(InfeasibleConstraintsError, match=f"^{re.escape(message)}$"):
            least_committed_from_disjoint_constraints(F3, constraints)

    def test_empty_set_constraint_rejected(self):
        with pytest.raises(InfeasibleConstraintsError):
            least_committed_from_disjoint_constraints(F3, [(0, 0.1)])

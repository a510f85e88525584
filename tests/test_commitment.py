from itertools import combinations

import numpy as np
import pytest

from beliefdyn.belief import MassFunction, _pl, least_committed_from_disjoint_constraints, vacuous
from beliefdyn.commitment import Ordering, _classify, compare
from beliefdyn.errors import FrameMismatchError
from beliefdyn.lattice import DEFAULT_TOL, default_frame
from beliefdyn.specialization import apply
from beliefdyn.verify import random_mass, random_specialization
from oracles import compare_bel_form

F2 = default_frame(2)
F3 = default_frame(3)


class TestCompare:
    def test_reflexive(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            m = random_mass(F3, rng)
            assert compare(m, m) is Ordering.EQUAL
            assert compare_bel_form(m, m) is Ordering.EQUAL

    def test_vacuous_is_least_committed(self):
        rng = np.random.default_rng(1)
        vac = vacuous(F3)
        for _ in range(50):
            m = random_mass(F3, rng)
            assert compare(m, vac) in (Ordering.FIRST_MORE_COMMITTED, Ordering.EQUAL)

    def test_disjoint_categorical_states_incomparable(self):
        m1 = MassFunction.from_masses(F2, {0b01: 1.0})
        m2 = MassFunction.from_masses(F2, {0b10: 1.0})
        assert compare(m1, m2) is Ordering.INCOMPARABLE

    def test_second_more_committed(self):
        m = MassFunction.from_masses(F2, {0b01: 1.0})
        assert compare(vacuous(F2), m) is Ordering.SECOND_MORE_COMMITTED

    def test_frame_mismatch(self):
        with pytest.raises(FrameMismatchError):
            compare(vacuous(F2), vacuous(F3))

    def test_ties_within_tolerance_stay_equal(self):
        values = np.zeros(4)
        values[-1] = 1.0
        nudged = values.copy()
        nudged[-1] -= 1e-12
        nudged[0b01] = 1e-12
        assert compare(MassFunction(F2, values), MassFunction(F2, nudged)) is Ordering.EQUAL


def two_pl_compare(m1, m2):
    """The ordering from two plausibility transforms, ``pl1 - pl2`` in subset order."""
    return _classify(_pl(m1.values) - _pl(m2.values))


def nudged(m: MassFunction, eps: float) -> MassFunction:
    """``m`` with ``eps`` of its largest nonempty mass moved to that set less one element.

    The result is a specialization of ``m``: its plausibility is ``eps`` lower
    on the subsets that meet the set but miss the smaller one, equal elsewhere.
    """
    x = int(m.values[1:].argmax()) + 1
    values = m.values.copy()
    values[x] -= eps
    values[x & (x - 1)] += eps
    return MassFunction(m.frame, values)


class TestOneTransformCompare:
    @pytest.mark.parametrize("n", [2, 4, 6, 12])
    def test_agrees_with_both_transform_routes_on_random_pairs(self, n):
        # unrelated pairs are mostly incomparable; a nudged copy is strictly more committed
        frame = default_frame(n)
        rng = np.random.default_rng(60 + n)
        seen = set()
        for _ in range(20):
            m1 = random_mass(frame, rng)
            for m2 in (random_mass(frame, rng), nudged(m1, m1.values[1:].max() / 2)):
                for first, second in ((m1, m2), (m2, m1)):
                    got = compare(first, second)
                    assert got is two_pl_compare(first, second) is compare_bel_form(first, second)
                    seen.add(got)
        assert Ordering.INCOMPARABLE in seen and Ordering.FIRST_MORE_COMMITTED in seen

    @pytest.mark.parametrize("n", [2, 5, 13])
    @pytest.mark.parametrize("scale, strict", [(0.999, False), (1.001, True)])
    def test_pairs_nudged_across_the_tolerance(self, n, scale, strict):
        frame = default_frame(n)
        rng = np.random.default_rng(70 + n)
        for _ in range(5):
            m = random_mass(frame, rng)
            specialized = nudged(m, scale * DEFAULT_TOL)
            for first, second, want in ((m, specialized, Ordering.SECOND_MORE_COMMITTED),
                                        (specialized, m, Ordering.FIRST_MORE_COMMITTED)):
                want = want if strict else Ordering.EQUAL
                assert compare(first, second) is want
                assert two_pl_compare(first, second) is want
                assert compare_bel_form(first, second) is want


class TestBelFormAgreement:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_agrees_with_pl_form_on_random_pairs(self, n):
        frame = default_frame(n)
        rng = np.random.default_rng(40 + n)
        for _ in range(170):
            m1 = random_mass(frame, rng)
            m2 = random_mass(frame, rng)
            assert compare(m1, m2) is compare_bel_form(m1, m2)

    def test_agrees_on_specialization_pairs(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            m = random_mass(F3, rng)
            specialized = apply(m, random_specialization(F3, rng))
            assert compare(specialized, m) is compare_bel_form(specialized, m)


def at_least_as_committed(m1, m2):
    return compare(m1, m2) in (Ordering.EQUAL, Ordering.FIRST_MORE_COMMITTED)


class TestSpecializationMonotonicity:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_specialized_state_is_at_least_as_committed(self, n):
        frame = default_frame(n)
        rng = np.random.default_rng(50 + n)
        for _ in range(50):
            m = random_mass(frame, rng)
            s = random_specialization(frame, rng)
            assert at_least_as_committed(apply(m, s), m)

    def test_transitive_along_specialization_chains(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            a = random_mass(F3, rng)
            b = apply(a, random_specialization(F3, rng))
            c = apply(b, random_specialization(F3, rng))
            assert at_least_as_committed(b, a)
            assert at_least_as_committed(c, b)
            assert at_least_as_committed(c, a)


def _tenth_grid_completions():
    """All masses on a 3-element frame, granularity 0.1, bel({a}) = .3, bel({b,c}) = .5.

    Stars-and-bars over the eight subsets keeps the enumeration exact in
    integer tenths before any float enters.
    """
    for bars in combinations(range(17), 7):
        counts = []
        prev = -1
        for bar in bars:
            counts.append(bar - prev - 1)
            prev = bar
        counts.append(16 - prev)
        if counts[0b001] != 3:
            continue
        if counts[0b010] + counts[0b100] + counts[0b110] != 5:
            continue
        yield MassFunction(F3, np.array(counts) / 10.0)


class TestLeastCommitmentAgainstEnumeration:
    def test_completion_dominates_every_grid_candidate(self):
        completed = least_committed_from_disjoint_constraints(F3, [(0b001, 0.3), (0b110, 0.5)])
        candidates = list(_tenth_grid_completions())
        assert len(candidates) > 100
        for candidate in candidates:
            assert compare(candidate, completed) in (
                Ordering.FIRST_MORE_COMMITTED,
                Ordering.EQUAL,
            )

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from beliefdyn import specialization
from beliefdyn.belief import MassFunction, q_from_mass, vacuous
from beliefdyn.dynamics import combine_conjunctive, combine_disjunctive, condition
from beliefdyn.errors import (
    EvidenceNotContainedError,
    FrameTooLargeError,
    InvalidSpecializationError,
    NotDempsterianError,
    SingularSpecializationError,
)
from beliefdyn.lattice import CAP_MATRIX, DEFAULT_TOL, _transfer, default_frame, mobius_supersets
from beliefdyn.specialization import (
    DespecializationMatrix,
    GeneralizationMatrix,
    SpecializationMatrix,
    _bounded,
    _is_dempsterian,
    _off_support,
    _support_positions,
    _transfer_rows,
    _valid,
    apply,
    apply_despecialization,
    apply_generalization,
    commute_check,
    conditioning_matrix,
    dempsterian_matrix,
    despecialize_matrix,
    disjunctive_matrix,
    eigen_structure,
    enlargement_matrix,
    incidence_inverse,
    incidence_matrix,
    is_dempsterian,
    is_valid_generalization,
    is_valid_specialization,
)
from beliefdyn.verify import random_mass, random_specialization
from oracles import (
    dense_eigen_product,
    dense_fold_rows,
    gathered_is_dempsterian,
    gathered_valid,
    naive_incidence_inverse,
)

F2 = default_frame(2)
F3 = default_frame(3)


def two_element_example() -> MassFunction:
    """Mass .4 on {b}, .6 on the frame {a,b}."""
    return MassFunction.from_masses(F2, {0b10: 0.4, 0b11: 0.6})


def invertible_mass(frame, rng, on_full: float = 0.1) -> MassFunction:
    """Random mass mixed with the vacuous one, so every commonality is at least ``on_full``."""
    values = (1.0 - on_full) * random_mass(frame, rng).values + on_full * vacuous(frame).values
    return MassFunction(frame, values)


def scattered_rows(a: np.ndarray, op) -> np.ndarray:
    """The builder's oracle: every matrix row by one scatter of ``lattice._transfer``, in increasing order."""
    return _transfer(a[..., None, :], op, np.arange(a.shape[-1]))


def perturbed_not_dempsterian() -> SpecializationMatrix:
    """A valid specialization: a Dempsterian matrix with one row moved toward the empty set."""
    rng = np.random.default_rng(6)
    base = dempsterian_matrix(random_mass(F3, rng)).values.copy()
    row = 0b011
    base[row, 0] += 0.25
    base[row] /= base[row].sum()
    return SpecializationMatrix(F3, base)


class TestConditioningMatrix:
    def test_full_frame_gives_identity(self):
        s = conditioning_matrix(F3, F3.full)
        assert np.array_equal(s.values, np.eye(8))

    def test_empty_set_sends_everything_to_empty(self):
        s = conditioning_matrix(F3, 0)
        assert np.array_equal(s.values[:, 0], np.ones(8))
        assert s.values[:, 1:].sum() == 0.0

    def test_two_element_rows(self):
        s = conditioning_matrix(F2, 0b10).values
        # row A has its single 1 at column A & {b}
        for a in range(4):
            expected = np.zeros(4)
            expected[a & 0b10] = 1.0
            assert np.array_equal(s[a], expected)
        # every row of both builders is one-hot: at A & C for conditioning on
        # C, at A | C for enlargement by C; exhaustive up to n=6, sampled at the cap
        cases = [(default_frame(n), c) for n in range(1, 7) for c in range(1 << n)]
        big = default_frame(10)
        cases += [(big, c) for c in (0, 0b0101100110, 0b1000000001, big.full)]
        for frame, c in cases:
            rows = np.arange(frame.size)
            one_hot = np.eye(frame.size)
            assert np.array_equal(conditioning_matrix(frame, c).values, one_hot[rows & c])
            assert np.array_equal(enlargement_matrix(frame, c).values, one_hot[rows | c])

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_always_valid_and_dempsterian(self, n):
        # conditioning matrices sit inside the Dempsterian family, exhaustively
        frame = default_frame(n)
        for c in range(frame.size):
            s = conditioning_matrix(frame, c)
            assert is_valid_specialization(s)
            assert is_dempsterian(s)

    def test_rows_exactly_stochastic(self):
        for c in range(8):
            values = conditioning_matrix(F3, c).values
            assert np.array_equal(values.sum(axis=1), np.ones(8))
        for a in range(8):
            values = enlargement_matrix(F3, a).values
            assert np.array_equal(values.sum(axis=1), np.ones(8))
        rng = np.random.default_rng(42)
        s = dempsterian_matrix(random_mass(F3, rng))
        assert is_valid_specialization(s, tol=1e-12)


class TestApply:
    def test_identity_matrix_is_neutral(self):
        rng = np.random.default_rng(0)
        m = random_mass(F3, rng)
        out = apply(m, conditioning_matrix(F3, F3.full))
        np.testing.assert_allclose(out.values, m.values, atol=1e-15)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_conditioning_matrix_matches_direct_rule(self, n):
        frame = default_frame(n)
        rng = np.random.default_rng(80 + n)
        for _ in range(85):
            m = random_mass(frame, rng)
            c = int(rng.integers(frame.size))
            np.testing.assert_allclose(
                apply(m, conditioning_matrix(frame, c)).values,
                condition(m, c).values,
                atol=1e-12,
            )

    def test_vacuous_row_extraction(self):
        # applying any Dempsterian matrix to the vacuous state reads off its top row
        rng = np.random.default_rng(1)
        for _ in range(20):
            m = random_mass(F3, rng)
            np.testing.assert_allclose(
                apply(vacuous(F3), dempsterian_matrix(m)).values, m.values, atol=1e-15
            )

    def test_invalid_matrix_rejected(self):
        bad = SpecializationMatrix(F2, np.full((4, 4), 0.25))
        with pytest.raises(InvalidSpecializationError):
            apply(vacuous(F2), bad)

    def test_mass_totals_preserved(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            m = random_mass(F3, rng)
            s = random_specialization(F3, rng)
            assert apply(m, s).values.sum() == pytest.approx(1.0, abs=1e-12)


class TestDempsterianMatrix:
    def test_categorical_mass_gives_conditioning_matrix(self):
        for c in range(8):
            m = MassFunction.from_masses(F3, {c: 1.0})
            np.testing.assert_allclose(
                dempsterian_matrix(m).values, conditioning_matrix(F3, c).values, atol=1e-15
            )

    def test_vacuous_gives_identity(self):
        assert np.array_equal(dempsterian_matrix(vacuous(F3)).values, np.eye(8))

    def test_two_element_rows(self):
        s = dempsterian_matrix(two_element_example()).values
        expected = np.array(
            [
                [1.0, 0.0, 0.0, 0.0],
                [0.4, 0.6, 0.0, 0.0],
                [0.0, 0.0, 1.0, 0.0],
                [0.0, 0.0, 0.4, 0.6],
            ]
        )
        np.testing.assert_allclose(s, expected, atol=1e-15)

    def test_rows_are_conditionings(self):
        rng = np.random.default_rng(3)
        m = random_mass(F3, rng)
        s = dempsterian_matrix(m).values
        for a in range(8):
            np.testing.assert_allclose(s[a], condition(m, a).values, atol=1e-15)
        np.testing.assert_allclose(s[-1], m.values, atol=1e-15)

    def test_application_is_conjunctive_combination(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            m0 = random_mass(F3, rng)
            m1 = random_mass(F3, rng)
            np.testing.assert_allclose(
                apply(m0, dempsterian_matrix(m1)).values,
                combine_conjunctive(m0, m1).values,
                atol=1e-12,
            )

    def test_commutation_identity(self):
        # m' . S_m equals m . S_m' ; both sides realize the same combination
        rng = np.random.default_rng(5)
        for _ in range(30):
            m0 = random_mass(F3, rng)
            m1 = random_mass(F3, rng)
            np.testing.assert_allclose(
                apply(m0, dempsterian_matrix(m1)).values,
                apply(m1, dempsterian_matrix(m0)).values,
                atol=1e-9,
            )


class TestPredicates:
    def test_identity_is_both(self):
        s = conditioning_matrix(F3, F3.full)
        assert is_valid_specialization(s)
        assert is_dempsterian(s)

    def test_perturbed_rows_stay_valid_but_not_dempsterian(self):
        s = perturbed_not_dempsterian()
        assert is_valid_specialization(s)
        assert not is_dempsterian(s)

    def test_support_violation_detected(self):
        values = np.eye(4)
        values[0b01, 0b10] = 0.5  # {b} is not a subset of {a}
        values[0b01, 0b01] = 0.5
        assert not is_valid_specialization(SpecializationMatrix(F2, values))

    def test_row_sum_violation_detected(self):
        values = np.eye(4) * 0.9
        assert not is_valid_specialization(SpecializationMatrix(F2, values))

    def test_generalization_entry_above_one_rejected(self):
        # the empty set's row sums to exactly 1 with every entry at least -tol, but one is 1 + 1e-6
        frame = default_frame(10)
        values = np.eye(frame.size)
        values[0] = -0.999e-9
        values[0, 0] = 1.0 + (frame.size - 1) * 0.999e-9
        assert values[0].sum() == 1.0
        g = GeneralizationMatrix(frame, values)
        assert not is_valid_generalization(g)
        with pytest.raises(InvalidSpecializationError, match="generalization invariants"):
            apply_generalization(vacuous(frame), g)
        # its index-reversed mirror, a specialization, is rejected by the same bound
        assert not is_valid_specialization(SpecializationMatrix(frame, values[::-1, ::-1]))


    def test_infinite_entry_fails_dempsterian_without_warning(self):
        values = conditioning_matrix(F2, F2.full).values.copy()
        values[0b01, 0b01] = np.inf  # so inf - inf in the gap against the conditioned top row
        values[-1, 0b01] = np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not is_dempsterian(SpecializationMatrix(F2, values))

    def test_row_of_both_infinities_fails_without_warning(self):
        values = np.eye(4)
        values[0b11, 0b01], values[0b11, 0b10] = np.inf, -np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not is_valid_specialization(SpecializationMatrix(F2, values))
            assert not is_dempsterian(SpecializationMatrix(F2, values))

    def test_huge_finite_entries_fail_without_warning(self):
        # finite, but the row sums, the conditioning fold and the gap overflow to inf
        values = np.eye(4)
        values[0b11] = [0.0, 1e308, 1e308, 0.0]
        big_dempsterian = np.eye(4)
        big_dempsterian[0b11, 0b01] = -1e308
        big_dempsterian[0b01, 0b01] = 1e308
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not is_valid_specialization(SpecializationMatrix(F2, values))
            assert not is_dempsterian(SpecializationMatrix(F2, values))
            assert not is_dempsterian(SpecializationMatrix(F2, big_dempsterian))

    def test_dempsterian_decisions_at_the_tolerance(self):
        # dyadic masses, which the fold and the scatter both sum exactly
        m = MassFunction.from_masses(F3, {0b001: 3 / 16, 0b011: 5 / 16, 0b110: 2 / 16, 0b111: 6 / 16})
        base = dempsterian_matrix(m).values
        assert np.array_equal(base[0b101], np.array([0, 8, 0, 0, 2, 6, 0, 0]) / 16)
        for factor, accepted in ((1 - 1e-6, True), (1 + 1e-6, False)):
            values = base.copy()
            values[0b101, 0] += DEFAULT_TOL * factor  # the empty set lies inside {a, c}
            assert is_dempsterian(SpecializationMatrix(F3, values)) is accepted
        assert not is_dempsterian(perturbed_not_dempsterian())


def dyadic_masses(rng, count: int, size: int) -> np.ndarray:
    """``count`` random mass vectors in multiples of 2**-10, so every conditioning sum is exact."""
    return rng.multinomial(1 << 10, rng.dirichlet(np.ones(size)), size=count) / (1 << 10)


def planted_defects(n: int, rng, upward: bool) -> np.ndarray:
    """A ``(k, N, N)`` stack of valid matrices, most with one defect planted at the tolerance or beyond.

    An off-support entry moved to ``±tol * (1 ± 1e-6)`` takes its amount
    from the row's largest entry, so the row sum stays within ``tol``;
    the other defects are a support entry moved by ``±tol * (1 ± 1e-6)``, a
    NaN, ``±inf``, a row sum off by ``2 tol`` and a row mixed with the empty
    set (generalization: the frame).
    """
    size = 1 << n
    tol = DEFAULT_TOL
    amounts = [s * tol * f for s in (1, -1) for f in (1 - 1e-6, 1 + 1e-6)]
    kinds = ["none", *(("off", a) for a in amounts), *(("on", a) for a in amounts),
             "nan", "inf", "-inf", "sum", "mix"]
    v = _transfer_rows(dyadic_masses(rng, 3 * len(kinds), size), np.bitwise_or if upward else np.bitwise_and)
    subsets = np.arange(size)
    for i, kind in enumerate(kinds * 3):
        a = int(rng.integers(size - 1)) + upward  # skip the one row whose support is every column
        support = (a & ~subsets == 0) if upward else (subsets & ~a == 0)
        if kind == "none":
            continue
        if kind == "sum":
            v[i, a] *= 1.0 + 2 * tol
        elif kind == "mix":
            v[i, a] = 0.5 * v[i, a] + 0.5 * np.eye(size)[-1 if upward else 0]
        elif kind in ("nan", "inf", "-inf"):
            v[i, a, int(rng.integers(size))] = float(kind)
        elif kind[0] == "on":
            v[i, a, rng.choice(subsets[support])] += kind[1]
        else:
            v[i, a, rng.choice(subsets[~support])] += kind[1]
            v[i, a, v[i, a].argmax()] -= kind[1]
    return v


class TestGatherFreeDecisions:
    """The one-sided, gather-free tests decide as the two-sided gathers did."""

    @pytest.mark.parametrize("upward", [False, True])
    @pytest.mark.parametrize("n", range(1, 7))
    def test_same_decisions_as_the_gather(self, n, upward):
        rng = np.random.default_rng(700 + 10 * n + upward)
        v = planted_defects(n, rng, upward)
        valid = _valid(v, DEFAULT_TOL, upward)
        assert np.array_equal(valid, gathered_valid(v, DEFAULT_TOL, upward))
        if not upward:
            dempsterian = _is_dempsterian(v)
            assert np.array_equal(dempsterian, gathered_is_dempsterian(v, DEFAULT_TOL))
            assert dempsterian.any() and not dempsterian.all()
        # the first planted off-support entries: +tol * (1 - 1e-6) passes, +tol * (1 + 1e-6) fails
        assert valid[1] and not valid[2]

    def test_one_off_support_entry_fails_the_gap(self):
        # dyadic masses; the entry's amount comes from the row's four support entries,
        # tol / 2 each, so only the off-support entry is beyond the tolerance
        m = MassFunction.from_masses(F3, {0b001: 3 / 16, 0b011: 5 / 16, 0b110: 2 / 16, 0b111: 6 / 16})
        values = dempsterian_matrix(m).values.copy()
        row = 0b011
        values[row, 0b100] += 2 * DEFAULT_TOL
        values[row, [0b000, 0b001, 0b010, 0b011]] -= DEFAULT_TOL / 2
        s = SpecializationMatrix(F3, values)
        assert _bounded(values, DEFAULT_TOL)
        assert not is_valid_specialization(s)
        assert not is_dempsterian(s)
        with pytest.raises(NotDempsterianError):
            eigen_structure(s)
        with pytest.raises(NotDempsterianError):
            despecialize_matrix(s)


def signed_zeros_and_non_finite_rows() -> np.ndarray:
    """Six rows on 32 subsets with -0.0 entries and columns, a NaN, and +inf and -inf in one row."""
    rng = np.random.default_rng(25)
    a = rng.random((6, 32)) * (rng.random((6, 32)) < 0.4)
    a[:, 6] = -0.0  # a column that is zero in every row
    a[1, 3] = a[2, 9] = -0.0
    a[3] = -0.0
    a[4, 17] = np.nan
    a[5, 5], a[5, 22] = np.inf, -np.inf  # rows where both land on one entry get NaN
    return a


def dense_gap_is_dempsterian(v: np.ndarray, tol: float) -> bool:
    """The Dempsterian test as a gap against the dense fold of the top row, over all ``4**n`` entries."""
    with np.errstate(invalid="ignore", over="ignore"):
        gap = np.abs(v - dense_fold_rows(v[-1], np.bitwise_and)).max()
    return bool(_bounded(v, tol)) and bool(gap <= tol)


class TestSupportPlan:
    """The support entries alone give the dense fold's matrices, verdicts and errors bit for bit."""

    @pytest.mark.parametrize("op", [np.bitwise_and, np.bitwise_or])
    def test_single_rows_are_the_dense_fold(self, op):
        rng = np.random.default_rng(30)
        for n in range(1, CAP_MATRIX + 1):
            a = rng.random(1 << n) * (rng.random(1 << n) < 0.7)
            assert _transfer_rows(a, op).tobytes() == dense_fold_rows(a, op).tobytes()

    @pytest.mark.parametrize("op", [np.bitwise_and, np.bitwise_or])
    def test_stacks_are_the_dense_fold(self, op):
        rng = np.random.default_rng(31)
        for n in range(1, 8):
            for shape in ((5, 1 << n), (2, 2, 1 << n)):
                a = rng.random(shape)
                assert _transfer_rows(a, op).tobytes() == dense_fold_rows(a, op).tobytes()
        a = signed_zeros_and_non_finite_rows()
        assert _transfer_rows(a, op).tobytes() == dense_fold_rows(a, op).tobytes()

    @pytest.mark.parametrize("n", [4, CAP_MATRIX])
    def test_dempsterian_verdicts_are_the_dense_gap(self, n):
        frame = default_frame(n)
        base = dempsterian_matrix(invertible_mass(frame, np.random.default_rng(32 + n))).values
        row = frame.size - 2  # every element but the first: column 0 is on the support, the frame off it
        amounts = [s * f * DEFAULT_TOL for s in (1, -1) for f in (0.5, 1.0, 2.0)]
        verdicts = []
        for col in (0, frame.size - 1):
            for amount in amounts:
                values = base.copy()
                values[row, col] += amount
                verdict = bool(_is_dempsterian(values))
                assert verdict == dense_gap_is_dempsterian(values, DEFAULT_TOL)
                verdicts.append(verdict)
        assert any(verdicts) and not all(verdicts)

    @pytest.mark.parametrize("n", [1, 4, CAP_MATRIX])
    def test_reconstruction_error_is_the_dense_gap(self, n):
        frame = default_frame(n)
        values = dempsterian_matrix(invertible_mass(frame, np.random.default_rng(33 + n))).values.copy()
        for off_support in (0.0, 5e-10):  # the second sets the error
            values[0, frame.size - 1] = off_support
            s = SpecializationMatrix(frame, values)
            expected = dense_fold_rows(mobius_supersets(np.diag(values).copy()), np.bitwise_and)
            err = eigen_structure(s).reconstruction_error
            assert err == float(np.abs(values - expected).max())
        assert err == 5e-10

    @pytest.mark.parametrize("op", [np.bitwise_and, np.bitwise_or])
    def test_random_stacks_up_to_the_cap_are_the_dense_fold(self, op):
        rng = np.random.default_rng(35)
        for n in range(1, CAP_MATRIX + 1):
            a = rng.random((2, 1 << n)) * (rng.random((2, 1 << n)) < 0.7)
            out = _transfer_rows(a, op)
            assert out.tobytes() == dense_fold_rows(a, op).tobytes()
            if op is np.bitwise_or:  # X | A = B iff ~X & ~A = ~B: the downward matrix, reversed
                flipped = _transfer_rows(a[..., ::-1], np.bitwise_and)[..., ::-1, ::-1]
                assert out.tobytes() == np.ascontiguousarray(flipped).tobytes()

    @pytest.mark.parametrize("upward", [False, True])
    def test_cached_positions_are_read_only(self, upward):
        positions = _support_positions(16, upward)
        assert positions.dtype == np.int32
        with pytest.raises(ValueError):
            positions[0] = 0
        a = np.random.default_rng(34).random(16)
        op = np.bitwise_or if upward else np.bitwise_and
        assert _transfer_rows(a, op).tobytes() == dense_fold_rows(a, op).tobytes()

    @pytest.mark.parametrize("upward", [False, True])
    def test_positions_list_each_support_entry_once(self, upward):
        n = 6
        positions = _support_positions(1 << n, upward)
        row, col = np.divmod(positions, 1 << n)
        assert positions.size == 3**n == np.unique(positions).size
        assert not ((row & ~col) if upward else (col & ~row)).any()
        # entry j's ternary digit i places element i: in both, in the row only (upward:
        # the column only), in neither
        digits = np.arange(3**n)[:, None] // 3 ** np.arange(n) % 3
        bits = 1 << np.arange(n)
        assert np.array_equal(row, ((digits < 2) if not upward else (digits == 0)) @ bits)
        assert np.array_equal(col, ((digits == 0) if not upward else (digits < 2)) @ bits)

    @pytest.mark.parametrize("upward", [False, True])
    def test_off_support_is_the_complement_of_the_positions(self, upward):
        for n in range(1, CAP_MATRIX + 1):
            on = np.zeros(4**n, dtype=bool)
            on[_support_positions(1 << n, upward)] = True
            assert np.array_equal(~_off_support(1 << n, upward).reshape(-1), on)

    @pytest.mark.parametrize("upward", [False, True])
    def test_off_support_mask_at_the_cap_builds_in_small_memory(self, upward):
        # the 1 MB mask and one 2 MB int16 temporary, not an 8 MB int64 one
        tracemalloc.start()
        try:
            mask = _off_support.__wrapped__(1 << CAP_MATRIX, upward)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(mask, _off_support(1 << CAP_MATRIX, upward))
        assert peak <= 4e6


class TestFoldBuilder:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_conditioning_and_enlargement_are_the_scatter_bit_for_bit(self, n):
        frame = default_frame(n)
        one_hot = np.eye(frame.size)
        for op, build in ((np.bitwise_and, conditioning_matrix), (np.bitwise_or, enlargement_matrix)):
            expected = scattered_rows(one_hot, op)
            assert _transfer_rows(one_hot, op).tobytes() == expected.tobytes()
            for c in range(frame.size):
                assert build(frame, c).values.tobytes() == expected[c].tobytes()

    @pytest.mark.parametrize("op", [np.bitwise_and, np.bitwise_or])
    def test_signed_zeros_and_non_finite_entries(self, op):
        a = signed_zeros_and_non_finite_rows()
        out, expected = _transfer_rows(a, op), scattered_rows(a, op)
        finite = np.isfinite(expected)
        assert np.isnan(expected).any() and np.isinf(expected).any()
        assert np.array_equal(np.isfinite(out), finite)
        assert np.array_equal(out[~finite], expected[~finite], equal_nan=True)
        assert not np.signbit(out[out == 0]).any()
        assert np.abs(out[finite] - expected[finite]).max() <= 1e-15

    @pytest.mark.parametrize("op", [np.bitwise_and, np.bitwise_or])
    def test_dense_masses_at_the_cap_are_the_scatter_to_the_last_bits(self, op):
        # every entry adds nonnegative masses summing to at most 1: the fold's tree
        # of n levels errs by at most n units in the last place, the scatter's
        # sequence of up to N terms by N - 1
        rng = np.random.default_rng(26)
        a = rng.random(1 << CAP_MATRIX)
        a /= a.sum()
        out = _transfer_rows(a, op)
        unit = np.finfo(float).eps / 2
        every_mass = (0, 0) if op is np.bitwise_and else (-1, -1)
        assert abs(out[every_mass] - math.fsum(a)) <= CAP_MATRIX * unit
        assert np.abs(out - scattered_rows(a, op)).max() <= (a.size - 1 + CAP_MATRIX) * unit


class TestCommutation:
    def test_vacuous_matrix_is_neutral_in_products(self):
        rng = np.random.default_rng(17)
        identity = dempsterian_matrix(vacuous(F3))
        s = dempsterian_matrix(random_mass(F3, rng))
        np.testing.assert_allclose(identity.values @ s.values, s.values, atol=1e-15)
        np.testing.assert_allclose(s.values @ identity.values, s.values, atol=1e-15)

    def test_dempsterian_matrices_commute(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            s1 = dempsterian_matrix(random_mass(F3, rng))
            s2 = dempsterian_matrix(random_mass(F3, rng))
            ok, dev = commute_check(s1, s2)
            assert ok, dev

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_conditioning_products_compose_by_intersection(self, n):
        frame = default_frame(n)
        for c1 in range(frame.size):
            for c2 in range(frame.size):
                product = (
                    conditioning_matrix(frame, c1).values @ conditioning_matrix(frame, c2).values
                )
                assert np.array_equal(product, conditioning_matrix(frame, c1 & c2).values)

    def test_non_dempsterian_has_conditioning_witness(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            s = random_specialization(F3, rng)
            if is_dempsterian(s):
                continue
            worst = max(commute_check(s, conditioning_matrix(F3, c))[1] for c in range(8))
            assert worst > 1e-9


class TestIncidenceTransform:
    def test_one_element_matrices(self):
        f1 = default_frame(1)
        assert np.array_equal(incidence_matrix(f1), [[1.0, 0.0], [1.0, 1.0]])
        assert np.array_equal(incidence_inverse(f1), [[1.0, 0.0], [-1.0, 1.0]])

    @pytest.mark.parametrize("n", range(1, 7))
    def test_right_multiplication_computes_commonality(self, n):
        frame = default_frame(n)
        t = incidence_matrix(frame)
        rng = np.random.default_rng(90 + n)
        for _ in range(35):
            m = random_mass(frame, rng)
            np.testing.assert_allclose(m.values @ t, q_from_mass(m).values, atol=1e-12)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_inverse_is_the_sign_formula(self, n):
        frame = default_frame(n)
        inverse = incidence_inverse(frame)
        expected = naive_incidence_inverse(frame.size)
        assert inverse.dtype == np.float64
        assert np.array_equal(inverse, expected)
        assert np.array_equal(np.signbit(inverse), np.signbit(expected))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_exact_inverse(self, n):
        frame = default_frame(n)
        product = incidence_matrix(frame) @ incidence_inverse(frame)
        assert np.array_equal(product, np.eye(frame.size))


class TestEigenStructure:
    def test_vacuous_gives_identity_eigenvalues(self):
        structure = eigen_structure(dempsterian_matrix(vacuous(F3)))
        assert np.array_equal(structure.eigenvalues, np.ones(8))
        assert structure.reconstruction_error <= 1e-15

    def test_two_element_diagonal_is_commonality(self):
        s = dempsterian_matrix(two_element_example())
        structure = eigen_structure(s)
        np.testing.assert_allclose(structure.eigenvalues, [1.0, 0.6, 1.0, 0.6], atol=1e-12)
        np.testing.assert_allclose(np.diag(s.values), structure.eigenvalues, atol=1e-15)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_reconstruction_and_left_eigenvectors(self, n):
        frame = default_frame(n)
        rng = np.random.default_rng(60 + n)
        for _ in range(35):
            m = random_mass(frame, rng)
            s = dempsterian_matrix(m)
            structure = eigen_structure(s)
            np.testing.assert_allclose(structure.eigenvalues, q_from_mass(m).values, atol=1e-12)
            assert structure.reconstruction_error <= 1e-9
            residual = structure.t_inverse @ s.values - structure.eigenvalues[:, None] * structure.t_inverse
            assert np.abs(residual).max() <= 1e-9

    def test_determinant_is_eigenvalue_product(self):
        rng = np.random.default_rng(9)
        for n in (1, 2, 3, 4):
            frame = default_frame(n)
            for _ in range(10):
                m = random_mass(frame, rng)
                s = dempsterian_matrix(m)
                assert np.linalg.det(s.values) == pytest.approx(
                    float(np.prod(q_from_mass(m).values)), abs=1e-8
                )

    @pytest.mark.parametrize("n", range(1, 8))
    def test_reconstruction_error_matches_dense_product(self, n):
        frame = default_frame(n)
        rng = np.random.default_rng(120 + n)
        for _ in range(5):
            s = dempsterian_matrix(random_mass(frame, rng))
            structure = eigen_structure(s)
            dense = np.abs(s.values - dense_eigen_product(structure.eigenvalues)).max()
            assert abs(structure.reconstruction_error - dense) <= 1e-12

    @pytest.mark.parametrize("n", range(2, 8))
    def test_reconstruction_error_off_the_family(self, n):
        # within a loose tolerance, a matrix off the Dempsterian family has a visible
        # error; on one element every valid specialization is Dempsterian
        frame = default_frame(n)
        rng = np.random.default_rng(140 + n)
        values = dempsterian_matrix(invertible_mass(frame, rng)).values.copy()
        for row in {frame.full, int(rng.integers(1, frame.size))}:
            values[row, row] -= 1e-6
            values[row, 0] += 1e-6
        s = SpecializationMatrix(frame, values)
        structure = eigen_structure(s, tol=1e-4)
        dense = np.abs(s.values - dense_eigen_product(structure.eigenvalues)).max()
        assert dense >= 5e-7
        assert abs(structure.reconstruction_error - dense) <= 1e-12

    def test_non_dempsterian_rejected(self):
        values = np.eye(4)
        values[0b11] = [0.5, 0.25, 0.25, 0.0]
        with pytest.raises(NotDempsterianError):
            eigen_structure(SpecializationMatrix(F2, values))

    def test_near_the_cap_matches_the_naive_products(self):
        frame = default_frame(9)
        s = dempsterian_matrix(invertible_mass(frame, np.random.default_rng(160)))
        structure = eigen_structure(s)
        expected = naive_incidence_inverse(frame.size)
        assert np.array_equal(structure.t_inverse, expected)
        assert np.array_equal(np.signbit(structure.t_inverse), np.signbit(expected))
        assert np.array_equal(structure.transform, expected != 0)
        assert not np.signbit(structure.transform).any()
        dense = np.abs(s.values - dense_eigen_product(structure.eigenvalues)).max()
        assert abs(structure.reconstruction_error - dense) <= 1e-12


class TestDespecialization:
    def test_inverse_of_identity(self):
        d = despecialize_matrix(dempsterian_matrix(vacuous(F3)))
        assert np.array_equal(d.values, np.eye(8))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_right_inverse_property(self, n):
        frame = default_frame(n)
        rng = np.random.default_rng(70 + n)
        for _ in range(20):
            m = MassFunction(frame, 0.9 * random_mass(frame, rng).values + 0.1 * vacuous(frame).values)
            s = dempsterian_matrix(m)
            d = despecialize_matrix(s)
            assert np.abs(s.values @ d.values - np.eye(frame.size)).max() <= 1e-8

    @pytest.mark.parametrize("n", range(1, 8))
    def test_matches_dense_product(self, n):
        frame = default_frame(n)
        rng = np.random.default_rng(130 + n)
        for _ in range(5):
            s = dempsterian_matrix(invertible_mass(frame, rng))
            expected = dense_eigen_product(1.0 / np.diag(s.values))
            assert np.abs(despecialize_matrix(s).values - expected).max() <= 1e-12

    def test_non_dempsterian_rejected(self):
        with pytest.raises(NotDempsterianError):
            despecialize_matrix(perturbed_not_dempsterian())

    def test_matrix_cap(self):
        frame = default_frame(10)
        s = dempsterian_matrix(invertible_mass(frame, np.random.default_rng(12), on_full=0.5))
        assert eigen_structure(s).reconstruction_error <= 1e-9
        d = despecialize_matrix(s)
        assert np.abs(s.values @ d.values - np.eye(frame.size)).max() <= 1e-9

    def test_round_trip_through_combination(self):
        rng = np.random.default_rng(10)
        for _ in range(30):
            m0 = random_mass(F3, rng)
            m1 = MassFunction(F3, 0.9 * random_mass(F3, rng).values + 0.1 * vacuous(F3).values)
            combined = combine_conjunctive(m0, m1)
            recovered = apply_despecialization(combined, despecialize_matrix(dempsterian_matrix(m1)))
            np.testing.assert_allclose(recovered.values, m0.values, atol=1e-8)

    def test_zero_frame_mass_is_singular(self):
        m = MassFunction.from_masses(F2, {0b01: 0.5, 0b10: 0.5})
        with pytest.raises(SingularSpecializationError):
            despecialize_matrix(dempsterian_matrix(m))

    def test_vacuous_does_not_contain_evidence(self):
        d = despecialize_matrix(dempsterian_matrix(two_element_example()))
        with pytest.raises(EvidenceNotContainedError):
            apply_despecialization(vacuous(F2), d)

    def test_identity_despecialization_is_neutral(self):
        rng = np.random.default_rng(11)
        m = random_mass(F3, rng)
        d = despecialize_matrix(dempsterian_matrix(vacuous(F3)))
        np.testing.assert_allclose(apply_despecialization(m, d).values, m.values, atol=1e-12)


class TestEnlargementMatrix:
    def test_empty_set_is_identity(self):
        assert np.array_equal(enlargement_matrix(F3, 0).values, np.eye(8))

    def test_full_frame_vacuates(self):
        g = enlargement_matrix(F3, F3.full)
        rng = np.random.default_rng(12)
        out = apply_generalization(random_mass(F3, rng), g)
        np.testing.assert_allclose(out.values, vacuous(F3).values, atol=1e-12)

    def test_two_element_example(self):
        m = MassFunction.from_masses(F2, {0b10: 1.0})
        out = apply_generalization(m, enlargement_matrix(F2, 0b01))
        assert out.mass(0b11) == pytest.approx(1.0)

    def test_focal_sets_absorb_the_whole_set(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            m = random_mass(F3, rng)
            a = int(rng.integers(8))
            out = apply_generalization(m, enlargement_matrix(F3, a))
            for focal in out.focal_sets():
                assert focal & a == a


class TestDisjunctiveMatrix:
    def test_conflict_indicator_is_identity(self):
        m = MassFunction.from_masses(F3, {0: 1.0})
        assert np.array_equal(disjunctive_matrix(m).values, np.eye(8))

    def test_vacuous_sends_everything_to_frame(self):
        g = disjunctive_matrix(vacuous(F3)).values
        assert np.array_equal(g[:, -1], np.ones(8))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_application_is_disjunctive_combination(self, n):
        frame = default_frame(n)
        rng = np.random.default_rng(30 + n)
        for _ in range(35):
            m0 = random_mass(frame, rng)
            m1 = random_mass(frame, rng)
            np.testing.assert_allclose(
                apply_generalization(m0, disjunctive_matrix(m1)).values,
                combine_disjunctive(m0, m1).values,
                atol=1e-12,
            )

    def test_rows_are_stochastic_with_superset_support(self):
        rng = np.random.default_rng(14)
        g = disjunctive_matrix(random_mass(F3, rng))
        np.testing.assert_allclose(g.values.sum(axis=1), np.ones(8), atol=1e-12)
        for a in range(8):
            for b in range(8):
                if a & ~b:
                    assert g.values[a, b] == 0.0


class TestCaps:
    def test_matrix_cap_enforced(self):
        big = default_frame(11)
        with pytest.raises(FrameTooLargeError):
            conditioning_matrix(big, 0)

    def test_generalization_shape_checked(self):
        with pytest.raises(InvalidSpecializationError):
            GeneralizationMatrix(F2, np.eye(3))


MATRIX_CLASSES = (SpecializationMatrix, GeneralizationMatrix, DespecializationMatrix)


class TestConstruction:
    @pytest.mark.parametrize("cls", MATRIX_CLASSES)
    def test_complex_values_rejected(self, cls):
        # a complex matrix used to lose its imaginary part with only a
        # ComplexWarning, and the identity below then passed as valid
        values = np.eye(4) + 0.5j * np.eye(4)[::-1]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for given in (values, values.tolist()):
                with pytest.raises(InvalidSpecializationError, match="complex"):
                    cls(F2, given)

    @pytest.mark.parametrize("cls", MATRIX_CLASSES)
    def test_caller_writes_do_not_reach_the_matrix(self, cls):
        values = np.eye(4)
        s = cls(F2, values)
        values[0, 0] = 7.0
        assert np.array_equal(s.values, np.eye(4))
        assert not s.values.flags.writeable

    @pytest.mark.parametrize("cls", MATRIX_CLASSES)
    def test_read_only_view_of_a_writable_array_is_copied(self, cls):
        base = np.eye(4)
        view = base[:]
        view.flags.writeable = False
        s = cls(F2, view)
        base[3, 0] = 7.0
        assert np.array_equal(s.values, np.eye(4))

    @pytest.mark.parametrize("cls", MATRIX_CLASSES)
    def test_read_only_float_array_is_adopted(self, cls):
        values = np.eye(4)
        values.flags.writeable = False
        assert cls(F2, values).values is values
        as_int = np.eye(4, dtype=np.int64)
        as_int.flags.writeable = False
        converted = cls(F2, as_int).values
        assert converted.dtype == np.float64 and not np.shares_memory(converted, as_int)

    @pytest.mark.parametrize(
        "build",
        [
            lambda m: conditioning_matrix(F3, 0b101),
            dempsterian_matrix,
            lambda m: despecialize_matrix(dempsterian_matrix(m)),
            lambda m: enlargement_matrix(F3, 0b011),
            disjunctive_matrix,
        ],
        ids=["conditioning", "dempsterian", "despecialize", "enlargement", "disjunctive"],
    )
    def test_builder_output_is_adopted_uncopied(self, build, monkeypatch):
        built = []

        def spy(values, op):
            built.append(_transfer_rows(values, op))
            return built[-1]

        m = invertible_mass(F3, np.random.default_rng(15))
        monkeypatch.setattr(specialization, "_transfer_rows", spy)
        values = build(m).values
        assert not values.flags.writeable
        assert np.shares_memory(values, built[-1])


class TestSharedIncidence:
    @pytest.mark.parametrize("n", [1, 4, CAP_MATRIX])
    def test_structure_arrays_are_the_public_incidence_pair(self, n):
        frame = default_frame(n)
        structure = eigen_structure(dempsterian_matrix(vacuous(frame)))
        for shared, public in (
            (structure.transform, incidence_matrix(frame)),
            (structure.t_inverse, incidence_inverse(frame)),
        ):
            assert shared.dtype == public.dtype == np.float64
            assert np.array_equal(shared, public)
            assert np.array_equal(np.signbit(shared), np.signbit(public))

    def test_structure_arrays_cannot_be_made_writable(self):
        structure = eigen_structure(dempsterian_matrix(two_element_example()))
        for shared in (structure.transform, structure.t_inverse):
            with pytest.raises(ValueError):
                shared.flags.writeable = True

    def test_writes_into_public_copies_do_not_reach_later_structures(self):
        t, t_inverse = incidence_matrix(F3), incidence_inverse(F3)
        assert t.flags.writeable and t_inverse.flags.writeable
        t[:] = 5.0
        t_inverse[:] = 5.0
        structure = eigen_structure(dempsterian_matrix(vacuous(F3)))
        assert np.array_equal(structure.transform, naive_incidence_inverse(8) != 0)
        assert np.array_equal(structure.t_inverse, naive_incidence_inverse(8))
        assert not np.array_equal(incidence_matrix(F3), t)


class TestVerdictsAreNotCached:
    def test_a_perturbed_entry_is_seen_by_every_later_test(self):
        m = invertible_mass(F3, np.random.default_rng(16))
        s = dempsterian_matrix(m)
        x = random_mass(F3, np.random.default_rng(17))
        assert is_dempsterian(s)
        eigen_structure(s)
        expected = apply(x, s).values

        s.values.flags.writeable = True
        row = 0b011
        original = s.values[row, 0]
        s.values[row, 0] += 1e-3  # the row now sums to 1.001: neither Dempsterian nor valid
        assert not is_dempsterian(s)
        with pytest.raises(NotDempsterianError):
            eigen_structure(s)
        with pytest.raises(InvalidSpecializationError):
            apply(x, s)

        s.values[row, 0] = original
        assert is_dempsterian(s)
        assert np.array_equal(apply(x, s).values, expected)

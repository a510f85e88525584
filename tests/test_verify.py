import json
import tracemalloc

import numpy as np
import pytest

from beliefdyn.belief import MassFunction, _pl, pl_from_mass
from beliefdyn.errors import FrameMismatchError, FrameTooLargeError, InputError
from beliefdyn.lattice import Frame, default_frame
from beliefdyn.specialization import incidence_matrix, is_valid_specialization
from beliefdyn.verify import (
    CHECK_NAMES,
    CheckReport,
    EXHAUSTIVE_CHECKS,
    TOL,
    TOL_EXACT,
    _BLOCK,
    _CANDIDATES_PER_ROW,
    _CHECKS,
    _Fold,
    _blocks,
    _dominated,
    _meets,
    _random_masses,
    _random_rows,
    _witness,
    all_passed,
    check_combination_least_committed,
    check_commuting_implies_dempsterian,
    check_conditioning_idempotent,
    check_conditioning_least_committed,
    check_dempsterian_commutation,
    check_dynamics_invariants,
    check_eigen_structure,
    dominated_specialization,
    format_reports,
    random_mass,
    random_specialization,
    run_all,
    sigma_star_specialization,
)
from oracles import reference_dominated

F3 = default_frame(3)


class TestSamplers:
    def test_random_mass_is_valid_and_varied(self):
        rng = np.random.default_rng(0)
        focal_counts = set()
        for _ in range(50):
            m = random_mass(F3, rng)
            assert m.values.min() >= 0.0
            assert m.values.sum() == pytest.approx(1.0, abs=1e-12)
            focal_counts.add(len(m.focal_sets()))
        assert len(focal_counts) > 3  # sparsity actually varies

    def test_random_specialization_is_valid(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            assert is_valid_specialization(random_specialization(F3, rng))

    def test_sigma_star_support(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            c = int(rng.integers(8))
            s = sigma_star_specialization(F3, c, rng)
            assert is_valid_specialization(s)
            for b in range(8):
                if b & ~c:
                    assert not s.values[:, b].any()

    def test_dominated_rows_are_dominated(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            anchor = random_mass(F3, rng)
            pl0 = pl_from_mass(anchor).values
            s = dominated_specialization(F3, anchor, rng)
            assert is_valid_specialization(s)
            for a in range(8):
                row_pl = [sum(s.values[a, b] for b in range(8) if b & d) for d in range(8)]
                assert (np.array(row_pl) <= pl0 + 1e-9).all()

    def test_dominated_fallback_when_no_candidate_passes(self):
        # pl of a point mass on the empty set is zero everywhere, so every
        # row but the empty set's rejects all its candidates and is shrunk
        # all the way to the empty set
        anchor = MassFunction(F3, np.eye(8)[0])
        s = dominated_specialization(F3, anchor, np.random.default_rng(4))
        assert is_valid_specialization(s)
        assert np.array_equal(s.values, np.eye(8)[[0] * 8])

    @pytest.mark.parametrize("n", range(1, 5))
    def test_dominated_draws_match_the_pl_route(self, n):
        # the product fit test accepts the same candidates as the butterfly,
        # so every draw, fallback rows included, is the same bit for bit;
        # 70 anchors span two row blocks at n=4, and the point mass on the
        # empty set sends every row but the empty set's to the fallback
        size = 1 << n
        t = incidence_matrix(default_frame(n))
        for seed in range(10):
            rng = np.random.default_rng(100 * n + seed)
            pl0 = _pl(np.vstack([np.eye(size)[:1], _random_masses(size, 69, rng)]))
            got = _dominated(t, pl0, np.random.default_rng(seed))
            want = reference_dominated(t, pl0, np.random.default_rng(seed), _BLOCK, _CANDIDATES_PER_ROW, TOL_EXACT)
            assert np.array_equal(got, want)
            assert np.array_equal(got[0, 1:], np.eye(size)[[0] * (size - 1)])

    @pytest.mark.parametrize("n", range(1, 7))
    def test_meets_product_is_the_plausibility(self, n):
        size = 1 << n
        rng = np.random.default_rng(30 + n)
        cand = _random_rows(np.broadcast_to(incidence_matrix(default_frame(n)), (20, size, size)), rng)
        np.testing.assert_allclose(cand @ _meets(size), _pl(cand), rtol=0.0, atol=8 * np.finfo(float).eps)

    def test_dominated_rejects_an_anchor_from_another_frame(self):
        rng = np.random.default_rng(7)
        with pytest.raises(FrameMismatchError):
            dominated_specialization(F3, random_mass(default_frame(2), rng), rng)
        relabelled = MassFunction(Frame(("x", "y", "z")), random_mass(F3, rng).values)
        with pytest.raises(FrameMismatchError):
            dominated_specialization(F3, relabelled, rng)

    def test_dominated_specialization_memory_is_bounded(self):
        # one candidate per pending row a round, in row blocks: far below a single
        # (2**n, 41, 2**n) block of all candidates, which takes 21 MB at n=8
        frame = default_frame(8)
        rng = np.random.default_rng(5)
        anchor = random_mass(frame, rng)
        tracemalloc.start()
        try:
            s = dominated_specialization(frame, anchor, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6
        assert is_valid_specialization(s)
        pl0 = pl_from_mass(anchor).values
        for row in s.values:
            assert (pl_from_mass(MassFunction(frame, row)).values <= pl0 + 1e-9).all()


class TestIndividualChecks:
    def test_conditioning_least_committed_passes(self):
        report = check_conditioning_least_committed(F3, samples=100, seed=5)
        assert report.passed and report.witness is None

    def test_conditioning_matrix_itself_attains_the_bound(self):
        # S_C has the zero-plausibility support property and gives equality
        from beliefdyn.dynamics import condition
        from beliefdyn.specialization import apply, conditioning_matrix

        rng = np.random.default_rng(20)
        for c in range(8):
            m = random_mass(F3, rng)
            via_matrix = pl_from_mass(apply(m, conditioning_matrix(F3, c))).values
            np.testing.assert_allclose(
                via_matrix, pl_from_mass(condition(m, c)).values, atol=1e-12
            )

    def test_categorical_frame_mass_reduces_to_top_row(self):
        # the vacuous state reads off row full, whose plausibility the
        # conditioned state dominates
        from beliefdyn.belief import vacuous
        from beliefdyn.dynamics import condition
        from beliefdyn.specialization import apply

        rng = np.random.default_rng(21)
        for _ in range(20):
            c = int(rng.integers(8))
            s = sigma_star_specialization(F3, c, rng)
            vac = vacuous(F3)
            pl_row = pl_from_mass(apply(vac, s)).values
            pl_cond = pl_from_mass(condition(vac, c)).values
            assert (pl_row <= pl_cond + 1e-12).all()

    def test_conditioning_idempotent_exact(self):
        for n in (1, 2, 3, 4):
            report = check_conditioning_idempotent(default_frame(n))
            assert report.passed
            assert report.worst_deviation == 0.0

    def test_commuting_implies_dempsterian_passes(self):
        report = check_commuting_implies_dempsterian(F3, samples=30, seed=6)
        assert report.passed
        assert report.instances == 60  # witness search doubles the count at n=3
        # the witness search's deviations are large exactly when it passes
        assert report.worst_deviation <= TOL

    def test_dempsterian_commutation_passes(self):
        report = check_dempsterian_commutation(default_frame(4), samples=50, seed=7)
        assert report.passed and report.worst_deviation <= 1e-9

    def test_combination_least_committed_passes(self):
        report = check_combination_least_committed(F3, samples=60, seed=8)
        assert report.passed

    def test_eigen_structure_passes(self):
        report = check_eigen_structure(default_frame(5), samples=40, seed=9)
        assert report.passed and report.worst_deviation <= 1e-9

    def test_dynamics_invariants_pass(self):
        report = check_dynamics_invariants(F3, samples=60, seed=10)
        assert report.passed


class TestPublicChecks:
    @pytest.mark.parametrize("name", CHECK_NAMES)
    def test_negative_seed_rejected(self, name):
        check, _ = _CHECKS[name]
        with pytest.raises(InputError, match="seed must be at least 0, got -1"):
            check(default_frame(2), seed=-1)

    @pytest.mark.parametrize("name", [c for c in CHECK_NAMES if c not in EXHAUSTIVE_CHECKS])
    def test_samples_below_one_rejected(self, name):
        # no block at all would be a pass on no instance
        check, _ = _CHECKS[name]
        with pytest.raises(InputError, match="samples must be at least 1, got 0"):
            check(default_frame(2), samples=0)

    @pytest.mark.parametrize(
        "count, entries", [(1, 16), (500, 16), (500, 4096), (1024, 16), (1025, 16), (7, 2**15)]
    )
    def test_blocks_split_range(self, count, entries):
        step = max(1, _BLOCK // entries)
        expected = np.split(np.arange(count), np.arange(step, count, step))
        blocks = list(_blocks(count, entries))
        assert len(blocks) == len(expected)
        assert all(np.array_equal(b, e) for b, e in zip(blocks, expected))

    def test_blocks_hold_one_block_at_a_time(self):
        # a whole index of 10**12 entries would need 8 TB
        assert np.array_equal(next(_blocks(10**12, 1)), np.arange(_BLOCK))


class TestRunAll:
    def test_default_suite_passes(self):
        reports = run_all(sizes=(1, 2), samples=30, seed=3)
        assert all_passed(reports)
        assert {r.check for r in reports} == set(CHECK_NAMES)

    @pytest.mark.parametrize("seed", range(10))
    def test_defaults_pass_for_seeds_0_to_9(self, seed):
        # guards the stacked draws: every report of the default suite passes at every seed
        reports = run_all(seed=seed)
        assert all_passed(reports), format_reports(reports)
        assert sum(r.instances for r in reports) == 6970

    def test_deterministic_per_seed(self):
        first = run_all(sizes=(2,), samples=25, seed=11)
        second = run_all(sizes=(2,), samples=25, seed=11)
        assert [r.to_line() for r in first] == [r.to_line() for r in second]
        assert format_reports(first) == format_reports(second)

    def test_different_seeds_differ(self):
        a = run_all(sizes=(3,), samples=25, seed=1, checks=["dempsterian-commutation"])
        b = run_all(sizes=(3,), samples=25, seed=2, checks=["dempsterian-commutation"])
        assert a[0].worst_deviation != b[0].worst_deviation

    def test_check_selection(self):
        reports = run_all(sizes=(2,), samples=10, seed=0, checks=["eigenstructure"])
        assert [r.check for r in reports] == ["eigenstructure"]

    def test_unknown_check_rejected(self):
        with pytest.raises(InputError):
            run_all(checks=["no-such-check"])

    @pytest.mark.parametrize("samples", [0, -5])
    def test_samples_below_one_rejected(self, samples):
        with pytest.raises(InputError):
            run_all(sizes=(1,), samples=samples)

    def test_negative_seed_rejected(self):
        with pytest.raises(InputError, match="seed must be at least 0, got -1"):
            run_all(sizes=(1,), samples=2, seed=-1)

    def test_seed_beyond_64_bits_runs(self):
        assert all_passed(run_all(sizes=(1,), samples=2, seed=2**70 + 5))

    def test_oversize_frame_rejected(self):
        with pytest.raises(FrameTooLargeError):
            run_all(sizes=(11,))

    @pytest.mark.parametrize(
        "sizes, checks",
        [((7, 8), None), ((5,), ["conditioning-least-committed"]), ((1,), []), ((), None)],
    )
    def test_selection_that_runs_nothing_rejected(self, sizes, checks):
        with pytest.raises(InputError, match="none of the sizes"):
            run_all(sizes=sizes, checks=checks)

    def test_size_gates_skip_expensive_checks(self):
        reports = run_all(sizes=(5,), samples=10, seed=0)
        names = {r.check for r in reports}
        assert names == {"dempsterian-commutation", "eigenstructure", "dynamics-invariants"}


class TestFold:
    def test_report_rules(self):
        fold = _Fold("x", 2)
        fold.add([False], ([0.5],), k=[0])
        # two failed sub-identities are one violating instance
        fold.add([True, True], ([2.0, 4.0], [3.0, 1.0]), k=[1, 2])
        # a violation without deviations, as in a witness search, leaves the worst alone
        fold.add([True], k=[3])
        assert fold.report() == CheckReport("x", 2, 4, 3, 4.0, _witness("x", 2, k=1))

    def test_first_violating_row_of_a_stack_is_the_witness(self):
        fold = _Fold("x", 1)
        fold.add([False, False, True, True], ([0.1, 0.2, 0.9, 0.3],), k=np.arange(4),
                 m=np.eye(4), lazy=lambda i: {"row": i})
        assert fold.report() == CheckReport(
            "x", 1, 4, 2, 0.9, _witness("x", 1, k=2, m=np.eye(4)[2], lazy={"row": 2})
        )

    @pytest.mark.parametrize("first", [0.5, np.nan])
    def test_nan_deviation_is_a_violation_and_the_worst(self, first):
        # a NaN fails every ``dev > tol`` test, so the violation flag alone would pass it
        fold = _Fold("x", 1)
        fold.add([False], ([first],), k=[0])
        nan = np.nan
        fold.add(np.array([nan, 0.1]) > 1.0, ([nan, 0.1],), k=[1, 2])
        fold.add([False], ([0.7],), k=[3])
        report = fold.report()
        assert report.instances == 4 and report.violations == 1 + int(np.isnan(first))
        assert np.isnan(report.worst_deviation) and not report.passed
        assert json.loads(report.witness)["k"] == (0 if np.isnan(first) else 1)


class TestFaultInjection:
    def test_injected_fault_is_reported_with_witness(self):
        reports = run_all(sizes=(2,), samples=10, seed=4, inject_fault=True)
        assert not all_passed(reports)
        failing = [r for r in reports if not r.passed]
        assert [r.check for r in failing] == ["eigenstructure"]
        report = failing[0]
        assert report.violations == 1
        witness = json.loads(report.witness)
        assert witness["check"] == "eigenstructure"
        assert witness["n"] == 2
        assert "m" in witness

    def test_witness_reproduces_standalone(self):
        reports = run_all(sizes=(2,), samples=10, seed=4, inject_fault=True)
        witness = json.loads(next(r for r in reports if not r.passed).witness)
        # the recorded deviations locate the fault well above tolerance
        assert witness["reconstruction_deviation"] > 1e-9

    def test_witness_keeps_values_below_document_cut_off(self):
        # witnesses round to 12 significant digits but, unlike documents, zero nothing
        text = _witness("x", 1, d=2.220446049250313e-16, m=np.array([1 / 3, 0.0]))
        assert text == '{"check":"x","d":2.22044604925e-16,"m":[0.333333333333,0.0],"n":1}'


class TestReportFormat:
    def test_line_shape(self):
        report = check_conditioning_idempotent(default_frame(2))
        line = report.to_line()
        assert line.startswith("conditioning-idempotent")
        assert "violations=" in line and "[pass]" in line

    def test_summary_counts(self):
        reports = run_all(sizes=(1,), samples=5, seed=0)
        text = format_reports(reports)
        assert text.endswith(f"summary: {len(reports)} checks, {len(reports)} passed, 0 failed")
